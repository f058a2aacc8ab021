"""Confusion matrix, overall/average accuracy, and Cohen's kappa."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def confusion_matrix(truth, predicted, num_classes):
    """Counts indexed [true class - 1][predicted class - 1]."""
    truth = np.asarray(truth, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValidationError("truth and predicted must be 1-D and equal length")
    for name, arr in (("truth", truth), ("predicted", predicted)):
        bad = np.nonzero((arr < 1) | (arr > num_classes))[0]
        if bad.size:
            raise ValidationError(
                f"{name} label {arr[bad[0]]} at index {bad[0]} outside [1..{num_classes}]"
            )
    cm = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(cm, (truth - 1, predicted - 1), 1)
    return cm


def _check(confusion):
    cm = np.asarray(confusion)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValidationError("confusion matrix must be square")
    if np.any(cm < 0):
        raise ValidationError("confusion counts must be nonnegative")
    if cm.sum() < 1:
        raise ValidationError("confusion matrix holds no samples")
    return cm


def overall_accuracy(confusion):
    cm = _check(confusion)
    return float(np.trace(cm)) / float(cm.sum())


def per_class_accuracy(confusion):
    """Diagonal over row sums; NaN marks classes absent from the truth."""
    cm = _check(confusion)
    rows = cm.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(rows > 0, np.diag(cm) / rows, np.nan)


def average_accuracy(confusion):
    """Mean per-class accuracy over classes with test support."""
    acc = per_class_accuracy(confusion)
    supported = acc[~np.isnan(acc)]
    return float(supported.mean())


def kappa(confusion):
    """Chance-corrected agreement from the confusion marginals."""
    cm = _check(confusion).astype(float)
    n = cm.sum()
    p_o = np.trace(cm) / n
    p_e = float(np.sum(cm.sum(axis=1) * cm.sum(axis=0))) / (n * n)
    if abs(1.0 - p_e) < 1e-15:
        raise ValidationError("degenerate marginals: chance agreement is 1")
    return float((p_o - p_e) / (1.0 - p_e))


@dataclass(frozen=True)
class MetricsReport:
    confusion: np.ndarray
    oa: float
    aa: float
    kappa: float
    per_class: np.ndarray

    @staticmethod
    def from_predictions(truth, predicted, num_classes):
        cm = confusion_matrix(truth, predicted, num_classes)
        return MetricsReport(
            confusion=cm,
            oa=overall_accuracy(cm),
            aa=average_accuracy(cm),
            kappa=kappa(cm),
            per_class=per_class_accuracy(cm),
        )

    def to_dict(self):
        return {
            "oa": self.oa,
            "aa": self.aa,
            "kappa": round(self.kappa, 4),
            "per_class": [None if np.isnan(v) else v for v in self.per_class.tolist()],
            "confusion": self.confusion.tolist(),
        }
