"""Classifiers over embedded samples: 1NN, ridge-linear, and direct map scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .data import atomic_write, onehot_encode
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class ReferenceSet:
    embeddings: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if emb.ndim != 2 or emb.shape[1] == 0:
            raise ValidationError("reference set must contain at least one sample")
        if not np.all(np.isfinite(emb)):
            raise ValidationError("reference embeddings must be finite")
        if labels.shape != (emb.shape[1],):
            raise ValidationError("reference labels length must match sample count")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", labels)


def knn1_predict(ref: ReferenceSet, queries):
    """Label of the closest reference per query; ties go to the lowest index."""
    queries = np.asarray(queries, dtype=float)
    if queries.shape[0] != ref.embeddings.shape[0]:
        raise ValidationError(
            f"query dimension {queries.shape[0]} != reference dimension "
            f"{ref.embeddings.shape[0]}"
        )
    r2 = np.sum(ref.embeddings**2, axis=0)
    q2 = np.sum(queries**2, axis=0)
    step = max(1, graph.KNN_BLOCK_ENTRIES // r2.size)  # query columns per 8 MB block
    nearest = np.empty(q2.size, dtype=np.intp)
    for j in range(0, q2.size, step):
        cols = slice(j, j + step)
        dist2 = r2[:, None] + q2[None, cols] - 2.0 * (ref.embeddings.T @ queries[:, cols])
        # argmin returns the first minimum, which is the tie rule
        nearest[cols] = np.argmin(dist2, axis=0)
    return ref.labels[nearest]


def fit_linear(embeddings, onehot, lam):
    """Ridge fit of one-hot targets with an unregularized bias column.

    Returns a num_classes x (d+1) weight matrix; the last column is the bias.
    """
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    embeddings = np.asarray(embeddings, dtype=float)
    onehot = np.asarray(onehot, dtype=float)
    if not (np.all(np.isfinite(embeddings)) and np.all(np.isfinite(onehot))):
        raise NumericalError("non-finite values in the linear classifier inputs")
    d, n = embeddings.shape
    z = np.vstack([embeddings, np.ones((1, n))])
    reg = lam * np.eye(d + 1)
    reg[d, d] = 0.0
    system = z @ z.T + reg
    try:
        factor = np.linalg.cholesky(system)  # system = factor @ factor.T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear classifier normal equations failed: {exc}") from exc
    return np.linalg.solve(factor.T, np.linalg.solve(factor, (onehot @ z.T).T)).T


def linear_predict(weights, queries):
    """Argmax of linear class scores; ties go to the lowest class id."""
    weights = np.asarray(weights, dtype=float)
    queries = np.asarray(queries, dtype=float)
    if queries.shape[0] != weights.shape[1] - 1:
        raise ValidationError(
            f"query dimension {queries.shape[0]} != classifier dimension "
            f"{weights.shape[1] - 1}"
        )
    z = np.vstack([queries, np.ones((1, queries.shape[1]))])
    scores = weights @ z
    return np.argmax(scores, axis=0) + 1


def linear_classify(refs: ReferenceSet, queries, num_classes, lam):
    """Labels of `queries` from the ridge-linear classifier fitted on `refs`."""
    onehot = onehot_encode(refs.labels, num_classes)
    return linear_predict(fit_linear(refs.embeddings, onehot, lam), queries)


def predict_via_p(model, ms_queries):
    """Classify MS samples directly through the learned label map."""
    from .solver import embed_ms

    scores = model.p @ embed_ms(model, ms_queries)
    return np.argmax(scores, axis=0) + 1


def model_reference_set(model, refs="both") -> ReferenceSet:
    """Training-sample reference set stored in a fitted model.

    refs="both" uses the embedded samples of both modalities; refs="ms"
    restricts to the MS copies (ablation).
    """
    if model.ref_embeddings is None:
        raise ValidationError("model was fitted without stored references")
    if refs == "both":
        return ReferenceSet(model.ref_embeddings, model.ref_labels)
    if refs == "ms":
        mask = model.ref_modalities == 0
        return ReferenceSet(model.ref_embeddings[:, mask], model.ref_labels[mask])
    raise ValidationError(f"unknown reference selection {refs!r}; use both|ms")


def write_pgm(path, labels, width, height, max_label):
    """Emit an 8-bit grayscale label map (labels scaled into 0..255)."""
    labels = np.asarray(labels, dtype=int)
    if labels.size != width * height:
        raise ValidationError(
            f"{labels.size} labels do not fill a {width}x{height} map"
        )
    scaled = np.clip((labels * 255) // max_label, 0, 255).astype(np.uint8)
    atomic_write(path, f"P5\n{width} {height}\n255\n".encode("ascii") + scaled.tobytes())
