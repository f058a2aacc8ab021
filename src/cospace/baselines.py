"""Comparison projections: joint PCA and LPP-style manifold alignment.

The learned rows keep the [ms-part, hs-part] layout of the block-diagonal
stacked system expected by the classification pipeline. Each fit sees the
data only through D x D matrices: PJDR through the stacked samples' centred
scatter, the supervised and unsupervised alignment variants through the pencil
passed to `fit_lpp`: `graph.class_pencil` for LSMA, `graph.pencil` of a kNN
graph for LUSMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class LinearProjection:
    """Rows of `theta` project stacked [ms, hs] features; an LPP fit keeps its
    generalized eigenvalues in params["eigenvalues"]."""

    theta: np.ndarray
    d_m: int
    params: dict

    @property
    def theta_m(self):
        return self.theta[:, : self.d_m]

    @property
    def theta_h(self):
        return self.theta[:, self.d_m :]


def _fix_signs(rows):
    """Make the first coordinate above round-off positive in every row."""
    rows = rows.copy()
    for i, row in enumerate(rows):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            rows[i] = -row
    return rows


def fit_pjdr(d_m, scatter, d) -> LinearProjection:
    """PCA of the stacked samples: the top-`d` eigenvectors of their centred
    scatter X C X^T (C = I - 11^T/2N), which `graph.class_pencil` of one class gives."""
    evals, evecs = np.linalg.eigh(scatter)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int(np.sum(evals > 1e-12 * evals[0]))
    if d > rank:
        raise ValidationError(f"d={d} exceeds the data rank {rank}")
    return LinearProjection(theta=_fix_signs(evecs[:, :d].T), d_m=d_m, params={})


def fit_lpp(d_m, pencil, d) -> LinearProjection:
    """Smallest-eigenvalue rows of the pencil (X L X^T, X D X^T); X's first d_m rows are MS."""
    from scipy.linalg import eigh  # here, so that a CLI command without a fit does not load it
    a, b = pencil
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    # ridge floor keeps the pencil definite when some samples have zero degree
    floor = 1e-9 * max(np.trace(b) / b.shape[0], 1e-30)
    b = b + floor * np.eye(b.shape[0])
    if d > b.shape[0]:
        raise ValidationError(f"d={d} exceeds the available {b.shape[0]} eigenpairs")
    try:
        evals, evecs = eigh(a, b, subset_by_index=(0, d - 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    theta = _fix_signs(evecs.T)
    return LinearProjection(theta=theta, d_m=d_m, params={"eigenvalues": evals.tolist()})
