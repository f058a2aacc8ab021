"""Adjacency / degree / Laplacian construction over the 2N stacked samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class JointGraph:
    w: np.ndarray
    d: np.ndarray
    lap: np.ndarray


def lda_like_adjacency(stacked_labels):
    """Supervised adjacency: weight 1/N_k between distinct same-class samples.

    N_k counts class members over the full stacked list (both modality copies).
    """
    labels = np.asarray(stacked_labels, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("stacked_labels must be a nonempty 1-D sequence")
    same = labels[:, None] == labels[None, :]
    counts = np.bincount(labels)[labels].astype(float)
    w = np.where(same, 1.0 / counts[None, :], 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def knn_gaussian_adjacency(features, k, sigma):
    """Heat-kernel kNN adjacency (union-symmetrized, Euclidean distances)."""
    features = np.asarray(features, dtype=float)
    n = features.shape[1]
    if k >= n:
        raise ValidationError(f"k={k} must be smaller than the sample count {n}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    sq = np.sum(features**2, axis=0)
    dist2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (features.T @ features), 0.0)
    np.fill_diagonal(dist2, np.inf)
    # ties resolved by index order via stable argsort
    order = np.argsort(dist2, axis=1, kind="stable")[:, :k]
    neighbor = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    neighbor[rows, order.ravel()] = True
    neighbor |= neighbor.T
    dist2[~np.isfinite(dist2)] = 0.0
    w = np.where(neighbor, np.exp(-dist2 / (2.0 * sigma**2)), 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def laplacian(w) -> JointGraph:
    """Combinatorial Laplacian L = D - W from a symmetric adjacency."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("adjacency must be square")
    # one contiguous transpose for both uses: a strided (2N)^2 pass costs ~3 plain ones;
    # `buf` holds |W - W^T| and then L, so at most three (2N)^2 arrays are alive
    wt = np.ascontiguousarray(w.T)
    buf = w - wt
    if np.max(np.abs(buf, out=buf), initial=0.0) > 1e-12:
        raise ValidationError("adjacency must be symmetric within 1e-12")
    if np.any(w < 0):
        raise ValidationError("adjacency weights must be nonnegative")
    w = np.add(w, wt, out=wt)
    w *= 0.5
    np.fill_diagonal(w, 0.0)
    d = np.diag(w.sum(axis=1))
    return JointGraph(w=w, d=d, lap=np.subtract(d, w, out=buf))


def pencil(xtilde, w):
    """Band-space pencil (X L X^T, X D X^T) of an adjacency over the columns of X.

    The only place where an adjacency becomes matrices: CoSpace's alignment
    term and the LPP baselines see a graph through these D x D products alone.
    """
    xtilde = np.asarray(xtilde, dtype=float)
    g = laplacian(w)
    if g.w.shape[0] != xtilde.shape[1]:
        raise ValidationError("graph size does not match the stacked sample count")
    deg = np.diag(g.d)
    return xtilde @ g.lap @ xtilde.T, (xtilde * deg) @ xtilde.T
