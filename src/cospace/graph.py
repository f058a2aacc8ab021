"""Graphs over the 2N stacked samples, their band-space pencils, and LSMA's graph-free pencil."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KNN_BLOCK_ENTRIES = 2**20  # float64 entries per kNN search block or adjacency check strip: 8 MB


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


def knn_graph(features, k, sigma):
    """Heat-kernel kNN adjacency (union-symmetrized, Euclidean) as sparse CSR.

    Rows are searched in blocks of about 8 MB; each row keeps its k nearest
    columns, ties going to the lower index (the `argsort(kind="stable")` rule).
    """
    from scipy import sparse  # here, so that a CLI command without LUSMA does not load it

    features = np.asarray(features, dtype=float)
    n = features.shape[1]
    if k >= n:
        raise ValidationError(f"k={k} must be smaller than the sample count {n}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    sq = np.sum(features**2, axis=0)
    step = max(1, KNN_BLOCK_ENTRIES // n)
    blocks = []
    for start in range(0, n, step):
        rows = slice(start, start + step)
        d2 = features[:, rows].T @ features
        d2 *= -2.0
        d2 += sq[rows, None] + sq  # then d2 = max(sq_i + sq_j - 2 f_i.f_j, 0)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2[:, start:], np.inf)
        kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]  # a copy: frees the partition
        r, c = np.nonzero(d2 < kth)
        # ties at the k-th distance go to the lowest indices, as in a stable argsort;
        # nonzero lists them row by row in index order
        tr, tc = np.nonzero(d2 == kth)
        rank = np.arange(tr.size) - np.searchsorted(tr, tr)
        tie = rank < k - np.bincount(r, minlength=d2.shape[0])[tr]
        r, c = np.concatenate([r, tr[tie]]), np.concatenate([c, tc[tie]])
        blocks.append(sparse.csr_matrix((np.exp(-d2[r, c] / (2.0 * sigma**2)), (r, c)),
                                        shape=d2.shape))
    w = sparse.vstack(blocks, format="csr")
    return w.maximum(w.T)


def knn_gaussian_adjacency(features, k, sigma):
    """`knn_graph` as a dense array."""
    return knn_graph(features, k, sigma).toarray()


def _check_adjacency(w):
    """Raise a ValidationError unless the dense `w` is square, symmetric within
    1e-12 and nonnegative. It reads `w` in row strips of about 8 MB and
    compares tiles with their mirrors, so it makes no second (2N)^2 array."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("adjacency must be square")
    n = w.shape[0]
    step = max(1, KNN_BLOCK_ENTRIES // max(n, 1))
    for j in range(0, n, step):
        rows = w[j:j + step]
        for k in range(j, n, step):  # the strip's upper tiles against their mirrors
            if np.max(np.abs(rows[:, k:k + step] - w[k:k + step, j:j + step].T)) > 1e-12:
                raise ValidationError("adjacency must be symmetric within 1e-12")
        if rows.min() < 0:
            raise ValidationError("adjacency weights must be nonnegative")


def laplacian(w) -> JointGraph:
    """Combinatorial Laplacian L = D - W from a symmetric adjacency: a dense
    reference for tests and the benchmark's checks, which `pencil` does not call."""
    w = np.asarray(w, dtype=float)
    _check_adjacency(w)
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    d = np.diag(w.sum(axis=1))
    return JointGraph(w=w, d=d, lap=d - w)


def pencil(xtilde, w):
    """Band-space pencil (X L X^T, X D X^T) of an adjacency over the columns of X.

    The only place where an adjacency becomes matrices: CoSpace's alignment
    term and the LPP baselines see a graph through these D x D products alone.
    `w` is a dense array, which is checked, or a scipy.sparse matrix, such as a
    `knn_graph`, which must be symmetric and is never densified. As in
    `laplacian`, D counts no self-loops, and L cancels them.
    """
    xtilde = np.asarray(xtilde, dtype=float)
    if not hasattr(w, "tocsr"):  # scipy.sparse, tested without importing it
        w = np.asarray(w, dtype=float)
        _check_adjacency(w)
    if w.shape[0] != xtilde.shape[1]:
        raise ValidationError("graph size does not match the stacked sample count")
    deg = w @ np.ones(w.shape[0])
    # L X^T at 2N x D: X D X^T - X W X^T would cancel at D x D and lose the
    # digits of small entries
    return (xtilde @ (deg[:, None] * xtilde.T - w @ xtilde.T),
            (xtilde * (deg - w.diagonal())) @ xtilde.T)


def class_pencil(ds):
    """`pencil(X~, lda_like_adjacency(labels twice))` from class statistics: no graph, no X~.
    For n_k pairs in class k with means m_k, h_k, and M_c, H_c equal to M, H less their class
    means, X L X^T = blkdiag(M_c M_c^T, H_c H_c^T) + sum_k n_k/2 v_k v_k^T, v_k = [m_k; -h_k], a
    sum of PSD terms, and X D X^T = blkdiag(M C M^T, H C H^T) with C_ii = 1 - 1/(2 n_k)."""
    idx = ds.labels - 1
    n = np.bincount(idx)
    means = [x @ ds.onehot.T / n for x in (ds.ms, ds.hs)]
    v = np.vstack([means[0], -means[1]])
    a, b = np.zeros((2, v.shape[0], v.shape[0]))
    for x, mean, s in zip((ds.ms, ds.hs), means, (np.s_[:len(ds.ms)], np.s_[len(ds.ms):])):
        xc = x - mean[:, idx]
        a[s, s] = xc @ xc.T
        b[s, s] = (x * (1.0 - 0.5 / n[idx])) @ x.T
    return a + (v * (0.5 * n)) @ v.T, b
