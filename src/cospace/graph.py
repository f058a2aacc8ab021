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


def _norm_prefix(sq_rows, sq, k):
    """Another block's columns that rows of squared norms `sq_rows` are searched
    over, in index order: a prefix by squared norm, grown until the first column
    left out is strictly beyond every row's k-th distance to the block."""
    order = np.argsort(sq)
    p = min(k, sq.size)
    while p < sq.size and np.any(sq_rows + sq[order[p]] <= sq_rows + sq[order[k - 1]]):
        p = min(2 * p, sq.size)
    return np.sort(order[:p])


def knn_graph(blocks, k, sigma):
    """Heat-kernel kNN adjacency (union-symmetrized, Euclidean) over the columns
    of blkdiag(blocks), as sparse CSR; one matrix is the case of one block.

    Each row keeps its k nearest columns, ties going to the lower index (the
    `argsort(kind="stable")` rule). Rows of block b are searched in blocks of
    about 8 MB, over b's columns by one GEMM over b's rows, and over each other
    block's `_norm_prefix`, whose columns are exactly sq_i + sq_j away.
    """
    from scipy import sparse  # here, so that a CLI command without LUSMA does not load it

    blocks = [np.asarray(f, dtype=float) for f in blocks]
    n = sum(f.shape[1] for f in blocks)
    if k >= n:
        raise ValidationError(f"k={k} must be smaller than the sample count {n}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    sqs = [np.sum(f**2, axis=0) for f in blocks]
    starts = np.cumsum([0] + [sq.size for sq in sqs])
    parts = []
    for b, (f, sq) in enumerate(zip(blocks, sqs)):
        cols = [np.arange(sq.size) if c == b else _norm_prefix(sq, sq_c, k)
                for c, sq_c in enumerate(sqs)]
        own = sum(c.size for c in cols[:b])
        sq_cols = np.concatenate([sq_c[c] for sq_c, c in zip(sqs, cols)])
        cols = np.concatenate([start + c for start, c in zip(starts, cols)])  # ascending
        step = max(1, KNN_BLOCK_ENTRIES // cols.size)
        for start in range(0, sq.size, step):
            rows = slice(start, start + step)
            d2 = np.add.outer(sq[rows], sq_cols)
            near = d2[:, own:own + sq.size]
            near += (-2.0 * f[:, rows]).T @ f  # then max(sq_i + sq_j - 2 f_i.f_j, 0)
            np.maximum(near, 0.0, out=near)
            np.fill_diagonal(near[:, start:], np.inf)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]  # a copy: frees the partition
            r, c = np.divmod(np.flatnonzero(d2 <= kth[:, None]), cols.size)
            d2 = d2[r, c]
            # ties at the k-th distance go to the lowest indices, as in a stable argsort;
            # flatnonzero lists them row by row in index order
            tie = d2 == kth[r]
            tr = r[tie]
            keep = ~tie
            keep[tie] = (np.arange(tr.size) - np.searchsorted(tr, tr)
                         < k - np.bincount(r[keep], minlength=kth.size)[tr])
            parts.append(sparse.csr_matrix((np.exp(-d2[keep] / (2.0 * sigma**2)),
                                            (r[keep], cols[c[keep]])), shape=(kth.size, n)))
    w = sparse.vstack(parts, format="csr")
    return w.maximum(w.T)


def knn_gaussian_adjacency(features, k, sigma):
    """`knn_graph` of one block, as a dense array."""
    return knn_graph([features], k, sigma).toarray()


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
