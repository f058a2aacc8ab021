"""Correctness checks that recompute each output apart from the program.

Every check takes plain arrays (or parsed JSON) and raises `CheckFailed`
when an output is wrong. The recomputations use numpy and scipy directly
and call no function of `cospace`, so a fault in the program cannot hide
itself by also being in its check.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


def _close(got, want, rel, what):
    if not abs(got - want) <= rel * max(abs(want), 1.0):
        raise CheckFailed(f"{what}: program {got!r}, recomputed {want!r}")


# ---------------------------------------------------------------------------
# Shared pieces of the model, built without the program.
# ---------------------------------------------------------------------------


def stack_pairs(ms, hs):
    """Block-diagonal [[MS, 0], [0, HS]] of shape (d_M + d_H) x 2N."""
    d_m, n = ms.shape
    x = np.zeros((d_m + hs.shape[0], 2 * n))
    x[:d_m, :n] = ms
    x[d_m:, n:] = hs
    return x


def stacked_onehot(labels, num_classes):
    y = np.zeros((num_classes, labels.size))
    y[labels - 1, np.arange(labels.size)] = 1.0
    return np.hstack([y, y])


def class_centred(q, labels):
    """Columns of q minus the mean of their class."""
    out = np.array(q, dtype=float)
    for k in np.unique(labels):
        cols = labels == k
        out[:, cols] -= out[:, cols].mean(axis=1, keepdims=True)
    return out


def cospace_objective(x, y, labels2, p, theta, alpha, beta):
    """Ridge fit + alpha term + beta/2 * sum_i |q_i - mu_class(i)|^2.

    The supervised 1/N_k Laplacian is I - blockdiag(11^T / N_k), so its
    trace term is the within-class scatter of the embedded samples.
    """
    q = theta @ x
    fidelity = 0.5 * float(np.sum((y - p @ q) ** 2))
    p_reg = 0.5 * alpha * float(np.sum(p**2))
    align = 0.5 * beta * float(np.sum(class_centred(q, labels2) ** 2))
    return fidelity + p_reg + align


def pca_start_objective(x, y, labels2, dim, alpha, beta):
    """Objective at Theta = top-`dim` left singular rows and its ridge P."""
    u, _, _ = np.linalg.svd(x, full_matrices=dim > min(x.shape))
    theta = u[:, :dim].T
    q = theta @ x
    p = np.linalg.solve(q @ q.T + alpha * np.eye(dim), q @ y.T).T
    return cospace_objective(x, y, labels2, p, theta, alpha, beta)


# ---------------------------------------------------------------------------
# Fits.
# ---------------------------------------------------------------------------


def check_cospace_fit(ms, hs, labels, num_classes, alpha, beta, theta, p, trace):
    """Check a CoSpace fit; return True when it ended below its PCA start.

    The trace must not increase (relative 1e-9), Theta must be row-
    orthonormal to 1e-8, and the first and last trace values must equal the
    objective recomputed at the PCA start and at the returned (P, Theta).
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size < 1 or not np.all(np.isfinite(trace)):
        raise CheckFailed(f"objective trace is empty or not finite: {trace}")
    rises = np.nonzero(trace[1:] > trace[:-1] + 1e-9 * np.abs(trace[:-1]))[0]
    if rises.size:
        i = int(rises[0])
        raise CheckFailed(f"objective rose at step {i + 1}: {trace[i]!r} -> {trace[i + 1]!r}")
    theta = np.asarray(theta, dtype=float)
    gram_err = float(np.max(np.abs(theta @ theta.T - np.eye(theta.shape[0]))))
    if gram_err > 1e-8:
        raise CheckFailed(f"Theta Theta^T differs from I by {gram_err:.3e}")
    x = stack_pairs(ms, hs)
    y = stacked_onehot(labels, num_classes)
    labels2 = np.concatenate([labels, labels])
    final = cospace_objective(x, y, labels2, np.asarray(p, dtype=float), theta,
                              alpha, beta)
    _close(float(trace[-1]), final, 1e-8, "final objective")
    start = pca_start_objective(x, y, labels2, theta.shape[0], alpha, beta)
    _close(float(trace[0]), start, 1e-8, "objective at the PCA start")
    return final < start - 1e-9 * abs(start)


def supervised_pencil(x, labels2):
    """(X L X^T, X D X^T) of the 1/N_k same-class graph, from class means."""
    counts = np.bincount(labels2)[labels2].astype(float)
    xc = class_centred(x, labels2)
    return xc @ xc.T, (x * (1.0 - 1.0 / counts)) @ x.T


def knn_pencil(x, k, sigma, block=512):
    """(X L X^T, X D X^T) of the union-symmetrized heat-kernel kNN graph.

    Distances are summed differences (not the Gram expansion); neighbours
    are taken in stable index order, and the graph is kept sparse.
    """
    cols = x.T
    n = cols.shape[0]
    rows, nbrs = [], []
    for start in range(0, n, block):
        d2 = cdist(cols[start:start + block], cols, "sqeuclidean")
        d2[np.arange(d2.shape[0]), np.arange(start, start + d2.shape[0])] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        rows.append(np.repeat(np.arange(start, start + d2.shape[0]), k))
        nbrs.append(order.ravel())
    rows = np.concatenate(rows)
    nbrs = np.concatenate(nbrs)
    pairs = np.unique(np.concatenate([np.stack([rows, nbrs], 1),
                                      np.stack([nbrs, rows], 1)]), axis=0)
    d2 = np.sum((cols[pairs[:, 0]] - cols[pairs[:, 1]]) ** 2, axis=1)
    w = sparse.csr_matrix((np.exp(-d2 / (2.0 * sigma**2)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    deg = np.asarray(w.sum(axis=1)).ravel()
    b = (x * deg) @ x.T
    return b - x @ (w @ cols), b


def check_pencil(theta, eigenvalues, a, b):
    """Each row v of Theta and its lambda satisfy A v = lambda (B + floor I) v,
    and the lambdas are the smallest of the pencil."""
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    b = b + 1e-9 * max(np.trace(b) / b.shape[0], 1e-30) * np.eye(b.shape[0])
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (theta.shape[0],):
        raise CheckFailed(f"{lam.size} eigenvalues for {theta.shape[0]} rows")
    norm_a = np.linalg.norm(a, 2)
    norm_b = np.linalg.norm(b, 2)
    for i, (v, l) in enumerate(zip(theta, lam)):
        res = np.linalg.norm(a @ v - l * (b @ v))
        if res > 1e-8 * (norm_a + abs(l) * norm_b) * np.linalg.norm(v):
            raise CheckFailed(f"row {i} misses its pencil: residual {res:.3e}")
    chol = np.linalg.cholesky(b)
    c = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    smallest = np.linalg.eigvalsh(0.5 * (c + c.T))[: lam.size]
    scale = max(float(np.max(np.abs(smallest))), 1e-30)
    err = float(np.max(np.abs(lam - smallest)))
    if err > 1e-6 * scale:
        raise CheckFailed(f"eigenvalues are not the smallest of the pencil "
                          f"(max difference {err:.3e})")


# ---------------------------------------------------------------------------
# Classifiers and metrics.
# ---------------------------------------------------------------------------


def check_folds(splits, n, folds):
    """Validation blocks partition range(n) and each train set is the rest."""
    if len(splits) != folds:
        raise CheckFailed(f"{len(splits)} folds, expected {folds}")
    everyone = np.arange(n)
    vals = np.sort(np.concatenate([np.asarray(v) for _, v in splits]))
    if not np.array_equal(vals, everyone):
        raise CheckFailed("validation blocks do not partition the training set")
    for i, (train, val) in enumerate(splits):
        if not np.array_equal(np.sort(train), np.setdiff1d(everyone, val)):
            raise CheckFailed(f"fold {i}: train is not the complement of validation")
        if abs(len(val) - n / folds) >= 1:
            raise CheckFailed(f"fold {i}: {len(val)} validation samples of {n}")


def check_report(report, truth, predicted, num_classes, what):
    """OA, AA, kappa and the confusion matrix equal a recomputation."""
    truth = np.asarray(truth, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if truth.shape != predicted.shape:
        raise CheckFailed(f"{what}: {predicted.size} predictions for {truth.size} samples")
    cm = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(cm, (truth - 1, predicted - 1), 1)
    if not np.array_equal(np.asarray(report["confusion"]), cm):
        raise CheckFailed(f"{what}: confusion matrix differs")
    n = cm.sum()
    rows = cm.sum(axis=1)
    oa = np.trace(cm) / n
    aa = float(np.mean(np.diag(cm)[rows > 0] / rows[rows > 0]))
    p_e = float(np.sum(rows * cm.sum(axis=0))) / (n * n)
    kappa = (oa - p_e) / (1.0 - p_e)
    _close(report["oa"], float(oa), 1e-12, f"{what}: OA")
    _close(report["aa"], aa, 1e-12, f"{what}: AA")
    # the program reports kappa rounded to 4 decimals
    if not abs(report["kappa"] - kappa) <= 5e-5 + 1e-12:
        raise CheckFailed(f"{what}: kappa {report['kappa']!r}, recomputed {kappa!r}")


def nearest_labels(refs, ref_labels, queries, block=8192):
    """Brute-force 1-NN labels and squared distances (first minimum wins)."""
    labels = np.empty(queries.shape[1], dtype=int)
    best = np.empty(queries.shape[1])
    for start in range(0, queries.shape[1], block):
        d2 = cdist(queries[:, start:start + block].T, refs.T, "sqeuclidean")
        idx = np.argmin(d2, axis=1)
        labels[start:start + block] = ref_labels[idx]
        best[start:start + block] = d2[np.arange(idx.size), idx]
    return labels, best


def check_knn1(model_doc, queries, predicted):
    """The CLI's 1-NN labels equal a brute-force search over the model's refs.

    A differing label passes only when a reference of the predicted label
    lies at the nearest distance to relative 1e-9 (a round-off tie).
    """
    theta = np.asarray(model_doc["theta"], dtype=float)
    emb = theta[:, : int(model_doc["d_m"])] @ queries
    refs = np.asarray(model_doc["refs"]["embeddings"], dtype=float)
    ref_labels = np.asarray(model_doc["refs"]["labels"], dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if predicted.shape != (queries.shape[1],):
        raise CheckFailed(f"{predicted.size} predictions for {queries.shape[1]} queries")
    want, best = nearest_labels(refs, ref_labels, emb)
    for j in np.nonzero(want != predicted)[0]:
        same = ref_labels == predicted[j]
        d2 = cdist(emb[:, j][None, :], refs[:, same].T, "sqeuclidean")
        if d2.size == 0 or d2.min() > best[j] * (1 + 1e-9) + 1e-300:
            raise CheckFailed(f"query {j}: 1-NN label {predicted[j]}, brute force {want[j]}")


def check_linear(model_doc, queries, predicted, lam):
    """The CLI's linear labels equal the argmax of a ridge fit (with an
    unregularized bias) to the model's refs, solved apart.

    A differing label passes only when its score ties the best to relative
    1e-9.
    """
    theta = np.asarray(model_doc["theta"], dtype=float)
    emb = theta[:, : int(model_doc["d_m"])] @ queries
    refs = np.asarray(model_doc["refs"]["embeddings"], dtype=float)
    ref_labels = np.asarray(model_doc["refs"]["labels"], dtype=int)
    num_classes = int(model_doc["num_classes"])
    predicted = np.asarray(predicted, dtype=int)
    if predicted.shape != (queries.shape[1],):
        raise CheckFailed(f"{predicted.size} predictions for {queries.shape[1]} queries")
    z = np.vstack([refs, np.ones((1, refs.shape[1]))])
    onehot = np.zeros((num_classes, refs.shape[1]))
    onehot[ref_labels - 1, np.arange(refs.shape[1])] = 1.0
    reg = lam * np.eye(z.shape[0])
    reg[-1, -1] = 0.0
    weights = np.linalg.solve(z @ z.T + reg, z @ onehot.T).T
    scores = weights @ np.vstack([emb, np.ones((1, emb.shape[1]))])
    want = np.argmax(scores, axis=0) + 1
    for j in np.nonzero(want != predicted)[0]:
        col = scores[:, j]
        if not 1 <= predicted[j] <= num_classes or (
                col[predicted[j] - 1] < col.max() - 1e-9 * max(np.abs(col).max(), 1.0)):
            raise CheckFailed(f"query {j}: linear label {predicted[j]}, recomputed {want[j]}")


def check_beats(better, worse, what):
    if not better > worse:
        raise CheckFailed(f"{what}: {better!r} does not beat {worse!r}")
