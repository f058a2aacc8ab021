"""Joint subspace / classifier estimation.

The model couples a row-orthonormal projection of the block-stacked features
with a linear map to one-hot targets, plus a graph-alignment penalty. The
outer loop is block coordinate descent; the orthogonally-constrained
projection subproblem is solved by ADMM with an SVD projection step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .blas import single_thread
from .data import PairedDataset, StackedSystem, atomic_write, load_json, stack_system
from .errors import NumericalError, ValidationError, check_keys, check_number, check_numbers
from .graph import lda_like_adjacency, pencil


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 0.01
    beta: float = 0.01
    dim: int = 30
    outer_max_iter: int = 50
    outer_tol: float = 1e-4
    inner_max_iter: int = 500
    inner_tol: float = 1e-6
    mu0: float = 1e-3
    mu_max: float = 1e6
    rho: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            check_number(f"hyperparameter {f.name!r}", getattr(self, f.name),
                         Integral if f.type == "int" else Real)
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be nonnegative")
        if self.dim < 1:
            raise ValidationError("dim must be positive")
        if self.inner_max_iter < 1 or self.outer_max_iter < 0:
            raise ValidationError("need inner_max_iter >= 1 and outer_max_iter >= 0")
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValidationError("tolerances must be positive")
        if self.rho <= 1:
            raise ValidationError("rho must exceed 1")
        if not (0 < self.mu0 <= self.mu_max):
            raise ValidationError("need 0 < mu0 <= mu_max")


def make_hyperparams(alpha, beta, dim, overrides=None) -> Hyperparams:
    """Hyperparams from the three searched values and a JSON override block.

    The block may set every other field; a key that is unknown or that
    repeats alpha, beta or dim is a ValidationError naming it.
    """
    overrides = {} if overrides is None else overrides
    check_keys("hyperparameter override", overrides,
               {f.name for f in fields(Hyperparams)} - {"alpha", "beta", "dim"})
    return Hyperparams(alpha=alpha, beta=beta, dim=dim, **overrides)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    fidelity: float
    p_reg: float
    align: float

    @property
    def total(self):
        return self.fidelity + self.p_reg + self.align


@dataclass(frozen=True)
class AdmmResult:
    """The inner solve's G iterate with the smallest max(residual J, residual G).

    `converged`, `iterations` and both residuals describe that iterate, not
    the last one: `converged` says both its residuals are below `inner_tol`.
    `iterations_run` counts the iterations the solve ran: `inner_max_iter`
    for a capped solve, and `iterations` for a converged one.
    """

    theta: np.ndarray
    converged: bool
    iterations: int
    primal_residual_j: float
    primal_residual_g: float
    iterations_run: int


@dataclass(frozen=True)
class CoSpaceModel:
    """A fitted projection and label map.

    `converged` covers only the outer loop: the relative objective change fell
    below `outer_tol`. It says nothing about whether the inner ADMM solves
    reached `inner_tol`.
    """

    theta: np.ndarray
    p: np.ndarray
    d_m: int
    d_h: int
    num_classes: int
    hyper: Hyperparams
    objective_trace: tuple
    converged: bool
    ref_embeddings: np.ndarray | None = None
    ref_labels: np.ndarray | None = None
    ref_modalities: np.ndarray | None = None

    @property
    def theta_m(self):
        return self.theta[:, : self.d_m]

    @property
    def theta_h(self):
        return self.theta[:, self.d_m :]

    @property
    def dim(self):
        return self.theta.shape[0]


def objective(sys: StackedSystem, xlxt, p, theta, hyper) -> ObjectiveBreakdown:
    """Evaluate the data-fit, ridge, and alignment terms (no constraint penalty).

    xlxt is X L X^T from `graph.pencil`, so align = beta/2 tr(theta xlxt theta^T).
    """
    q = theta @ sys.xtilde
    if p.shape != (sys.ytilde.shape[0], theta.shape[0]):
        raise ValidationError(
            f"p has shape {p.shape}, expected "
            f"{(sys.ytilde.shape[0], theta.shape[0])}"
        )
    resid = sys.ytilde - p @ q
    fidelity = 0.5 * float(np.sum(resid**2))
    p_reg = 0.5 * hyper.alpha * float(np.sum(p**2))
    align = 0.5 * hyper.beta * float(np.trace(theta @ xlxt @ theta.T))
    return ObjectiveBreakdown(fidelity=fidelity, p_reg=p_reg, align=align)


def update_p(ytilde, q, alpha):
    """Ridge solution P = (Y Q^T)(Q Q^T + alpha I)^-1."""
    from scipy.linalg import cho_factor, cho_solve  # here, so that `predict` does not load them
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    gram = q @ q.T
    if alpha == 0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * eigs[-1]:
            raise NumericalError(
                "Q Q^T is singular with alpha=0; use alpha > 0 to regularize"
            )
    system = gram + alpha * np.eye(gram.shape[0])
    try:
        factor = cho_factor(system)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise NumericalError(f"normal equations not positive definite: {exc}") from exc
    return cho_solve(factor, (ytilde @ q.T).T).T


def factor_j_system(p):
    """Eigenpairs (s, U) of P^T P, so (P^T P + mu I)^-1 = U diag(1/(s+mu)) U^T.

    Like the ADMM updates below, it takes a stack of P over a leading axis.
    """
    return np.linalg.eigh(p.mT @ p)


def factor_theta_system(xxt, xlxt):
    """Generalized eigenpairs (lam, V) of (X L X^T, X X^T + I).

    V^T (X X^T + I) V = I and V^T X L X^T V = diag(lam), so
    (mu (X X^T + I) + beta X L X^T)^-1 = V diag(1/(mu + beta lam)) V^T.
    """
    from scipy.linalg import eigh
    return eigh(xlxt, xxt + np.eye(xxt.shape[0]))


def admm_update_j(pty, theta_x, lambda1, mu, pp_eig):
    """Closed form for the data-fit split variable.

    pty is P^T Y and pp_eig is `factor_j_system(p)`, both fixed for a solve.
    """
    if mu <= 0:
        raise ValidationError("mu must be positive")
    s, u = pp_eig
    rhs = pty + mu * theta_x - lambda1
    return u @ ((u.mT @ rhs) / (s + mu)[..., :, None])


def admm_update_theta(j, g, lambda1, lambda2, xtilde, beta, mu, gen_eig):
    """Closed form for the unconstrained projection iterate.

    gen_eig is `factor_theta_system(X X^T, X L X^T)`, fixed for a fit. For a
    stack of iterates, beta is a column of one value per slice.
    """
    if mu <= 0:
        raise ValidationError("mu must be positive")
    lam, v = gen_eig
    rhs = (mu * j + lambda1) @ xtilde.mT + mu * g + lambda2
    scale = mu + beta * lam
    if not np.isfinite(scale).all() or not np.isfinite(rhs).all():
        raise NumericalError("non-finite values in the projection update")
    return ((rhs @ v) / scale[..., None, :]) @ v.mT


def admm_update_g(theta, lambda2, mu):
    """Project theta - lambda2/mu onto row-orthonormal matrices (thin SVD)."""
    if mu <= 0:
        raise ValidationError("mu must be positive")
    m = theta - lambda2 / mu
    if not np.isfinite(m).all():
        raise NumericalError("non-finite values entering the SVD projection")
    # numpy's SVD keeps the inner loop on the one BLAS its matmuls use
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    # per slice, on Python floats: a few scalars cost less than array calls
    if any(sv[-1] <= 1e-13 * max(sv[0], 1.0) for sv in s.reshape(-1, s.shape[-1]).tolist()):
        raise NumericalError(
            "rank-deficient input to the orthogonality projection; "
            "solution would be non-unique"
        )
    return u @ vt


def admm_update_duals(lambda1, lambda2, r_j, r_g, mu, rho, mu_max):
    """Gradient-ascent dual step on the residuals J - Theta X and G - Theta,
    followed by the penalty schedule."""
    return lambda1 + mu * r_j, lambda2 + mu * r_g, min(rho * mu, mu_max)


def _norms(r):
    """Frobenius norm of each slice of a stack: the BLAS dot of the flattened
    slice, as np.linalg.norm takes it, so bit for bit a lone norm."""
    flat = r.reshape(r.shape[0], -1)
    return np.sqrt(np.vecdot(flat, flat))


def _admm_stack(requests):
    """Run inner ADMM solves in lockstep, stacked over a leading axis.

    Each request holds `solve_theta_admm`'s arguments. All share their shapes
    and `ADMM_SETTINGS`; beta may differ. Each slice stops at its own
    iteration and leaves the stack, so its AdmmResult is a lone solve's, bit
    for bit.
    """
    ps, systems, gen_eigs, hypers, warm_starts = zip(*requests)
    hyper = hypers[0]
    theta = np.stack([np.asarray(w, dtype=float) for w in warm_starts])
    if theta.shape[1:] != (hyper.dim, systems[0].xtilde.shape[0]):
        raise ValidationError("warm start has the wrong shape")
    xtilde = np.stack([sys.xtilde for sys in systems])
    lam, v = (np.stack(parts) for parts in zip(*gen_eigs))
    beta = np.array([[h.beta] for h in hypers], dtype=float)
    # the right-hand side and the J system are fixed during the solve
    p = np.stack(ps)
    pty = p.mT @ np.stack([sys.ytilde for sys in systems])
    s, u = factor_j_system(p)
    g = np.zeros_like(theta)
    lambda1 = np.zeros_like(pty)
    lambda2 = np.zeros_like(theta)
    mu = hyper.mu0
    theta_x = theta @ xtilde
    results = [None] * len(requests)
    live = list(range(len(requests)))  # the request of each slice
    # each slice's smallest max(residual J, residual G) and the AdmmResult fields
    # of its iterate
    best = [None] * len(live)
    for iteration in range(1, hyper.inner_max_iter + 1):
        j = admm_update_j(pty, theta_x, lambda1, mu, (s, u))
        theta = admm_update_theta(j, g, lambda1, lambda2, xtilde, beta, mu, (lam, v))
        g = admm_update_g(theta, lambda2, mu)
        theta_x = theta @ xtilde
        r_j = j - theta_x
        r_g = g - theta
        done = []
        # per slice, on Python floats: a few scalars cost less than array calls
        for k, (res_j, res_g) in enumerate(zip(_norms(r_j).tolist(), _norms(r_g).tolist())):
            if best[k] is None or max(res_j, res_g) < best[k][0]:
                converged = res_j < hyper.inner_tol and res_g < hyper.inner_tol
                best[k] = (max(res_j, res_g), g[k], converged, iteration, res_j, res_g)
                # an unconverged best has residuals above tol, so a converged
                # iterate always becomes the best
                if converged:
                    done.append(k)
        if iteration == hyper.inner_max_iter:
            done = range(len(live))
        if done:
            for k in done:
                _, iterate, *rest = best[k]
                results[live[k]] = AdmmResult(iterate.copy(), *rest, iteration)
            keep = [k for k in range(len(live)) if k not in done]
            if not keep:
                break
            live, best = [live[k] for k in keep], [best[k] for k in keep]
            pty, s, u, xtilde, lam, v, beta, theta_x, g, lambda1, lambda2, r_j, r_g = (
                a[keep] for a in (pty, s, u, xtilde, lam, v, beta, theta_x, g, lambda1,
                                  lambda2, r_j, r_g))
        lambda1, lambda2, mu = admm_update_duals(lambda1, lambda2, r_j, r_g, mu,
                                                 hyper.rho, hyper.mu_max)
    return results


def solve_theta_admm(p, sys: StackedSystem, gen_eig, hyper: Hyperparams,
                     warm_start) -> AdmmResult:
    """Inner ADMM loop from `warm_start`; returns the G iterate (exactly
    row-orthonormal) with the smallest primal residual. gen_eig is
    `factor_theta_system(X X^T, X L X^T)`, which a fit factors once. This is
    the stacked solve on a stack of one."""
    return _admm_stack([(p, sys, gen_eig, hyper, warm_start)])[0]


def _pca_rows(xtilde, dim):
    """Top-`dim` left singular directions of the stacked data, as rows."""
    from scipy.linalg import svd
    # the full left basis is only needed when dim exceeds the economy width
    full = dim > min(xtilde.shape)
    u, _, _ = svd(xtilde, full_matrices=full)
    return u[:, :dim].T


def _fit_steps(ds: PairedDataset, hyper: Hyperparams):
    """The BCD loop of one fit, as a generator that returns its CoSpaceModel.

    It yields each inner solve's arguments, in `solve_theta_admm`'s order, and
    is sent that solve's AdmmResult. It drops the fit's stacked system, which
    is O(D N), once set-up is done: the loop runs on the thin factor.
    """
    if ds.num_classes < 2:
        raise ValidationError("training data must contain at least 2 classes")
    sys = stack_system(ds)
    d_total = sys.d_m + sys.d_h
    if hyper.dim > d_total:
        raise ValidationError(
            f"dim={hyper.dim} exceeds d_M+d_H={d_total}; row-orthonormality "
            "is infeasible"
        )
    stacked_labels = np.concatenate([ds.labels, ds.labels])
    xlxt = pencil(sys.xtilde, lda_like_adjacency(stacked_labels))[0]
    # with Z = [Ytilde; Xtilde] and Z^T = Q R, R^T has Z's Grams, and J, Lambda1,
    # Ytilde and Theta Xtilde stay in Z's row space: the loop runs on R^T, free of N
    c = sys.ytilde.shape[0]
    r = np.linalg.qr(np.vstack([sys.ytilde, sys.xtilde]).T, mode="r")
    factor = StackedSystem(xtilde=r[:, c:].T, ytilde=r[:, :c].T, d_m=sys.d_m, d_h=sys.d_h)
    gen_eig = factor_theta_system(factor.xtilde @ factor.xtilde.T, xlxt)

    theta = _pca_rows(sys.xtilde, hyper.dim)
    del sys
    p = update_p(factor.ytilde, theta @ factor.xtilde, hyper.alpha)
    trace = [objective(factor, xlxt, p, theta, hyper).total]
    converged = False
    for _ in range(hyper.outer_max_iter):
        p = update_p(factor.ytilde, theta @ factor.xtilde, hyper.alpha)
        inner = yield p, factor, gen_eig, hyper, theta
        energy = objective(factor, xlxt, p, inner.theta, hyper).total
        if energy <= trace[-1]:
            theta = inner.theta
        else:
            # keep the previous feasible projection; the exact map update
            # alone cannot increase the objective
            energy = objective(factor, xlxt, p, theta, hyper).total
        prev = trace[-1]
        trace.append(energy)
        if prev <= 1e-15 or abs(energy - prev) / prev < hyper.outer_tol:
            converged = True
            break

    return CoSpaceModel(
        theta=theta,
        p=p,
        d_m=factor.d_m,
        d_h=factor.d_h,
        num_classes=ds.num_classes,
        hyper=hyper,
        objective_trace=tuple(trace),
        converged=converged,
        ref_embeddings=np.hstack([theta[:, :factor.d_m] @ ds.ms, theta[:, factor.d_m:] @ ds.hs]),
        ref_labels=stacked_labels,
        ref_modalities=np.array([0] * ds.num_samples + [1] * ds.num_samples),
    )


@single_thread()
def fit(ds: PairedDataset, hyper: Hyperparams) -> CoSpaceModel:
    """Alternate the ridge map update and the ADMM projection solve.

    Stops when the relative objective change drops below `outer_tol`; that
    test alone sets the model's `converged`. The reported projection is always
    the feasible SVD-projected iterate, so a candidate that fails to decrease
    the objective is rejected (descent guard). Runs on one BLAS thread, so the
    result does not depend on the thread count.
    """
    steps = _fit_steps(ds, hyper)
    try:
        request = next(steps)
        while True:
            request = steps.send(solve_theta_admm(*request))
    except StopIteration as stop:
        return stop.value


# the Hyperparams fields that a stack of inner solves shares
ADMM_SETTINGS = ("mu0", "rho", "mu_max", "inner_tol", "inner_max_iter")


@single_thread()
def fit_many(problems) -> list:
    """`fit` of each (PairedDataset, Hyperparams) problem, bit for bit.

    The fits advance in lockstep, one outer step per round. In a round, the
    inner solves that share their shapes and `ADMM_SETTINGS` run as one
    stacked ADMM, so a grid's many small fits pay numpy's per-call cost once
    per stack, not once per fit. A live fit holds its thin factor, not its
    stacked system.
    """
    steps = [_fit_steps(ds, hyper) for ds, hyper in problems]
    models = [None] * len(steps)
    sent = dict.fromkeys(range(len(steps)))  # what each live fit is sent next
    while sent:
        requests = {}
        for i, result in sent.items():
            try:
                requests[i] = steps[i].send(result)
            except StopIteration as stop:
                models[i] = stop.value
        groups = {}
        for i, (p, factor, _, hyper, _) in requests.items():
            key = (p.shape, factor.xtilde.shape, *(getattr(hyper, f) for f in ADMM_SETTINGS))
            groups.setdefault(key, []).append(i)
        sent = {}
        for members in groups.values():
            sent.update(zip(members, _admm_stack([requests[i] for i in members])))
    return models


def embed_ms(model: CoSpaceModel, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.d_m:
        raise ValidationError(f"expected {model.d_m} MS bands, got {x.shape[0]}")
    return model.theta_m @ x


def embed_hs(model: CoSpaceModel, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.d_h:
        raise ValidationError(f"expected {model.d_h} HS bands, got {x.shape[0]}")
    return model.theta_h @ x


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------


def model_to_dict(model: CoSpaceModel):
    doc = {
        "method": "cospace",
        "dim": model.dim,
        "d_m": model.d_m,
        "d_h": model.d_h,
        "num_classes": model.num_classes,
        "hyper": asdict(model.hyper),
        "theta": model.theta.tolist(),
        "p": model.p.tolist(),
        "objective_trace": list(model.objective_trace),
        "converged": model.converged,
    }
    if model.ref_embeddings is not None:
        doc["refs"] = {
            "embeddings": model.ref_embeddings.tolist(),
            "labels": model.ref_labels.tolist(),
            "modalities": model.ref_modalities.tolist(),
        }
    return doc


MODEL_KEYS = ("method", "dim", "d_m", "d_h", "num_classes", "hyper", "theta", "p",
              "objective_trace", "converged")
REF_KEYS = ("embeddings", "labels", "modalities")


def _model_array(name, value, shape, bounds=None):
    """`value` as an array, or a ValidationError unless it is a nested list of `shape` (None
    matches any nonzero length) of finite reals or, given `bounds`, of integers within them."""
    arr = np.array(value, dtype=object)
    if arr.ndim != len(shape) or arr.size == 0 or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        want = " x ".join("n" if length is None else str(length) for length in shape)
        raise ValidationError(f"model {name} must be a {want} array, got shape {arr.shape}")
    kind, dtype = (Real, float) if bounds is None else (Integral, int)
    big = np.finfo(float).max.item()  # a Python float, which compares with any int
    low, high = bounds or (-big, big)
    # in bulk when every entry is a plain int (or float) in range; the loop names the first bad one
    try:
        values = arr.astype(dtype) if set(map(type, arr.flat)) <= {int, dtype} else None
    except OverflowError:  # an int beyond int64 or float64
        values = None
    if values is None or not np.all((values >= low) & (values <= high)):
        for v in arr.flat:
            check_number(f"model {name} entry", v, kind)
            if not low <= v <= high:
                raise ValidationError(f"model {name} entry must be in [{low:g}, {high:g}], "
                                      f"got {v!r}")
    return values


def model_from_dict(doc) -> CoSpaceModel:
    check_keys("model", doc, (*MODEL_KEYS, "refs"), required=MODEL_KEYS)
    if doc["method"] != "cospace":
        raise ValidationError(f"model method must be 'cospace', got {doc['method']!r}")
    check_keys("model hyper", doc["hyper"], [f.name for f in fields(Hyperparams)])
    for key in ("dim", "d_m", "d_h", "num_classes"):
        check_number(f"model {key}", doc[key], Integral)
        if doc[key] < 1:
            raise ValidationError(f"model {key} must be positive, got {doc[key]}")
    check_numbers("model objective_trace", doc["objective_trace"], Real)
    if not isinstance(doc["converged"], bool):
        raise ValidationError(f"model converged must be true or false, got {doc['converged']!r}")
    refs, emb, labels, modalities = doc.get("refs"), None, None, None
    if refs is not None:
        check_keys("model refs", refs, REF_KEYS, required=REF_KEYS)
        emb = _model_array("refs.embeddings", refs["embeddings"], (doc["dim"], None))
        labels = _model_array("refs.labels", refs["labels"], emb.shape[1:],
                              (1, doc["num_classes"]))
        modalities = _model_array("refs.modalities", refs["modalities"], emb.shape[1:], (0, 1))
    return CoSpaceModel(
        theta=_model_array("theta", doc["theta"], (doc["dim"], doc["d_m"] + doc["d_h"])),
        p=_model_array("p", doc["p"], (doc["num_classes"], doc["dim"])),
        d_m=doc["d_m"],
        d_h=doc["d_h"],
        num_classes=doc["num_classes"],
        hyper=Hyperparams(**doc["hyper"]),
        objective_trace=tuple(doc["objective_trace"]),
        converged=doc["converged"],
        ref_embeddings=emb,
        ref_labels=labels,
        ref_modalities=modalities,
    )


def save_model(path, model: CoSpaceModel):
    atomic_write(path, json.dumps(model_to_dict(model), sort_keys=True))


def load_model(path) -> CoSpaceModel:
    return model_from_dict(load_json(path))
