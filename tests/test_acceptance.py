"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS line when its assertions hold; a failing
assertion marks the criterion red with the offending values in the message.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from cospace import baselines, classify, cli, experiment, graph, metrics, solver
from cospace.data import PairedDataset, SceneSpec, make_synthetic_scene, stack_system
from cospace.graph import laplacian, lda_like_adjacency

REPO = pathlib.Path(__file__).resolve().parent.parent


def _random_dataset(rng):
    num_classes = int(rng.integers(2, 5))
    n_per_class = int(rng.integers(5, 26))
    d_m = int(rng.integers(2, 9))
    d_h = int(rng.integers(4, 41))
    labels = np.repeat(np.arange(1, num_classes + 1), n_per_class)
    shift = rng.standard_normal((d_h, num_classes))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((d_h, labels.size))
    srf = rng.random((d_m, d_h))
    srf /= srf.sum(axis=1, keepdims=True)
    # independent sensor noise keeps the stacked data full-rank even when
    # d_M exceeds d_H
    ms = srf @ hs + 0.05 * rng.standard_normal((d_m, labels.size))
    ds = PairedDataset(ms=ms, hs=hs, labels=labels, num_classes=num_classes)
    dim = int(rng.integers(2, min(10, d_m + d_h) + 1))
    return ds, dim


def _passed(num, message):
    print(f"PASS criterion {num}: {message}")


def test_criterion_01_published_results_out_of_scope():
    # The published table-scale accuracies rely on non-redistributable scene
    # data and an external ensemble classifier; nothing in this repository
    # claims to reproduce them. The remaining criteria cover the pipeline
    # with property-based substitutes.
    _passed(1, "published benchmark-dataset results are explicitly out of scope")


@pytest.fixture(scope="module")
def hundred_fits():
    models = []
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ds, dim = _random_dataset(rng)
        hyper = solver.Hyperparams(alpha=0.1, beta=0.01, dim=dim)
        models.append(solver.fit(ds, hyper))
    return models, time.perf_counter() - start


def test_criterion_02_monotone_bcd_descent(hundred_fits):
    models, elapsed = hundred_fits
    worst = 0.0
    for model in models:
        trace = np.asarray(model.objective_trace)
        rises = np.diff(trace) / np.maximum(trace[:-1], 1e-30)
        worst = max(worst, float(rises.max(initial=0.0)))
    assert worst <= 1e-9, f"objective rose by relative {worst:.3e}"
    assert elapsed < 60.0, f"100 fits took {elapsed:.1f} s (budget 60 s)"
    _passed(2, f"100 seeded fits monotone (worst rise {worst:.1e}, {elapsed:.1f} s)")


def test_criterion_03_orthogonality(hundred_fits, monkeypatch):
    models, _ = hundred_fits
    worst_final = max(
        float(np.linalg.norm(m.theta @ m.theta.T - np.eye(m.dim)))
        for m in models
    )
    assert worst_final <= 1e-10, f"final ||ΘΘᵀ−I||_F = {worst_final:.3e}"

    # every inner SVD-projection output must also be row-orthonormal
    records = []
    original = solver.admm_update_g

    def spy(theta, lambda2, mu):
        g = original(theta, lambda2, mu)
        # a stack of iterates over a leading axis (a fit passes a stack of one)
        records.extend(np.linalg.norm(g @ g.mT - np.eye(g.shape[-2]), axis=(-2, -1)).ravel())
        return g

    monkeypatch.setattr(solver, "admm_update_g", spy)
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        ds, dim = _random_dataset(rng)
        solver.fit(ds, solver.Hyperparams(alpha=0.1, beta=0.01, dim=dim))
    assert records, "no inner projection calls observed"
    worst_inner = max(records)
    assert worst_inner <= 1e-10, f"inner ||GGᵀ−I||_F = {worst_inner:.3e}"
    _passed(3, f"orthogonality held (final {worst_final:.1e}, "
               f"inner {worst_inner:.1e} over {len(records)} updates)")


def test_criterion_04_admm_feasibility_at_convergence():
    rng = np.random.default_rng(42)
    checked = 0
    for seed in range(5):
        ds, _ = _random_dataset(np.random.default_rng(2000 + seed))
        sys = stack_system(ds)
        xlxt, _ = graph.pencil(sys.xtilde,
                               lda_like_adjacency(np.concatenate([ds.labels, ds.labels])))
        hyper = solver.Hyperparams(alpha=0.1, beta=0.01, dim=2,
                                   inner_max_iter=3000)
        theta0 = solver._pca_rows(sys.xtilde, 2)
        p = solver.update_p(sys.ytilde, theta0 @ sys.xtilde, hyper.alpha)
        gen_eig = solver.factor_theta_system(sys.xtilde @ sys.xtilde.T, xlxt)
        out = solver.solve_theta_admm(p, sys, gen_eig, hyper, warm_start=theta0)
        if out.converged:
            checked += 1
            assert out.primal_residual_j < 1e-6, out.primal_residual_j
            assert out.primal_residual_g < 1e-6, out.primal_residual_g
    assert checked > 0, "no run reached the convergence flag"
    _passed(4, f"both primal residuals < 1e-6 on {checked} converged runs")


def _fd_check(value_fn, grad, point, rng, step=1e-5, rel=1e-4, coords=5):
    flat_grad = grad.ravel()
    idx = rng.choice(point.size, size=min(coords, point.size), replace=False)
    for i in idx:
        if abs(flat_grad[i]) < 1e-6:
            continue
        plus = point.copy().ravel()
        minus = point.copy().ravel()
        plus[i] += step
        minus[i] -= step
        fd = (value_fn(plus.reshape(point.shape))
              - value_fn(minus.reshape(point.shape))) / (2 * step)
        assert abs(fd - flat_grad[i]) / max(abs(flat_grad[i]), 1e-6) < rel, (
            f"coordinate {i}: fd {fd} vs analytic {flat_grad[i]}"
        )


def test_criterion_05_closed_form_updates():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        L, dim, n2, d_total = 3, 2, 8, 5
        ytilde = rng.standard_normal((L, n2))
        q = rng.standard_normal((dim, n2))
        alpha = float(rng.uniform(0.05, 2.0))
        p = solver.update_p(ytilde, q, alpha)
        resid = np.linalg.norm(-(ytilde - p @ q) @ q.T + alpha * p)
        assert resid <= 1e-8, f"update_p stationarity {resid:.3e}"
        p0 = rng.standard_normal(p.shape)

        def f_p(pm):
            return (0.5 * np.sum((ytilde - pm @ q) ** 2)
                    + 0.5 * alpha * np.sum(pm**2))

        _fd_check(f_p, -(ytilde - p0 @ q) @ q.T + alpha * p0, p0, rng)

        pm = rng.standard_normal((L, dim))
        theta_x = rng.standard_normal((dim, n2))
        lambda1 = rng.standard_normal((dim, n2))
        mu = float(rng.uniform(0.2, 5.0))
        j = solver.admm_update_j(pm.T @ ytilde, theta_x, lambda1, mu,
                                 solver.factor_j_system(pm))
        grad_j = -pm.T @ (ytilde - pm @ j) + lambda1 + mu * (j - theta_x)
        assert np.linalg.norm(grad_j) <= 1e-8

        j0 = rng.standard_normal(j.shape)

        def f_j(jm):
            return (0.5 * np.sum((ytilde - pm @ jm) ** 2)
                    + np.sum(lambda1 * (jm - theta_x))
                    + 0.5 * mu * np.sum((jm - theta_x) ** 2))

        _fd_check(f_j, -pm.T @ (ytilde - pm @ j0) + lambda1 + mu * (j0 - theta_x),
                  j0, rng)

        xtilde = rng.standard_normal((d_total, n2))
        w = rng.random((n2, n2))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        lap = laplacian(w).lap
        g = rng.standard_normal((dim, d_total))
        lambda2 = rng.standard_normal((dim, d_total))
        beta = float(rng.uniform(0.01, 1.0))
        jm = rng.standard_normal((dim, n2))
        gen_eig = solver.factor_theta_system(xtilde @ xtilde.T,
                                             graph.pencil(xtilde, w)[0])
        theta = solver.admm_update_theta(jm, g, lambda1, lambda2, xtilde, beta,
                                         mu, gen_eig)

        def grad_theta(t):
            qx = t @ xtilde
            return (beta * qx @ lap @ xtilde.T
                    - lambda1 @ xtilde.T - mu * (jm - qx) @ xtilde.T
                    - lambda2 - mu * (g - t))

        assert np.linalg.norm(grad_theta(theta)) <= 1e-8

        t0 = rng.standard_normal(theta.shape)

        def f_theta(t):
            qx = t @ xtilde
            return (0.5 * beta * np.trace(qx @ lap @ qx.T)
                    + np.sum(lambda1 * (jm - qx))
                    + 0.5 * mu * np.sum((jm - qx) ** 2)
                    + np.sum(lambda2 * (g - t))
                    + 0.5 * mu * np.sum((g - t) ** 2))

        _fd_check(f_theta, grad_theta(t0), t0, rng)
    _passed(5, "stationarity <= 1e-8 and finite differences agree on "
               "20 instances per update")


def test_criterion_06_procrustes_angle_grid_oracle():
    angles = np.arange(0.0, 2 * np.pi, 1e-4)
    c, s = np.cos(angles), np.sin(angles)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2, 2))
        g = solver.admm_update_g(m.copy(), np.zeros((2, 2)), mu=1.0)
        achieved = float(np.trace(g.T @ m))
        # tr(GᵀM) over rotations and reflections, parameterized by angle
        rot = c * (m[0, 0] + m[1, 1]) + s * (m[1, 0] - m[0, 1])
        ref = c * (m[0, 0] - m[1, 1]) + s * (m[0, 1] + m[1, 0])
        brute = float(max(rot.max(), ref.max()))
        assert achieved >= brute - 1e-4, f"{achieved} < grid max {brute}"
        assert achieved <= brute + 1e-4
    _passed(6, "SVD projection matches the angle-grid maximizer of tr(GᵀM) "
               "on 50 random 2x2 inputs")


def test_criterion_07_graph_correctness():
    rng = np.random.default_rng(3)
    for n in (2, 5, 11, 20):
        w = rng.random((n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = laplacian(w)
        f = rng.standard_normal((3, n))
        brute = 0.0
        for i in range(n):
            for j in range(n):
                brute += 0.5 * w[i, j] * float(np.sum((f[:, i] - f[:, j]) ** 2))
        form = float(np.trace(f @ g.lap @ f.T))
        assert abs(form - brute) <= 1e-10 * max(1.0, abs(brute))

    for seed in range(10):
        labels = np.random.default_rng(seed).integers(1, 5, 14)
        w = graph.lda_like_adjacency(labels)
        direct = np.zeros((14, 14))
        for i in range(14):
            for j in range(14):
                if i != j and labels[i] == labels[j]:
                    direct[i, j] = 1.0 / np.sum(labels == labels[j])
        assert np.array_equal(w, direct)
    _passed(7, "Laplacian quadratic form and supervised adjacency match "
               "brute-force constructions")


def test_criterion_08_metric_hand_examples():
    cm = [[2, 0], [1, 1]]
    assert metrics.kappa(cm) == 0.5
    assert metrics.overall_accuracy(cm) == 0.75
    assert metrics.average_accuracy(cm) == 0.75
    assert metrics.per_class_accuracy(cm).tolist() == [1.0, 0.5]
    assert metrics.kappa([[3, 0], [0, 2]]) == 1.0
    assert metrics.kappa([[1, 1], [1, 1]]) == 0.0
    assert metrics.confusion_matrix([1, 1, 2, 2], [1, 1, 1, 2], 2).tolist() == cm
    _passed(8, "kappa/OA/AA hand examples reproduced exactly")


def test_criterion_09_transfer_gain_on_shipped_scene():
    spec = SceneSpec.from_json((REPO / "data" / "metamer_scene.json").read_text())
    ds, test_ms, test_labels = make_synthetic_scene(spec)

    def oa(method, params):
        fitted = experiment.fit_method(ds, method, params)
        pred = classify.knn1_predict(fitted.references, fitted.embed_ms(test_ms))
        return float(np.mean(pred == test_labels))

    base = oa("baseline", {})
    lsma = oa("lsma", {"dim": 4})
    cospace = oa("cospace", {"dim": 4, "alpha": 0.1, "beta": 0.01})
    assert 0.55 <= base <= 0.75, f"baseline OA {base:.4f} outside [0.55, 0.75]"
    assert cospace - base >= 0.10, (
        f"gain {cospace - base:.4f} below 10 percentage points"
    )
    assert base < lsma < cospace, (
        f"ordering violated: baseline {base:.4f}, lsma {lsma:.4f}, "
        f"cospace {cospace:.4f}"
    )
    _passed(9, f"baseline {base:.4f} < lsma {lsma:.4f} < cospace {cospace:.4f} "
               f"(gain {cospace - base:.4f})")


def test_criterion_10_baseline_eigensolvers():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 2 if seed % 2 == 0 else 3
        x = rng.standard_normal((n, n)) + n * np.eye(n)
        w = rng.random((n, n)) + 0.1
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = laplacian(w)
        proj = baselines.fit_lpp(1, graph.pencil(x, w), n)
        a = x @ g.lap @ x.T
        b = x @ g.d @ x.T
        a = 0.5 * (a + a.T)
        b = 0.5 * (b + b.T)
        floor = 1e-9 * max(np.trace(b) / n, 1e-30)
        b = b + floor * np.eye(n)
        # independent oracle: ordinary eigendecomposition of B^{-1} A
        evals, evecs = np.linalg.eig(np.linalg.inv(b) @ a)
        order = np.argsort(evals.real)
        evals = evals.real[order]
        got = np.asarray(proj.params["eigenvalues"])
        assert np.allclose(got, evals, atol=1e-8), f"{got} vs {evals}"
        for v, lam in zip(proj.theta, got):
            res = np.linalg.norm(a @ v - lam * b @ v)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(a)), res

    rng = np.random.default_rng(99)
    axis = rng.standard_normal(6)
    axis /= np.linalg.norm(axis)
    scores = rng.standard_normal(2000) * 8.0
    noise = rng.standard_normal((6, 2000)) * 0.3
    x = axis[:, None] * scores[None, :] + noise
    centered = x - x.mean(axis=1, keepdims=True)
    proj = baselines.fit_pjdr(3, centered @ centered.T, 1)
    cos = abs(float(proj.theta[0] @ axis))
    assert cos >= 0.999, f"cos angle {cos:.6f}"
    _passed(10, f"pencil oracle matched to 1e-8; planted axis cos {cos:.5f}")


def test_criterion_11_benchmark_determinism(tmp_path):
    spec = SceneSpec.from_json((REPO / "data" / "metamer_scene.json").read_text())
    config = {
        "dataset": {"scene_spec": json.loads(spec.to_json())},
        "methods": ["baseline", "lsma", "cospace"],
        "grid": {"dims": [4], "alphas": [0.1], "betas": [0.01],
                 "ks": [5], "sigmas": [1.0], "folds": 3},
        "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for name in ("run_a", "run_b"):
        assert cli.main(["benchmark", "--config", str(config_path),
                         "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "run_a" / "results.json").read_bytes()
    b = (tmp_path / "run_b" / "results.json").read_bytes()
    assert a == b, "results.json differs between identical runs"
    _passed(11, "repeated benchmark runs produced byte-identical results.json")


def test_criterion_12_performance_envelope():
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2, 3, 4, 5], 100)
    shift = rng.standard_normal((60, 5))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((60, 500))
    srf = rng.random((10, 60))
    srf /= srf.sum(axis=1, keepdims=True)
    ds = PairedDataset(ms=srf @ hs, hs=hs, labels=labels, num_classes=5)
    start = time.perf_counter()
    solver.fit(ds, solver.Hyperparams(dim=20))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"fit took {elapsed:.2f} s (budget 10 s)"
    _passed(12, f"N=500, d_M=10, d_H=60, d=20 fit in {elapsed:.2f} s")
