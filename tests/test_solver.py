import dataclasses
import json
from numbers import Integral, Real

import numpy as np
import pytest

from cospace import solver
from cospace.data import PairedDataset, StackedSystem, stack_system
from cospace.errors import NumericalError, ValidationError, check_number
from cospace.graph import laplacian, lda_like_adjacency, pencil


def _zero_graph_xlxt(xtilde):
    return pencil(xtilde, np.zeros((xtilde.shape[1], xtilde.shape[1])))[0]


def _toy_dataset(seed=0, n_per_class=8, d_m=3, d_h=6, num_classes=2):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, num_classes + 1), n_per_class)
    shift = rng.standard_normal((d_h, num_classes))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((d_h, labels.size))
    srf = rng.random((d_m, d_h))
    srf /= srf.sum(axis=1, keepdims=True)
    return PairedDataset(ms=srf @ hs, hs=hs, labels=labels,
                         num_classes=num_classes)


class TestObjective:
    def test_hand_example(self):
        sys = StackedSystem(xtilde=np.array([[1.0, 1.0]]),
                            ytilde=np.array([[2.0, 2.0]]), d_m=1, d_h=0)
        hyper = solver.Hyperparams(alpha=2.0, beta=0.0, dim=1)
        out = solver.objective(sys, _zero_graph_xlxt(sys.xtilde), np.array([[1.0]]),
                               np.array([[1.0]]), hyper)
        assert out.fidelity == pytest.approx(1.0)
        assert out.p_reg == pytest.approx(1.0)
        assert out.align == 0.0
        assert out.total == pytest.approx(2.0)

    def test_align_matches_pairwise_sum(self):
        rng = np.random.default_rng(1)
        ds = _toy_dataset(3, n_per_class=4)
        sys = stack_system(ds)
        w = lda_like_adjacency(np.concatenate([ds.labels, ds.labels]))
        theta = solver._pca_rows(sys.xtilde, 3)
        p = rng.standard_normal((2, 3))
        hyper = solver.Hyperparams(alpha=0.0, beta=2.0, dim=3)
        out = solver.objective(sys, pencil(sys.xtilde, w)[0], p, theta, hyper)
        q = theta @ sys.xtilde
        brute = 0.0
        for i in range(q.shape[1]):
            for j in range(q.shape[1]):
                brute += 0.5 * w[i, j] * float(np.sum((q[:, i] - q[:, j]) ** 2))
        # align = (beta/2) * tr(Q L Q^T) and the trace equals the pairwise sum
        assert out.align == pytest.approx(0.5 * hyper.beta * brute, rel=1e-10)

    def test_shape_mismatch(self):
        sys = StackedSystem(xtilde=np.ones((2, 4)), ytilde=np.ones((2, 4)),
                            d_m=1, d_h=1)
        hyper = solver.Hyperparams(dim=1)
        with pytest.raises(ValidationError):
            solver.objective(sys, _zero_graph_xlxt(sys.xtilde), np.ones((3, 1)),
                             np.ones((1, 2)), hyper)


class TestUpdateP:
    def test_hand_oracle_2x2(self):
        ytilde = np.eye(2)
        q = np.array([[1.0, 1.0], [0.0, 1.0]])
        p = solver.update_p(ytilde, q, alpha=1.0)
        assert np.allclose(p, [[0.4, -0.2], [0.2, 0.4]], atol=1e-12)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(8)
        ytilde = rng.standard_normal((3, 10))
        q = rng.standard_normal((4, 10))
        p = solver.update_p(ytilde, q, alpha=0.5)
        oracle = (ytilde @ q.T) @ np.linalg.inv(q @ q.T + 0.5 * np.eye(4))
        assert np.allclose(p, oracle, atol=1e-10)

    def test_stationarity(self):
        # gradient of the ridge objective must vanish at the update
        rng = np.random.default_rng(12)
        ytilde = rng.standard_normal((2, 9))
        q = rng.standard_normal((3, 9))
        alpha = 0.2
        p = solver.update_p(ytilde, q, alpha)
        grad = -(ytilde - p @ q) @ q.T + alpha * p
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_singular_without_ridge(self):
        q = np.zeros((2, 5))
        with pytest.raises(NumericalError, match="alpha"):
            solver.update_p(np.ones((2, 5)), q, alpha=0.0)

    def test_negative_alpha(self):
        with pytest.raises(ValidationError):
            solver.update_p(np.eye(2), np.eye(2), alpha=-1.0)

    def test_unregularized_solve_scales_with_q(self):
        # P = Y Q^T (Q Q^T)^-1, so P(s Q) = P(Q) / s; QQ^T's eigenvalues here are
        # of order 10, so an absolute floor of 1e-12 would call 1e-7 Q singular
        rng = np.random.default_rng(13)
        ytilde = rng.standard_normal((2, 12))
        q = rng.standard_normal((3, 12))
        assert np.allclose(solver.update_p(ytilde, 1e-7 * q, 0.0),
                           1e7 * solver.update_p(ytilde, q, 0.0), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_singular_at_any_scale(self, scale):
        q = np.random.default_rng(14).standard_normal((3, 12))
        q[2] = q[0]
        with pytest.raises(NumericalError, match="alpha"):
            solver.update_p(np.ones((2, 12)), scale * q, alpha=0.0)


def _fit_with_spy(monkeypatch, ds, hyper):
    """Fit, and return the model and the system of each inner solve."""
    seen = []
    inner = solver.solve_theta_admm

    def spy(p, sys, *args, **kwargs):
        seen.append(sys)
        return inner(p, sys, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(solver, "solve_theta_admm", spy)
        model = solver.fit(ds, hyper)
    return model, seen


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _j_update(p, ytilde, theta_x, lambda1, mu):
    return solver.admm_update_j(p.T @ ytilde, theta_x, lambda1, mu,
                                solver.factor_j_system(p))


def _gen_eig(sys, xlxt):
    return solver.factor_theta_system(sys.xtilde @ sys.xtilde.T, xlxt)


def _theta_update(j, g, lambda1, lambda2, xtilde, xlxt, beta, mu):
    gen_eig = solver.factor_theta_system(xtilde @ xtilde.T, xlxt)
    return solver.admm_update_theta(j, g, lambda1, lambda2, xtilde, beta, mu,
                                    gen_eig)


class TestAdmmUpdates:
    def test_stacked_norms_are_lone_norms(self):
        # bit for bit what np.linalg.norm gives one slice, which a lone solve used
        r = np.random.default_rng(5).standard_normal((7, 4, 53)) * np.logspace(-8, 3, 53)
        assert solver._norms(r).tolist() == [float(np.linalg.norm(s)) for s in r]

    def test_j_scalar(self):
        j = _j_update(np.array([[1.0]]), np.array([[3.0]]),
                      np.array([[1.0]]), np.array([[0.0]]), mu=1.0)
        assert j[0, 0] == pytest.approx(2.0)

    def test_j_stationarity(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((2, 3))
        ytilde = rng.standard_normal((2, 6))
        theta_x = rng.standard_normal((3, 6))
        lambda1 = rng.standard_normal((3, 6))
        mu = 0.7
        j = _j_update(p, ytilde, theta_x, lambda1, mu)
        grad = -p.T @ (ytilde - p @ j) + lambda1 + mu * (j - theta_x)
        assert np.allclose(grad, 0.0, atol=1e-10)
        # P^T P is rank-deficient here; the factored form must still agree
        # with a direct solve of the normal equations
        direct = np.linalg.solve(p.T @ p + mu * np.eye(3),
                                 p.T @ ytilde + mu * theta_x - lambda1)
        assert np.allclose(j, direct, rtol=1e-10, atol=1e-12)

    def test_theta_scalar(self):
        theta = _theta_update(
            j=np.array([[2.0]]), g=np.array([[1.0]]),
            lambda1=np.array([[0.0]]), lambda2=np.array([[0.0]]),
            xtilde=np.array([[1.0]]), xlxt=np.zeros((1, 1)), beta=0.0, mu=1.0,
        )
        assert theta[0, 0] == pytest.approx(1.5)

    def test_theta_stationarity(self):
        rng = np.random.default_rng(6)
        dim, d_total, n2 = 2, 4, 10
        j = rng.standard_normal((dim, n2))
        g = rng.standard_normal((dim, d_total))
        lambda1 = rng.standard_normal((dim, n2))
        lambda2 = rng.standard_normal((dim, d_total))
        xtilde = rng.standard_normal((d_total, n2))
        w = rng.random((n2, n2))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        lap = laplacian(w).lap
        beta, mu = 0.3, 0.9
        theta = _theta_update(j, g, lambda1, lambda2, xtilde,
                              pencil(xtilde, w)[0], beta, mu)
        # gradient of the augmented Lagrangian in theta must vanish
        q = theta @ xtilde
        grad = beta * q @ lap @ xtilde.T
        grad += -lambda1 @ xtilde.T - mu * (j - q) @ xtilde.T
        grad += -lambda2 - mu * (g - theta)
        assert np.allclose(grad, 0.0, atol=1e-9)

    def test_theta_cached_matrices_agree(self):
        rng = np.random.default_rng(7)
        xtilde = rng.standard_normal((3, 8))
        xlxt, _ = pencil(xtilde, np.ones((8, 8)) - np.eye(8))
        j, g, lambda1, lambda2 = (
            rng.standard_normal((2, 8)), rng.standard_normal((2, 3)),
            rng.standard_normal((2, 8)), rng.standard_normal((2, 3)))
        beta, mu = 0.5, 1.2
        factored = _theta_update(j, g, lambda1, lambda2, xtilde, xlxt, beta, mu)
        # direct solve of theta (mu X X^T + mu I + beta X L X^T) = rhs
        system = mu * xtilde @ xtilde.T + mu * np.eye(3) + beta * xlxt
        rhs = (mu * j + lambda1) @ xtilde.T + mu * g + lambda2
        direct = np.linalg.solve(system, rhs.T).T
        assert np.allclose(factored, direct, rtol=1e-10, atol=1e-12)

    def test_g_permutation_oracle(self):
        g = solver.admm_update_g(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                 np.zeros((2, 2)), mu=1.0)
        assert np.allclose(g, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_g_identity_fixed_point(self):
        theta = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        g = solver.admm_update_g(theta, np.zeros_like(theta), mu=1.0)
        assert np.allclose(g, theta, atol=1e-12)

    def test_g_row_orthonormal_and_nearest(self):
        rng = np.random.default_rng(10)
        theta = rng.standard_normal((3, 7))
        lambda2 = rng.standard_normal((3, 7))
        mu = 2.0
        g = solver.admm_update_g(theta, lambda2, mu)
        assert np.allclose(g @ g.T, np.eye(3), atol=1e-10)
        m = theta - lambda2 / mu
        best = np.linalg.norm(g - m)
        for seed in range(20):
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((7, 3)))
            assert best <= np.linalg.norm(q.T - m) + 1e-10

    def test_g_rank_deficient_rejected(self):
        with pytest.raises(NumericalError):
            solver.admm_update_g(np.zeros((2, 3)), np.zeros((2, 3)), mu=1.0)

    def test_dual_step_and_penalty_cap(self):
        theta, j, g = np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])
        lambda1, lambda2, mu = solver.admm_update_duals(
            np.array([[0.1]]), np.array([[0.0]]), j - theta @ np.array([[1.0]]),
            g - theta, mu=4.0, rho=2.0, mu_max=6.0)
        # lambda1 += mu (J - theta X) = 0.1 + 4*(2-1)
        assert lambda1[0, 0] == pytest.approx(4.1)
        # lambda2 += mu (G - theta) = 0 + 4*(0.5-1)
        assert lambda2[0, 0] == pytest.approx(-2.0)
        assert mu == pytest.approx(6.0)  # capped below rho*mu=8


class TestSolveThetaAdmm:
    def _setup(self, seed=0, dim=2):
        ds = _toy_dataset(seed, n_per_class=6, d_m=2, d_h=4)
        sys = stack_system(ds)
        xlxt, _ = pencil(sys.xtilde,
                         lda_like_adjacency(np.concatenate([ds.labels, ds.labels])))
        hyper = solver.Hyperparams(alpha=0.1, beta=0.01, dim=dim,
                                   inner_max_iter=3000)
        theta0 = solver._pca_rows(sys.xtilde, dim)
        p = solver.update_p(sys.ytilde, theta0 @ sys.xtilde, hyper.alpha)
        return p, sys, xlxt, hyper, theta0

    def test_converges_and_is_feasible(self):
        p, sys, xlxt, hyper, theta0 = self._setup()
        out = solver.solve_theta_admm(p, sys, _gen_eig(sys, xlxt), hyper, warm_start=theta0)
        assert out.converged
        assert out.primal_residual_j < hyper.inner_tol
        assert out.primal_residual_g < hyper.inner_tol
        assert np.allclose(out.theta @ out.theta.T, np.eye(hyper.dim), atol=1e-8)

    def test_improves_objective(self):
        p, sys, xlxt, hyper, theta0 = self._setup()
        before = solver.objective(sys, xlxt, p, theta0, hyper).total
        out = solver.solve_theta_admm(p, sys, _gen_eig(sys, xlxt), hyper, warm_start=theta0)
        after = solver.objective(sys, xlxt, p, out.theta, hyper).total
        assert after <= before + 1e-9

    def test_returns_the_smallest_residual_iterate(self):
        p, sys, xlxt, hyper, theta0 = self._setup(seed=2, dim=3)
        # with this start the residuals rise at iterations 3 and 4, and the
        # solve is still far from inner_tol at 15 iterations
        hyper = dataclasses.replace(hyper, beta=1.0, mu0=1.0, rho=2.0)
        worst, held_back = np.inf, 0
        for k in range(1, 16):
            out = solver.solve_theta_admm(
                p, sys, _gen_eig(sys, xlxt), dataclasses.replace(hyper, inner_max_iter=k),
                warm_start=theta0)
            assert out.iterations <= k
            held_back += out.iterations < k
            residual = max(out.primal_residual_j, out.primal_residual_g)
            assert residual <= worst
            worst = residual
            assert out.converged == (out.primal_residual_j < hyper.inner_tol
                                     and out.primal_residual_g < hyper.inner_tol)
        assert held_back > 0, "no later iterate was worse; nothing was selected"
        assert not out.converged

    def test_iterations_run_counts_the_whole_solve(self):
        p, sys, xlxt, hyper, theta0 = self._setup(seed=2, dim=3)
        gen_eig = _gen_eig(sys, xlxt)
        # capped: the solve runs to inner_max_iter, though its returned iterate
        # is an earlier one for some caps
        capped = dataclasses.replace(hyper, beta=1.0, mu0=1.0, rho=2.0)
        outs = [solver.solve_theta_admm(p, sys, gen_eig,
                                        dataclasses.replace(capped, inner_max_iter=k),
                                        warm_start=theta0) for k in range(1, 16)]
        assert [out.iterations_run for out in outs] == list(range(1, 16))
        assert any(out.iterations < out.iterations_run for out in outs)
        assert not any(out.converged for out in outs)
        # converged: the solve stops at the iterate it returns
        out = solver.solve_theta_admm(p, sys, gen_eig, hyper, warm_start=theta0)
        assert out.converged and out.iterations_run == out.iterations < hyper.inner_max_iter

    def test_factor_gives_the_same_solve(self, monkeypatch):
        p, sys, xlxt, hyper, theta0 = self._setup()
        _, seen = _fit_with_spy(monkeypatch, _toy_dataset(0, n_per_class=6, d_m=2, d_h=4),
                                dataclasses.replace(hyper, outer_max_iter=1))
        factor = seen[0]
        assert factor.xtilde.shape[1] < sys.xtilde.shape[1]
        full = solver.solve_theta_admm(p, sys, _gen_eig(sys, xlxt), hyper,
                                       warm_start=theta0)
        thin = solver.solve_theta_admm(p, factor, _gen_eig(factor, xlxt), hyper,
                                       warm_start=theta0)
        assert full.converged and thin.converged
        assert thin.iterations == full.iterations
        assert np.allclose(thin.theta, full.theta, rtol=0, atol=1e-9)
        assert thin.primal_residual_j == pytest.approx(full.primal_residual_j, rel=1e-9)
        assert thin.primal_residual_g == pytest.approx(full.primal_residual_g, rel=1e-9)
        for theta in (theta0, full.theta):
            terms = solver.objective(sys, xlxt, p, theta, hyper)
            thin_terms = solver.objective(factor, xlxt, p, theta, hyper)
            for name in ("fidelity", "p_reg", "align"):
                assert getattr(thin_terms, name) == pytest.approx(getattr(terms, name),
                                                                  rel=1e-10)
            p_full = solver.update_p(sys.ytilde, theta @ sys.xtilde, hyper.alpha)
            p_thin = solver.update_p(factor.ytilde, theta @ factor.xtilde, hyper.alpha)
            assert _rel(p_thin, p_full) < 1e-10

    def test_stops_at_the_first_converged_iterate(self):
        p, sys, xlxt, hyper, theta0 = self._setup()
        gen_eig = _gen_eig(sys, xlxt)
        out = solver.solve_theta_admm(p, sys, gen_eig, hyper, warm_start=theta0)
        assert out.converged and out.iterations > 1
        shorter = solver.solve_theta_admm(
            p, sys, gen_eig, dataclasses.replace(hyper, inner_max_iter=out.iterations - 1),
            warm_start=theta0)
        assert not shorter.converged

    def test_bad_warm_start_shape(self):
        p, sys, xlxt, hyper, _ = self._setup()
        with pytest.raises(ValidationError):
            solver.solve_theta_admm(p, sys, _gen_eig(sys, xlxt), hyper,
                                    warm_start=np.ones((1, 1)))


class TestPcaRows:
    def test_rows_orthonormal(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 12))
        t = solver._pca_rows(x, 3)
        assert np.allclose(t @ t.T, np.eye(3), atol=1e-10)

    def test_spans_dominant_direction(self):
        # data concentrated on one axis: first row must align with it
        x = np.zeros((4, 10))
        x[2] = np.linspace(-3, 3, 10)
        t = solver._pca_rows(x, 1)
        assert abs(t[0, 2]) == pytest.approx(1.0, abs=1e-10)


class TestFit:
    def test_monotone_trace_and_feasible(self):
        ds = _toy_dataset(1)
        hyper = solver.Hyperparams(alpha=0.1, beta=0.01, dim=3)
        model = solver.fit(ds, hyper)
        trace = np.asarray(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert np.allclose(model.theta @ model.theta.T, np.eye(3), atol=1e-8)

    def test_deterministic(self):
        ds = _toy_dataset(2)
        hyper = solver.Hyperparams(alpha=0.5, beta=0.1, dim=2)
        a = solver.fit(ds, hyper)
        b = solver.fit(ds, hyper)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.p, b.p)
        assert a.objective_trace == b.objective_trace

    def test_dim_too_large(self):
        ds = _toy_dataset(0, d_m=2, d_h=3)
        with pytest.raises(ValidationError, match="dim"):
            solver.fit(ds, solver.Hyperparams(dim=6))

    def test_single_class_rejected(self):
        ds = PairedDataset(ms=np.ones((2, 3)), hs=np.ones((3, 3)),
                           labels=[1, 1, 1], num_classes=1)
        with pytest.raises(ValidationError):
            solver.fit(ds, solver.Hyperparams(dim=2))

    def test_stores_both_modality_refs(self):
        ds = _toy_dataset(4)
        model = solver.fit(ds, solver.Hyperparams(dim=2))
        assert model.ref_embeddings.shape == (2, 2 * ds.num_samples)
        assert np.array_equal(model.ref_labels,
                              np.concatenate([ds.labels, ds.labels]))
        assert set(model.ref_modalities.tolist()) == {0, 1}

    @pytest.mark.parametrize("n_per_class, duplicate_band", [
        pytest.param(8, False, id="2N>c+D"),
        pytest.param(2, False, id="2N<c+D"),
        pytest.param(8, True, id="duplicated-band"),
    ])
    def test_loop_runs_on_a_factor_with_the_same_grams(self, monkeypatch, n_per_class,
                                                       duplicate_band):
        ds = _toy_dataset(7, n_per_class=n_per_class)
        if duplicate_band:  # Z = [Ytilde; Xtilde] is then rank-deficient
            ds = PairedDataset(ms=np.vstack([ds.ms, ds.ms[:1]]), hs=ds.hs,
                               labels=ds.labels, num_classes=ds.num_classes)
        model, seen = _fit_with_spy(monkeypatch, ds, solver.Hyperparams(dim=2))
        full = stack_system(ds)
        c, d, n2 = ds.num_classes, full.xtilde.shape[0], full.xtilde.shape[1]
        assert seen
        for factor in seen:
            # N-independence: at most c+D columns, whatever N is
            assert factor.xtilde.shape == (d, min(n2, c + d))
            assert factor.ytilde.shape == (c, min(n2, c + d))
            for a, b in (("xtilde", "xtilde"), ("ytilde", "xtilde"), ("ytilde", "ytilde")):
                gram = getattr(factor, a) @ getattr(factor, b).T
                assert _rel(gram, getattr(full, a) @ getattr(full, b).T) < 1e-12
        assert model.ref_embeddings.shape == (2, n2)
        assert np.array_equal(model.ref_embeddings, model.theta @ full.xtilde)

    def test_theta_system_is_factored_once_per_fit(self, monkeypatch):
        calls = []
        factor = solver.factor_theta_system

        def spy(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(solver, "factor_theta_system", spy)
        model = solver.fit(_toy_dataset(1), solver.Hyperparams(alpha=0.1, beta=0.01, dim=3))
        assert len(model.objective_trace) - 1 > 1  # more than one inner solve
        assert len(calls) == 1


def _scene_problems():
    """Fits of three folds of the shipped scene: α/β cells at two dims, a fit
    with no outer step, one whose inner solves stop at a cap of 15, and one
    with its own mu0, whose solves stack apart from the rest of its dim."""
    from pathlib import Path

    from cospace import data, experiment

    spec = data.SceneSpec.from_json(
        (Path(__file__).resolve().parents[1] / "data" / "metamer_scene.json").read_text())
    ds, _, _ = data.make_synthetic_scene(spec)
    folds = [experiment._subset(ds, train) for train, _ in
             experiment.kfold_split(ds.num_samples, 3, 0)]
    cells = [(4, 0.1, 0.01, {}), (4, 1.0, 0.1, {}), (2, 0.1, 0.1, {}),
             (2, 1.0, 0.01, {}), (4, 0.1, 0.01, {"outer_max_iter": 0}),
             (4, 0.1, 0.1, {"inner_max_iter": 15}), (4, 1.0, 0.01, {"mu0": 1e-2})]
    return [(fold, solver.make_hyperparams(alpha, beta, dim,
                                           {"outer_max_iter": 6, **extra}))
            for dim, alpha, beta, extra in cells for fold in folds]


def _stack_spy(monkeypatch):
    """Record the requests of every stacked inner solve."""
    calls = []
    stack = solver._admm_stack

    def spy(requests):
        calls.append(requests)
        return stack(requests)

    monkeypatch.setattr(solver, "_admm_stack", spy)
    return calls


class TestFitMany:
    def test_equals_fit_bit_for_bit(self, monkeypatch):
        problems = _scene_problems()
        solves = []
        lone = solver.solve_theta_admm
        with monkeypatch.context() as m:
            m.setattr(solver, "solve_theta_admm",
                      lambda *args: solves.append(lone(*args)) or solves[-1])
            expected = [solver.fit(ds, hyper) for ds, hyper in problems]
        # the set holds a solve that converges before its cap and one that stops at it
        assert any(r.converged and r.iterations < 500 for r in solves)
        assert any(not r.converged and r.iterations == 15 for r in solves)
        calls = _stack_spy(monkeypatch)
        models = solver.fit_many(problems)
        assert len(models) == len(problems)
        for model, want in zip(models, expected):
            assert np.array_equal(model.theta, want.theta)
            assert np.array_equal(model.p, want.p)
            assert model.objective_trace == want.objective_trace
            assert model.converged == want.converged
            assert model.hyper == want.hyper
            for name in ("ref_embeddings", "ref_labels", "ref_modalities"):
                assert np.array_equal(getattr(model, name), getattr(want, name))
        assert expected[12].objective_trace == expected[12].objective_trace[:1]
        # the other mu0 and the other cap stack apart: three dim-4 stacks in round 1
        first_round = [requests[0][3] for requests in calls[:4]]
        assert sorted((h.dim, h.mu0, h.inner_max_iter) for h in first_round) == [
            (2, 1e-3, 500), (4, 1e-3, 15), (4, 1e-3, 500), (4, 1e-2, 500)]
        for requests in calls:
            assert len({(h.dim, h.mu0, h.inner_max_iter) for _, _, _, h, _ in requests}) == 1

    def test_one_stacked_solve_per_round_and_dim(self, monkeypatch):
        problems = [(ds, hyper) for ds, hyper in _scene_problems() if hyper.mu0 == 1e-3
                    and hyper.inner_max_iter == 500 and hyper.outer_max_iter > 0]
        calls = _stack_spy(monkeypatch)
        models = solver.fit_many(problems)
        for dim in (2, 4):
            solves = [len(m.objective_trace) - 1 for m in models if m.dim == dim]
            sizes = [len(requests) for requests in calls if requests[0][3].dim == dim]
            # round r stacks every fit of the dim that makes an r-th inner solve
            assert sizes == [sum(n >= r for n in solves) for r in range(1, max(solves) + 1)]
            assert sizes[0] == 6
        assert len(calls) < sum(len(m.objective_trace) - 1 for m in models)

    def test_empty(self):
        assert solver.fit_many([]) == []

    @pytest.mark.parametrize("bad", [
        pytest.param((_toy_dataset(0, d_m=2, d_h=3), solver.Hyperparams(dim=6)), id="dim"),
        pytest.param((PairedDataset(ms=np.ones((2, 3)), hs=np.ones((3, 3)), labels=[1, 1, 1],
                                    num_classes=1), solver.Hyperparams(dim=2)), id="one-class"),
    ])
    def test_raises_what_fit_raises(self, bad):
        with pytest.raises(ValidationError) as lone:
            solver.fit(*bad)
        good = (_toy_dataset(1), solver.Hyperparams(alpha=0.1, beta=0.01, dim=2))
        with pytest.raises(type(lone.value)) as many:
            solver.fit_many([good, bad])
        assert str(many.value) == str(lone.value)

    def test_live_fits_hold_no_stacked_system(self):
        import tracemalloc

        ds = _toy_dataset(2, n_per_class=200, d_m=5, d_h=40)
        xtilde_bytes = stack_system(ds).xtilde.nbytes

        def peak(fits):
            problems = [(ds, solver.Hyperparams(alpha=0.01 * (i + 1), dim=2, outer_max_iter=1,
                                                inner_max_iter=20)) for i in range(fits)]
            tracemalloc.start()
            try:
                solver.fit_many(problems)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # loads the scipy solvers, whose import tracemalloc would count
        # each extra live fit holds its thin factor and references, not its D x 2N X~
        per_fit = (peak(10) - peak(1)) / 9
        assert per_fit < 0.5 * xtilde_bytes, f"{per_fit / 2**10:.0f} KiB per extra fit"


class TestEmbed:
    def test_partition_consistency(self):
        ds = _toy_dataset(5)
        model = solver.fit(ds, solver.Hyperparams(dim=2))
        sys = stack_system(ds)
        q = model.theta @ sys.xtilde
        n = ds.num_samples
        assert np.allclose(solver.embed_ms(model, ds.ms), q[:, :n], atol=1e-12)
        assert np.allclose(solver.embed_hs(model, ds.hs), q[:, n:], atol=1e-12)

    def test_wrong_band_count(self):
        ds = _toy_dataset(5)
        model = solver.fit(ds, solver.Hyperparams(dim=2))
        with pytest.raises(ValidationError):
            solver.embed_ms(model, np.ones((model.d_m + 1, 2)))
        with pytest.raises(ValidationError):
            solver.embed_hs(model, np.ones((model.d_h + 1, 2)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = _toy_dataset(6)
        model = solver.fit(ds, solver.Hyperparams(alpha=0.2, beta=0.05, dim=2))
        path = tmp_path / "model.json"
        solver.save_model(path, model)
        back = solver.load_model(path)
        assert np.array_equal(back.theta, model.theta)
        assert np.array_equal(back.p, model.p)
        assert back.hyper == model.hyper
        assert back.objective_trace == model.objective_trace
        assert back.converged == model.converged
        assert np.array_equal(back.ref_embeddings, model.ref_embeddings)
        assert np.array_equal(back.ref_labels, model.ref_labels)

    def test_round_trip_without_refs(self, tmp_path):
        ds = _toy_dataset(6)
        model = dataclasses.replace(
            solver.fit(ds, solver.Hyperparams(dim=2)),
            ref_embeddings=None, ref_labels=None, ref_modalities=None)
        path = tmp_path / "model.json"
        solver.save_model(path, model)
        assert solver.load_model(path).ref_embeddings is None

    @staticmethod
    def _refs_doc(n=10_000):
        """A valid 2-class model document with n references, as JSON reads it."""
        return json.loads(json.dumps(solver.model_to_dict(solver.CoSpaceModel(
            theta=np.eye(1, 2), p=np.ones((2, 1)), d_m=1, d_h=1, num_classes=2,
            hyper=solver.Hyperparams(dim=1), objective_trace=(1.0,), converged=True,
            ref_embeddings=np.linspace(0.0, 1.0, n)[None, :],
            ref_labels=np.arange(n) % 2 + 1, ref_modalities=np.arange(n) // (n // 2)))))

    @pytest.mark.parametrize("key, kind", [("embeddings", Real), ("labels", Integral)])
    @pytest.mark.parametrize("bad", [True, "1", float("nan")])
    def test_last_bad_entry_is_named(self, key, kind, bad):
        # the bulk check must name the entry as the per-entry check does
        n = 10_000
        doc = self._refs_doc(n)
        assert solver.model_from_dict(doc).ref_embeddings.shape == (1, n)
        rows = doc["refs"][key]
        (rows[0] if key == "embeddings" else rows)[-1] = bad
        with pytest.raises(ValidationError) as want:
            check_number(f"model refs.{key} entry", bad, kind)
        with pytest.raises(ValidationError) as got:
            solver.model_from_dict(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key, first, later, allowed", [
        ("labels", 3, 0, "[1, 2]"),
        ("labels", -(10**30), 7, "[1, 2]"),
        ("modalities", 2, -1, "[0, 1]"),
        ("modalities", 10**30, 5, "[0, 1]"),
    ])
    def test_first_entry_out_of_range_is_named(self, key, first, later, allowed):
        doc = self._refs_doc()
        doc["refs"][key][5_000] = first
        doc["refs"][key][-1] = later
        with pytest.raises(ValidationError) as got:
            solver.model_from_dict(doc)
        assert str(got.value) == f"model refs.{key} entry must be in {allowed}, got {first!r}"

    def test_valid_refs_are_checked_in_bulk(self, monkeypatch):
        # no entry of a valid model goes through the per-entry loop
        names = []
        check = solver.check_number
        monkeypatch.setattr(solver, "check_number",
                            lambda name, value, kind: names.append(name) or check(name, value, kind))
        solver.model_from_dict(self._refs_doc())
        assert "model dim" in names
        assert [name for name in names if name.endswith(" entry")] == []


class TestHyperparams:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0}, {"dim": 0}, {"outer_tol": 0.0}, {"rho": 1.0},
        {"mu0": 0.0}, {"mu0": 2.0, "mu_max": 1.0},
        {"inner_max_iter": 0}, {"outer_max_iter": -1},
        {"inner_max_iter": "5"}, {"inner_max_iter": 2.5}, {"outer_tol": True},
        {"dim": True}, {"alpha": "0.1"}, {"outer_tol": float("nan")},
        {"mu_max": float("inf")},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            solver.Hyperparams(**kwargs)
