"""The benchmark's checks accept the program's outputs and reject wrong ones.

Each test takes a real output of the program on a small input, confirms the
check passes, then corrupts the output (a flipped prediction, a perturbed
Theta, a wrong kappa, ...) and confirms the check rejects it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cospace import classify, data, experiment, metrics, solver  # noqa: E402


def pairs(n_per_class=12, seed=0):
    """Criterion 12's generator at a small size."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 2, 3], n_per_class)
    shift = rng.standard_normal((12, 3))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((12, labels.size))
    srf = rng.random((4, 12))
    srf /= srf.sum(axis=1, keepdims=True)
    return data.PairedDataset(ms=srf @ hs, hs=hs, labels=labels, num_classes=3)


@pytest.fixture(scope="module")
def cospace_fit():
    ds = pairs()
    hyper = solver.Hyperparams(alpha=0.1, beta=0.1, dim=3, inner_max_iter=50)
    return ds, hyper, solver.fit(ds, hyper)


def check_fit(ds, hyper, theta, p, trace):
    return checks.check_cospace_fit(ds.ms, ds.hs, ds.labels, ds.num_classes,
                                    hyper.alpha, hyper.beta, theta, p, trace)


class TestCoSpaceFit:
    def test_accepts_the_fit_and_sees_its_descent(self, cospace_fit):
        ds, hyper, model = cospace_fit
        assert check_fit(ds, hyper, model.theta, model.p, model.objective_trace) is True

    def test_rejects_a_perturbed_theta(self, cospace_fit):
        ds, hyper, model = cospace_fit
        theta = model.theta.copy()
        theta[0, 0] += 1e-6
        with pytest.raises(CheckFailed, match="Theta"):
            check_fit(ds, hyper, theta, model.p, model.objective_trace)

    def test_rejects_a_rotated_theta(self, cospace_fit):
        # still row-orthonormal, so only the objective recomputation sees it
        ds, hyper, model = cospace_fit
        c, s = np.cos(0.1), np.sin(0.1)
        rot = np.eye(model.theta.shape[1])
        rot[:2, :2] = [[c, -s], [s, c]]
        with pytest.raises(CheckFailed, match="final objective"):
            check_fit(ds, hyper, model.theta @ rot, model.p, model.objective_trace)

    def test_rejects_a_rising_trace(self, cospace_fit):
        ds, hyper, model = cospace_fit
        trace = list(model.objective_trace) + [model.objective_trace[-1] * 1.001]
        with pytest.raises(CheckFailed, match="rose"):
            check_fit(ds, hyper, model.theta, model.p, trace)

    def test_rejects_a_wrong_start(self, cospace_fit):
        ds, hyper, model = cospace_fit
        trace = list(model.objective_trace)
        trace[0] *= 1.01
        with pytest.raises(CheckFailed, match="PCA start"):
            check_fit(ds, hyper, model.theta, model.p, trace)

    def test_pca_start_counts_as_no_descent(self, cospace_fit):
        ds, hyper, _ = cospace_fit
        x = checks.stack_pairs(ds.ms, ds.hs)
        theta = np.linalg.svd(x, full_matrices=False)[0][:, :3].T
        q = theta @ x
        y = checks.stacked_onehot(ds.labels, 3)
        p = np.linalg.solve(q @ q.T + hyper.alpha * np.eye(3), q @ y.T).T
        start = checks.pca_start_objective(
            x, y, np.concatenate([ds.labels, ds.labels]), 3, hyper.alpha, hyper.beta)
        assert check_fit(ds, hyper, theta, p, [start, start]) is False


class TestPencils:
    @pytest.mark.parametrize("method,params", [
        ("lsma", {"dim": 3}),
        ("lusma", {"dim": 3, "k": 4, "sigma": 1.0}),
    ])
    def test_accepts_then_rejects(self, method, params):
        ds = pairs()
        fitted = experiment.fit_method(ds, method, params)
        x = checks.stack_pairs(ds.ms, ds.hs)
        if method == "lsma":
            a, b = checks.supervised_pencil(x, np.concatenate([ds.labels, ds.labels]))
        else:
            a, b = checks.knn_pencil(x, params["k"], params["sigma"], block=7)
        theta = fitted.model.theta
        lam = np.asarray(fitted.model.params["eigenvalues"])
        checks.check_pencil(theta, lam, a, b)

        bent = theta.copy()
        bent[1] += 1e-3 * np.linalg.norm(bent[1])
        with pytest.raises(CheckFailed, match="pencil"):
            checks.check_pencil(bent, lam, a, b)
        shifted = lam.copy()
        shifted[0] += 1e-3 * max(abs(lam).max(), 1.0)
        with pytest.raises(CheckFailed):
            checks.check_pencil(theta, shifted, a, b)

    def test_rejects_rows_that_are_not_the_smallest(self):
        ds = pairs()
        x = checks.stack_pairs(ds.ms, ds.hs)
        a, b = checks.supervised_pencil(x, np.concatenate([ds.labels, ds.labels]))
        b_floor = b + 1e-9 * np.trace(b) / b.shape[0] * np.eye(b.shape[0])
        chol = np.linalg.cholesky(b_floor)
        lam, w = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, a).T))
        vecs = np.linalg.solve(chol.T, w)
        checks.check_pencil(vecs[:, :2].T, lam[:2], a, b)
        with pytest.raises(CheckFailed, match="smallest"):
            checks.check_pencil(vecs[:, 1:3].T, lam[1:3], a, b)

    def test_knn_pencil_matches_the_dense_graph(self):
        # the program's dense graph is the reference for the sparse recomputation
        from cospace import graph

        x = checks.stack_pairs(pairs().ms, pairs().hs)
        g = graph.laplacian(graph.knn_gaussian_adjacency(x, 4, 1.0))
        a, b = checks.knn_pencil(x, 4, 1.0, block=5)
        assert np.allclose(a, x @ g.lap @ x.T, rtol=1e-10, atol=1e-12)
        assert np.allclose(b, x @ g.d @ x.T, rtol=1e-10, atol=1e-12)


class TestGrid:
    def test_folds(self):
        splits = experiment.kfold_split(10, 3, 0)
        checks.check_folds(splits, 10, 3)
        train, val = splits[0]
        overlapping = [(train, np.append(val, splits[1][1][0]))] + splits[1:]
        with pytest.raises(CheckFailed):
            checks.check_folds(overlapping, 10, 3)
        missing = [(train, val[1:])] + splits[1:]
        with pytest.raises(CheckFailed, match="partition"):
            checks.check_folds(missing, 10, 3)
        with pytest.raises(CheckFailed, match="complement"):
            checks.check_folds([(train[1:], val)] + splits[1:], 10, 3)

    def test_report(self):
        truth = np.array([1, 1, 2, 2, 3, 3, 3, 1])
        pred = np.array([1, 2, 2, 2, 3, 1, 3, 1])
        report = metrics.MetricsReport.from_predictions(truth, pred, 3).to_dict()
        checks.check_report(report, truth, pred, 3, "hand")
        flipped = pred.copy()
        flipped[0] = 2
        with pytest.raises(CheckFailed, match="confusion"):
            checks.check_report(report, truth, flipped, 3, "hand")
        for key, delta in (("kappa", 1e-3), ("oa", 1e-9), ("aa", 1e-9)):
            wrong = dict(report, **{key: report[key] + delta})
            with pytest.raises(CheckFailed, match=key if key == "kappa" else key.upper()):
                checks.check_report(wrong, truth, pred, 3, "hand")

    def test_beats(self):
        checks.check_beats(0.8, 0.7, "oa")
        with pytest.raises(CheckFailed):
            checks.check_beats(0.7, 0.7, "oa")


class TestCliOutputs:
    def test_knn1_and_linear(self, tmp_path):
        ds = pairs()
        model = solver.fit(ds, solver.Hyperparams(alpha=0.1, beta=0.1, dim=3,
                                                  inner_max_iter=50))
        path = tmp_path / "model.json"
        solver.save_model(path, model)
        doc = json.loads(path.read_text())
        queries = pairs(n_per_class=30, seed=1).ms
        pred = classify.knn1_predict(classify.model_reference_set(model),
                                     solver.embed_ms(model, queries))
        checks.check_knn1(doc, queries, pred)
        flipped = pred.copy()
        flipped[5] = 1 + flipped[5] % 3
        with pytest.raises(CheckFailed, match="query 5"):
            checks.check_knn1(doc, queries, flipped)
        with pytest.raises(CheckFailed):
            checks.check_knn1(doc, queries, pred[:-1])

        refs = classify.model_reference_set(model)
        weights = classify.fit_linear(refs.embeddings,
                                      data.onehot_encode(refs.labels, 3), 1e-3)
        linear = classify.linear_predict(weights, solver.embed_ms(model, queries))
        checks.check_linear(doc, queries, linear, 1e-3)
        flipped = linear.copy()
        flipped[7] = 1 + flipped[7] % 3
        with pytest.raises(CheckFailed, match="query 7"):
            checks.check_linear(doc, queries, flipped, 1e-3)


def test_tracer_self_time_and_counts():
    from tracer import Tracer

    ds = pairs()
    original = solver.solve_theta_admm
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.solve_theta_admm is not original
        model = solver.fit(ds, solver.Hyperparams(alpha=0.1, beta=0.1, dim=3,
                                                  inner_max_iter=20))
    finally:
        tracer.uninstall()
    assert solver.solve_theta_admm is original
    counts = tracer.counts
    assert counts["solver.fit_calls"] == 1
    assert counts["solver.outer_iters"] == len(model.objective_trace) - 1
    assert counts["solver.inner_solves"] == counts["solver.outer_iters"]
    assert 0 <= counts["solver.candidates_rejected"] <= counts["solver.outer_iters"]
    assert counts["solver.inner_iters"] >= counts["solver.inner_solves"]
    # self times exclude the traced calls made inside them, so they sum to
    # no more than the fit's own duration
    assert all(v >= 0 for v in tracer.self_s.values())
    assert tracer.self_s["solver.solve_theta_admm"] > 0
    assert counts["graph.dense_bytes"] > 0
