import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cospace import classify, experiment
from cospace.data import PairedDataset
from cospace.errors import ValidationError


def _dataset(seed=0, n_per_class=12, d_m=3, d_h=6, num_classes=3):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, num_classes + 1), n_per_class)
    shift = 2.0 * rng.standard_normal((d_h, num_classes))
    hs = shift[:, labels - 1] + 0.4 * rng.standard_normal((d_h, labels.size))
    srf = rng.random((d_m, d_h))
    srf /= srf.sum(axis=1, keepdims=True)
    return PairedDataset(ms=srf @ hs, hs=hs, labels=labels,
                         num_classes=num_classes)


def _scene():
    """The shipped scene's training pairs."""
    from cospace import data

    spec = (Path(__file__).resolve().parents[1] / "data" / "metamer_scene.json").read_text()
    return data.make_synthetic_scene(data.SceneSpec.from_json(spec))[0]


def _signs_fixed(rows):
    """Rows with their largest-magnitude entry made positive."""
    return rows * np.sign(rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)])[:, None]


SMALL_GRID = experiment.GridSpec(dims=(2, 3), alphas=(0.1,), betas=(0.01,),
                                 ks=(3,), sigmas=(1.0,), folds=3, seed=0)


class TestGridSpec:
    def test_defaults(self):
        g = experiment.GridSpec()
        assert g.dims == (10, 20, 30, 40, 50)
        assert g.alphas == g.betas == g.sigmas == (1e-2, 1e-1, 1e0, 1e1, 1e2)
        assert g.ks == (10, 20, 30, 40, 50)
        assert g.folds == 10

    def test_from_dict_partial(self):
        g = experiment.GridSpec.from_dict({"dims": [2], "folds": 4})
        assert g.dims == (2,)
        assert g.folds == 4
        assert g.alphas == experiment.GridSpec().alphas

    def test_rejects_empty_axis(self):
        with pytest.raises(ValidationError):
            experiment.GridSpec(dims=())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            experiment.GridSpec(alphas=(0.0,))

    @pytest.mark.parametrize("doc, field", [
        ({"dims": [4.0]}, "dims"), ({"dims": [True]}, "dims"), ({"dims": 4}, "dims"),
        ({"ks": ["5"]}, "ks"), ({"alphas": [False]}, "alphas"),
        ({"sigmas": ["1.0"]}, "sigmas"), ({"folds": 3.5}, "folds"),
        ({"folds": "3"}, "folds"), ({"seed": 1.0}, "seed"), ({"seed": -1}, "seed"),
        ({"alphas": [float("nan")]}, "alphas"),
        ({"dims": [2], "fold": 2}, "key 'fold'"),
    ])
    def test_from_dict_rejects_mistyped_values(self, doc, field):
        with pytest.raises(ValidationError, match=f"grid {field}"):
            experiment.GridSpec.from_dict(doc)


class TestKfoldSplit:
    def test_partition(self):
        splits = experiment.kfold_split(10, 3, seed=0)
        sizes = sorted(len(val) for _, val in splits)
        assert sizes == [3, 3, 4]
        all_val = np.sort(np.concatenate([val for _, val in splits]))
        assert np.array_equal(all_val, np.arange(10))
        for train, val in splits:
            assert np.intersect1d(train, val).size == 0
            assert train.size + val.size == 10

    def test_deterministic_per_seed(self):
        a = experiment.kfold_split(20, 4, seed=7)
        b = experiment.kfold_split(20, 4, seed=7)
        c = experiment.kfold_split(20, 4, seed=8)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
        assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))

    @pytest.mark.parametrize("n, folds, seed", [(2, 2, 0), (11, 3, 1), (159, 12, 123)])
    def test_blocks_are_consecutive_slices_of_the_permutation(self, n, folds, seed):
        # the first n % folds blocks hold one extra sample; each part is sorted
        perm = np.random.default_rng(seed).permutation(n)
        start = 0
        for i, (train, val) in enumerate(experiment.kfold_split(n, folds, seed)):
            size = n // folds + (i < n % folds)
            block = perm[start:start + size]
            assert val.tolist() == sorted(block.tolist())
            assert train.tolist() == sorted(set(range(n)) - set(block.tolist()))
            assert train.dtype == val.dtype == perm.dtype
            start += size
        assert start == n

    def test_too_many_folds(self):
        with pytest.raises(ValidationError):
            experiment.kfold_split(3, 4, seed=0)


class TestFitMethod:
    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="known methods"):
            experiment.fit_method(_dataset(), "mystery", {})

    def test_baseline_identity_embedding(self):
        ds = _dataset()
        fitted = experiment.fit_method(ds, "baseline", {})
        assert np.array_equal(fitted.embed_ms(ds.ms), ds.ms)
        assert fitted.references.embeddings.shape[1] == ds.num_samples

    @pytest.mark.parametrize("method,params", [
        ("pjdr", {"dim": 2}),
        ("lsma", {"dim": 2}),
        ("lusma", {"dim": 2, "k": 3, "sigma": 1.0}),
        ("cospace", {"dim": 2, "alpha": 0.1, "beta": 0.01}),
    ])
    def test_projection_methods_embed_and_classify(self, method, params):
        from cospace import classify

        ds = _dataset()
        fitted = experiment.fit_method(ds, method, params)
        emb = fitted.embed_ms(ds.ms)
        assert emb.shape == (2, ds.num_samples)
        pred = classify.knn1_predict(fitted.references, emb)
        # resubstitution accuracy on well-separated classes
        assert np.mean(pred == ds.labels) > 0.8

    def test_cospace_references_are_the_models(self):
        fitted = experiment.fit_method(_dataset(), "cospace",
                                       {"dim": 2, "alpha": 0.1, "beta": 0.01})
        assert np.array_equal(fitted.references.embeddings, fitted.model.ref_embeddings)
        assert np.array_equal(fitted.references.labels, fitted.model.ref_labels)

    def test_cospace_stacks_once(self, monkeypatch):
        from cospace import data, solver

        calls = []
        stack = data.stack_system

        def spy(ds):
            calls.append(ds)
            return stack(ds)

        monkeypatch.setattr(data, "stack_system", spy)
        monkeypatch.setattr(solver, "stack_system", spy)  # solver imported the name
        experiment.fit_method(_dataset(), "cospace", {"dim": 2, "alpha": 0.1, "beta": 0.01})
        assert len(calls) == 1

    def test_lusma_makes_no_square_array(self):
        # 1,000 pairs: one (2N)^2 float64 array would take 32 MB; numpy reports
        # its buffers to tracemalloc
        ds = _dataset(n_per_class=200, d_m=10, d_h=60, num_classes=5)
        tracemalloc.start()
        try:
            experiment.fit_method(ds, "lusma", {"dim": 20, "k": 10, "sigma": 2.0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000**2 * 8

    def test_lsma_makes_no_square_array(self):
        ds = _dataset(n_per_class=200, d_m=10, d_h=60, num_classes=5)
        tracemalloc.start()
        try:
            experiment.fit_method(ds, "lsma", {"dim": 20})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000**2 * 8

    def test_lsma_builds_no_graph_and_no_stacked_system(self, monkeypatch):
        from cospace import data, graph, solver

        calls = []

        def refuse(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"an LSMA fit called {name}")
            return spy

        for module, name in [(graph, "lda_like_adjacency"), (graph, "pencil"),
                             (experiment, "pencil"), (data, "stack_system"),
                             (solver, "stack_system")]:
            monkeypatch.setattr(module, name, refuse(name))
        experiment.fit_method(_dataset(), "lsma", {"dim": 2})
        assert calls == []
        assert not hasattr(experiment, "lda_like_adjacency")

    @pytest.mark.parametrize("method,params", [
        ("pjdr", {"dim": 2}),
        ("lsma", {"dim": 2}),
        ("lusma", {"dim": 2, "k": 3, "sigma": 1.0}),
    ])
    def test_baseline_references_embed_each_modality(self, method, params):
        ds = _dataset()
        fitted = experiment.fit_method(ds, method, params)
        theta = fitted.model
        assert np.array_equal(fitted.references.embeddings,
                              np.hstack([theta.theta_m @ ds.ms, theta.theta_h @ ds.hs]))
        assert np.array_equal(fitted.references.labels, np.concatenate([ds.labels, ds.labels]))

    def test_pjdr_builds_no_graph_and_no_stacked_system(self, monkeypatch):
        from cospace import data, graph, solver

        calls = []

        def refuse(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"a PJDR fit called {name}")
            return spy

        for module, name in [(graph, "lda_like_adjacency"), (graph, "pencil"),
                             (experiment, "pencil"), (data, "stack_system"),
                             (solver, "stack_system")]:
            monkeypatch.setattr(module, name, refuse(name))
        experiment.fit_method(_dataset(), "pjdr", {"dim": 2})
        assert calls == []

    @pytest.mark.parametrize("offset,atol", [(0.0, 1e-12), (1e3, 1e-6)])
    def test_pjdr_rows_are_the_centred_stack_principal_axes(self, offset, atol):
        # oracle: PCA of the centred block-diagonal stack. At offset 1e3 the mean
        # direction's eigenvalue is ~2e8 times the 4th and 5th, which lie 6e-10 of
        # it apart, so either eigensolve moves row 4 by about eps / 6e-10 ~ 2e-7
        from cospace import data

        ds = _scene()
        ds = replace(ds, ms=ds.ms + offset, hs=ds.hs + offset)
        x = data.stack_system(ds).xtilde
        centered = x - x.mean(axis=1, keepdims=True)
        oracle = np.linalg.eigh(centered @ centered.T)[1][:, ::-1][:, :4].T
        theta = experiment.fit_method(ds, "pjdr", {"dim": 4}).model.theta
        assert np.allclose(_signs_fixed(theta), _signs_fixed(oracle), rtol=0, atol=atol)

    def test_pjdr_is_independent_of_scale(self):
        ds = _scene()
        theta = experiment.fit_method(ds, "pjdr", {"dim": 4}).model.theta
        tiny = replace(ds, ms=1e-7 * ds.ms, hs=1e-7 * ds.hs)
        assert np.allclose(experiment.fit_method(tiny, "pjdr", {"dim": 4}).model.theta,
                           theta, rtol=0, atol=1e-12)

    def test_lsma_solves_the_graph_pencil(self):
        # the eigenvalues and the first c rows (c = 3 classes) are those of the
        # dense 1/N_k graph's pencil; the rows beyond c span an eigenspace
        # with one repeated eigenvalue on this class-balanced set
        from cospace import baselines, data, graph

        ds = _dataset(seed=3)
        fitted = experiment.fit_method(ds, "lsma", {"dim": 5})
        sys = data.stack_system(ds)
        dense = baselines.fit_lpp(sys.d_m, graph.pencil(sys.xtilde, graph.lda_like_adjacency(
            np.concatenate([ds.labels, ds.labels]))), 5)
        assert np.allclose(fitted.model.params["eigenvalues"], dense.params["eigenvalues"],
                           rtol=1e-12, atol=0)
        assert np.allclose(fitted.model.theta[:3], dense.theta[:3], rtol=0, atol=1e-9)
        assert np.allclose(fitted.references.embeddings, fitted.model.theta @ sys.xtilde,
                           rtol=0, atol=1e-12)
        assert np.array_equal(fitted.references.labels, np.concatenate([ds.labels, ds.labels]))


class TestGridCells:
    def test_cospace_cell_order(self):
        grid = experiment.GridSpec(dims=(3, 2), alphas=(1.0, 0.1), betas=(0.5,),
                                   ks=(3,), sigmas=(1.0,), folds=2)
        cells = experiment.method_grid_cells("cospace", grid)
        assert cells[0] == {"dim": 2, "alpha": 0.1, "beta": 0.5}
        assert cells[1] == {"dim": 2, "alpha": 1.0, "beta": 0.5}
        assert cells[2] == {"dim": 3, "alpha": 0.1, "beta": 0.5}
        assert len(cells) == 4

    def test_cell_counts(self):
        grid = experiment.GridSpec()
        assert len(experiment.method_grid_cells("cospace", grid)) == 125
        assert len(experiment.method_grid_cells("lusma", grid)) == 125
        assert len(experiment.method_grid_cells("pjdr", grid)) == 5
        assert len(experiment.method_grid_cells("lsma", grid)) == 5

    def test_baseline_has_no_grid(self):
        with pytest.raises(ValidationError):
            experiment.method_grid_cells("baseline", experiment.GridSpec())


class TestGridSearch:
    def test_tie_break_earliest_cell(self, monkeypatch):
        monkeypatch.setattr(experiment, "_cv_scores",
                            lambda ds, method, cells, *rest: [0.5] * len(cells))
        best, table = experiment.grid_search(_dataset(), "lsma", SMALL_GRID)
        assert best["params"] == {"dim": 2}
        assert len(table) == 2
        assert all(row["score"] == 0.5 for row in table)

    def test_maximum_wins(self, monkeypatch):
        monkeypatch.setattr(experiment, "_cv_scores",
                            lambda ds, method, cells, *rest: [p["dim"] / 10.0 for p in cells])
        best, _ = experiment.grid_search(_dataset(), "lsma", SMALL_GRID)
        assert best["params"] == {"dim": 3}
        assert best["score"] == pytest.approx(0.3)

    def test_real_cv_scores_in_unit_interval(self):
        ds = _dataset()
        best, table = experiment.grid_search(ds, "lsma", SMALL_GRID)
        assert 0.0 <= best["score"] <= 1.0
        assert best["score"] == max(row["score"] for row in table)

    def test_cospace_table_equals_fold_by_fold_fits(self):
        ds = _dataset()
        grid = experiment.GridSpec(dims=(3, 2), alphas=(1.0, 0.1), betas=(0.01, 0.1),
                                   ks=(3,), sigmas=(1.0,), folds=3, seed=1)
        overrides = {"outer_max_iter": 5}
        best, table = experiment.grid_search(ds, "cospace", grid, overrides)
        splits = experiment.kfold_split(ds.num_samples, grid.folds, grid.seed)
        oracle = []
        for params in experiment.method_grid_cells("cospace", grid):
            oas = []
            for train, val in splits:
                fitted = experiment.fit_method(experiment._subset(ds, train), "cospace",
                                               params, overrides)
                pred = classify.knn1_predict(fitted.references, fitted.embed_ms(ds.ms[:, val]))
                oas.append(float(np.mean(pred == ds.labels[val])))
            oracle.append({"params": params, "score": float(np.mean(oas))})
        assert table == oracle
        assert best == max(oracle, key=lambda row: row["score"])

    def test_cospace_fits_share_each_fold(self, monkeypatch):
        # each dim's fit_many sees one training set per fold, shared by its cells
        from cospace import solver

        seen = []
        fit_many = solver.fit_many

        def spy(problems):
            seen.append((len(problems), len({id(ds) for ds, _ in problems}),
                         all(isinstance(ds, PairedDataset) for ds, _ in problems)))
            return fit_many(problems)

        monkeypatch.setattr(solver, "fit_many", spy)
        grid = experiment.GridSpec(dims=(2, 3), alphas=(1.0, 0.1), betas=(0.01,),
                                   ks=(3,), sigmas=(1.0,), folds=4, seed=0)
        experiment.grid_search(_dataset(), "cospace", grid, {"outer_max_iter": 2})
        assert seen == [(2 * 4, 4, True)] * 2

    def test_baseline_grid_builds_each_fold_once(self, monkeypatch):
        calls = []
        subset = experiment._subset
        monkeypatch.setattr(experiment, "_subset",
                            lambda ds, idx: calls.append(idx) or subset(ds, idx))
        grid = experiment.GridSpec(dims=(2, 3), ks=(3, 4), sigmas=(0.5, 1.0), folds=3)
        _, table = experiment.grid_search(_dataset(), "lusma", grid)
        assert len(table) == 8
        assert len(calls) == 3

    def test_baseline_has_no_grid(self):
        assert experiment.grid_search(_dataset(), "baseline", SMALL_GRID) == (
            {"params": {}, "score": None}, [])

    def test_deterministic(self):
        ds = _dataset()
        a = experiment.grid_search(ds, "pjdr", SMALL_GRID)
        b = experiment.grid_search(ds, "pjdr", SMALL_GRID)
        assert a == b


def _benchmark_config(tmp_path=None):
    from cospace.data import ClassSpec, SceneSpec, build_gaussian_srf

    hs_centers = np.arange(400.0, 640.0, 20.0)
    ms_centers = np.array([450.0, 530.0, 610.0])
    rng = np.random.default_rng(6)
    spec = SceneSpec(
        classes=tuple(
            ClassSpec(hs_mean=0.5 + 0.3 * rng.standard_normal(hs_centers.size),
                      size=24)
            for _ in range(3)
        ),
        noise_sigma=0.15,
        ms_centers=ms_centers,
        hs_centers=hs_centers,
        srf_fwhm=40.0,
        test_fraction=0.5,
        seed=2,
    )
    return {
        "dataset": {"scene_spec": json.loads(spec.to_json())},
        "methods": ["baseline", "pjdr", "cospace"],
        "grid": {"dims": [2], "alphas": [0.1], "betas": [0.01],
                 "ks": [3], "sigmas": [1.0], "folds": 3},
        "seed": 0,
    }


class TestBenchmark:
    def test_results_structure_and_determinism(self):
        config = _benchmark_config()
        res_a, pred_a, _ = experiment.run_benchmark(config)
        res_b, pred_b, _ = experiment.run_benchmark(config)
        assert res_a == res_b
        assert pred_a == pred_b
        assert set(res_a["methods"]) == {"baseline", "pjdr", "cospace"}
        assert set(res_a["methods"]["cospace"]["metrics"]) == {"1nn", "linear", "p"}
        assert set(res_a["methods"]["pjdr"]["metrics"]) == {"1nn", "linear"}
        assert res_a["methods"]["baseline"]["cv_score"] is None

    def test_unknown_method_rejected(self):
        config = _benchmark_config()
        config["methods"] = ["mystery"]
        with pytest.raises(ValidationError):
            experiment.run_benchmark(config)

    def test_write_outputs(self, tmp_path):
        config = _benchmark_config()
        results, predictions, timings = experiment.run_benchmark(config)
        outdir = tmp_path / "bench"
        experiment.write_benchmark_outputs(outdir, results, predictions, timings)
        assert json.loads((outdir / "results.json").read_text()) == results
        timing_doc = json.loads((outdir / "timings.json").read_text())
        assert set(timing_doc) == set(results["methods"])
        table = (outdir / "table.csv").read_text().splitlines()
        assert table[0] == "method,classifier,oa,aa,kappa,per_class"
        assert len(table) == 1 + 2 + 2 + 3  # header + per-method classifiers
        pred_lines = (outdir / "predictions_cospace_1nn.csv").read_text().splitlines()
        assert pred_lines[0] == "index,label"
        assert pred_lines[1].startswith("0,")
