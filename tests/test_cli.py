import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cospace import classify, cli, data, experiment, solver

REPO = Path(__file__).resolve().parents[1]


def _write_scene(path, seed=3):
    hs_centers = np.arange(400.0, 640.0, 20.0)
    ms_centers = np.array([450.0, 530.0, 610.0])
    rng = np.random.default_rng(5)
    spec = data.SceneSpec(
        classes=tuple(
            data.ClassSpec(hs_mean=0.5 + 0.3 * rng.standard_normal(hs_centers.size),
                           size=20)
            for _ in range(3)
        ),
        noise_sigma=0.15,
        ms_centers=ms_centers,
        hs_centers=hs_centers,
        srf_fwhm=40.0,
        test_fraction=0.5,
        seed=seed,
    )
    path.write_text(spec.to_json())
    return spec


class TestPipeline:
    def test_simulate_fit_transform_predict_evaluate(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        _write_scene(spec_path)
        scene_dir = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec_path),
                         "--out", str(scene_dir)]) == 0
        for name in ("train_ms.csv", "train_hs.csv", "test_ms.csv"):
            assert (scene_dir / name).exists()

        model_path = tmp_path / "model.json"
        assert cli.main(["fit",
                         "--train-ms", str(scene_dir / "train_ms.csv"),
                         "--train-hs", str(scene_dir / "train_hs.csv"),
                         "--alpha", "0.1", "--beta", "0.01", "--dim", "3",
                         "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["dim"] == 3
        # trace must be non-increasing
        trace = doc["objective_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

        embedded = tmp_path / "embedded.csv"
        assert cli.main(["transform", "--model", str(model_path),
                         "--input", str(scene_dir / "test_ms.csv"),
                         "--modality", "ms", "--out", str(embedded)]) == 0
        emb, _ = data.load_csv(embedded)
        assert emb.shape[0] == 3

        pred_path = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(model_path),
                         "--input", str(scene_dir / "test_ms.csv"),
                         "--classifier", "1nn",
                         "--out", str(pred_path)]) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "index,label"

        report_path = tmp_path / "report.json"
        assert cli.main(["evaluate", "--pred", str(pred_path),
                         "--truth", str(scene_dir / "test_ms.csv"),
                         "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) >= {"oa", "aa", "kappa", "confusion"}
        assert report["oa"] > 0.5
        out = capsys.readouterr().out
        assert "oa=" in out

    def test_predict_linear_and_p(self, tmp_path):
        spec_path = tmp_path / "scene.json"
        _write_scene(spec_path)
        scene_dir = tmp_path / "scene"
        cli.main(["simulate", "--spec", str(spec_path), "--out", str(scene_dir)])
        model_path = tmp_path / "model.json"
        cli.main(["fit", "--train-ms", str(scene_dir / "train_ms.csv"),
                  "--train-hs", str(scene_dir / "train_hs.csv"),
                  "--dim", "3", "--out", str(model_path)])
        for clf in ("linear", "p"):
            out = tmp_path / f"pred_{clf}.csv"
            assert cli.main(["predict", "--model", str(model_path),
                             "--input", str(scene_dir / "test_ms.csv"),
                             "--classifier", clf, "--out", str(out)]) == 0
            assert out.read_text().startswith("index,label\n")

    def test_predict_loads_no_scipy(self, tmp_path):
        spec_path = tmp_path / "scene.json"
        _write_scene(spec_path)
        scene_dir = tmp_path / "scene"
        cli.main(["simulate", "--spec", str(spec_path), "--out", str(scene_dir)])
        model_path = tmp_path / "model.json"
        cli.main(["fit", "--train-ms", str(scene_dir / "train_ms.csv"),
                  "--train-hs", str(scene_dir / "train_hs.csv"),
                  "--dim", "3", "--out", str(model_path)])
        script = ("import sys\n"
                  "from cospace import cli\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        for clf in ("1nn", "linear", "p"):
            out = subprocess.run(
                [sys.executable, "-c", script, "predict", "--model", str(model_path),
                 "--input", str(scene_dir / "test_ms.csv"), "--classifier", clf,
                 "--out", str(tmp_path / f"pred_{clf}.csv")],
                env=env, capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            assert out.stdout.splitlines()[-1] == "[]", (clf, out.stdout)

    def test_predict_pgm(self, tmp_path):
        spec_path = tmp_path / "scene.json"
        _write_scene(spec_path)
        scene_dir = tmp_path / "scene"
        cli.main(["simulate", "--spec", str(spec_path), "--out", str(scene_dir)])
        model_path = tmp_path / "model.json"
        cli.main(["fit", "--train-ms", str(scene_dir / "train_ms.csv"),
                  "--train-hs", str(scene_dir / "train_hs.csv"),
                  "--dim", "2", "--out", str(model_path)])
        pgm = tmp_path / "map.pgm"
        assert cli.main(["predict", "--model", str(model_path),
                         "--input", str(scene_dir / "test_ms.csv"),
                         "--pgm", str(pgm), "--width", "10", "--height", "3",
                         "--out", str(tmp_path / "pred.csv")]) == 0
        assert pgm.read_bytes().startswith(b"P5\n10 3\n255\n")
        # missing dimensions is a usage error
        assert cli.main(["predict", "--model", str(model_path),
                         "--input", str(scene_dir / "test_ms.csv"),
                         "--pgm", str(pgm),
                         "--out", str(tmp_path / "pred.csv")]) == 1

    # the scene has 30 test pixels, so -3 x -10 fills the map and 10 x 10 does not
    @pytest.mark.parametrize("size", [[], ["--width", "10"], ["--width", "-3", "--height", "-10"],
                                      ["--width", "0", "--height", "30"],
                                      ["--width", "10", "--height", "10"]])
    def test_predict_pgm_rejects_a_bad_size_before_writing(self, tmp_path, size):
        scene_dir, model_path, _ = self._fitted_scene(tmp_path)
        out, pgm = tmp_path / "pred.csv", tmp_path / "map.pgm"
        assert cli.main(["predict", "--model", str(model_path),
                         "--input", str(scene_dir / "test_ms.csv"), "--pgm", str(pgm), *size,
                         "--out", str(out)]) == 1
        assert not out.exists() and not pgm.exists()

    def _fitted_scene(self, tmp_path):
        _write_scene(tmp_path / "scene.json")
        scene_dir = tmp_path / "scene"
        cli.main(["simulate", "--spec", str(tmp_path / "scene.json"),
                  "--out", str(scene_dir)])
        model_path = tmp_path / "model.json"
        cli.main(["fit", "--train-ms", str(scene_dir / "train_ms.csv"),
                  "--train-hs", str(scene_dir / "train_hs.csv"),
                  "--dim", "3", "--out", str(model_path)])
        return scene_dir, model_path, solver.load_model(model_path)

    def test_transform_hs(self, tmp_path):
        scene_dir, model_path, model = self._fitted_scene(tmp_path)
        out = tmp_path / "embedded.csv"
        assert cli.main(["transform", "--model", str(model_path),
                         "--input", str(scene_dir / "train_hs.csv"),
                         "--modality", "hs", "--out", str(out)]) == 0
        hs, _ = data.load_csv(scene_dir / "train_hs.csv")
        emb, _ = data.load_csv(out)
        assert np.array_equal(emb, model.theta_h @ hs)

    def test_predict_with_ms_refs(self, tmp_path):
        scene_dir, model_path, model = self._fitted_scene(tmp_path)
        # give the HS copies a class of their own, so a prediction that used
        # any of them shows; the model declares that class, with a zero row of P
        doc = json.loads(model_path.read_text())
        hs_label = model.num_classes + 1
        doc["num_classes"] = hs_label
        doc["p"].append([0.0] * model.dim)
        doc["refs"]["labels"] = [hs_label if modality else label for label, modality
                                 in zip(doc["refs"]["labels"], doc["refs"]["modalities"])]
        model_path.write_text(json.dumps(doc))
        model = solver.load_model(model_path)
        preds = {}
        for refs in ("ms", "both"):
            out = tmp_path / f"pred_{refs}.csv"
            assert cli.main(["predict", "--model", str(model_path),
                             "--input", str(scene_dir / "test_ms.csv"),
                             "--refs", refs, "--out", str(out)]) == 0
            preds[refs] = data.load_predictions(out)
        ms, _ = data.load_csv(scene_dir / "test_ms.csv")
        expected = classify.knn1_predict(classify.model_reference_set(model, "ms"),
                                         model.theta_m @ ms)
        assert np.array_equal(preds["ms"], expected)
        assert hs_label not in preds["ms"] and hs_label in preds["both"]


class TestExitCodes:
    def test_missing_file_is_io(self, tmp_path, capsys):
        code = cli.main(["fit", "--train-ms", str(tmp_path / "absent.csv"),
                         "--train-hs", str(tmp_path / "absent.csv"),
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "io" in capsys.readouterr().err

    def test_malformed_csv_is_io(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("band_1\n1.0\nnope\n")
        code = cli.main(["fit", "--train-ms", str(bad), "--train-hs", str(bad),
                         "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_unknown_flag_is_validation(self, capsys):
        assert cli.main(["fit", "--frobnicate"]) == 1
        assert "validation" in capsys.readouterr().err

    def test_unknown_subcommand_is_validation(self):
        assert cli.main(["explode"]) == 1

    def test_oversized_dim_is_validation(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        _write_scene(spec_path)
        scene_dir = tmp_path / "scene"
        cli.main(["simulate", "--spec", str(spec_path), "--out", str(scene_dir)])
        code = cli.main(["fit", "--train-ms", str(scene_dir / "train_ms.csv"),
                         "--train-hs", str(scene_dir / "train_hs.csv"),
                         "--dim", "999", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("foo", 1, id="foo"),
        pytest.param("alpha", 1, id="alpha"),
        pytest.param("inner_max_iter", "5", id="inner_max_iter-str"),
        pytest.param("inner_max_iter", 2.5, id="inner_max_iter-float"),
        pytest.param("outer_tol", True, id="outer_tol-bool"),
    ])
    def test_bad_hyper_key_is_validation(self, tmp_path, capsys, key, value):
        ms = np.array([[1.0, 2.0, 3.0, 4.0]])
        data.save_csv(tmp_path / "ms.csv", ms, [1, 1, 2, 2])
        data.save_csv(tmp_path / "hs.csv", 2 * ms, [1, 1, 2, 2])
        hyper = tmp_path / "hyper.json"
        hyper.write_text(json.dumps({key: value}))
        code = cli.main(["fit", "--train-ms", str(tmp_path / "ms.csv"),
                         "--train-hs", str(tmp_path / "hs.csv"), "--dim", "1",
                         "--hyper", str(hyper), "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: validation" in err and repr(key) in err

    @pytest.mark.parametrize("change, named", [
        pytest.param(lambda d: d.pop("theta"), "'theta'", id="no-theta"),
        pytest.param(lambda d: d["refs"].pop("labels"), "'labels'", id="no-ref-labels"),
        pytest.param(lambda d: d["hyper"].update(foo=1), "'foo'", id="hyper-key"),
        pytest.param(lambda d: d.update(method="lsma"), "method", id="method-lsma"),
        pytest.param(lambda d: d.update(extra=1), "'extra'", id="unknown-key"),
        pytest.param(lambda d: d.update(refs=[]), "refs", id="refs-list"),
        pytest.param(lambda d: d.update(theta="abc"), "theta", id="theta-string"),
        pytest.param(lambda d: d.update(theta=[row[:-1] for row in d["theta"]]), "theta",
                     id="theta-narrow"),
        pytest.param(lambda d: d.update(p=d["p"] + d["p"][:1]), "model p", id="p-shape"),
        pytest.param(lambda d: d.update(d_m="1"), "d_m", id="d_m-string"),
        pytest.param(lambda d: d["refs"]["labels"].__setitem__(0, "1"), "refs.labels",
                     id="ref-labels-string"),
        pytest.param(lambda d: d["refs"]["labels"].__setitem__(-1, 7),
                     "model refs.labels entry must be in [1, 2], got 7", id="ref-label-above"),
        pytest.param(lambda d: d["refs"]["labels"].__setitem__(-1, -3),
                     "model refs.labels entry must be in [1, 2], got -3", id="ref-label-negative"),
        pytest.param(lambda d: d["refs"]["labels"].__setitem__(-1, 10**30),
                     f"model refs.labels entry must be in [1, 2], got {10**30}",
                     id="ref-label-beyond-int64"),
        pytest.param(lambda d: d["refs"]["modalities"].__setitem__(-1, 5),
                     "model refs.modalities entry must be in [0, 1], got 5", id="modality-5"),
        pytest.param(lambda d: d["refs"]["modalities"].__setitem__(-1, -(10**30)),
                     "refs.modalities", id="modality-beyond-int64"),
        pytest.param(lambda d: d["theta"][0].__setitem__(0, 10**400), "model theta entry",
                     id="theta-beyond-float64"),
        pytest.param(lambda d: d.update(objective_trace=5), "objective_trace", id="trace-int"),
        pytest.param(lambda d: d.update(objective_trace="abc"), "objective_trace",
                     id="trace-string"),
        pytest.param(lambda d: d.update(converged="no"), "converged", id="converged-string"),
    ])
    def test_bad_model_is_validation(self, tmp_path, capsys, change, named):
        ms = np.array([[1.0, 2.0, 3.0, 4.0]])
        data.save_csv(tmp_path / "ms.csv", ms, [1, 1, 2, 2])
        data.save_csv(tmp_path / "hs.csv", 2 * ms, [1, 1, 2, 2])
        model = tmp_path / "m.json"
        assert cli.main(["fit", "--train-ms", str(tmp_path / "ms.csv"),
                         "--train-hs", str(tmp_path / "hs.csv"), "--dim", "1",
                         "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        change(doc)
        model.write_text(json.dumps(doc))
        for command in (["predict"], ["transform", "--modality", "ms"]):
            assert cli.main([*command, "--model", str(model),
                             "--input", str(tmp_path / "ms.csv"),
                             "--out", str(tmp_path / "out.csv")]) == 1
            err = capsys.readouterr().err
            assert "error: validation" in err and named in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("change, named", [
        pytest.param(lambda d: d["classes"][0].update(size=150.7), "class 1 size", id="size-float"),
        pytest.param(lambda d: d["classes"][0].update(size="20"), "class 1 size", id="size-str"),
        pytest.param(lambda d: d.update(seed=True), "seed", id="seed-bool"),
        pytest.param(lambda d: d.update(seed=2.9), "seed", id="seed-float"),
        pytest.param(lambda d: d.update(seed=-1), "seed", id="seed-negative"),
        pytest.param(lambda d: d.update(noise_sigma="0.1"), "noise_sigma", id="noise-str"),
        pytest.param(lambda d: d.update(colour=1), "'colour'", id="unknown-key"),
        pytest.param(lambda d: d.pop("noise_sigma"), "'noise_sigma'", id="missing-key"),
        pytest.param(lambda d: d["classes"][0].update(hs_mean="abc"), "hs_mean", id="hs-mean-str"),
        pytest.param(lambda d: d["classes"][1].update(name="b"), "'name'", id="class-key"),
        pytest.param(lambda d: d.update(classes=5), "classes", id="classes-int"),
        pytest.param(lambda d: d.update(ms_centers=[True, 530.0, 610.0]), "ms_centers[0]",
                     id="center-bool"),
    ])
    def test_bad_scene_is_validation(self, tmp_path, capsys, change, named):
        spec_path = tmp_path / "scene.json"
        doc = json.loads(_write_scene(spec_path).to_json())
        change(doc)
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--spec", str(spec_path),
                         "--out", str(tmp_path / "scene")]) == 1
        err = capsys.readouterr().err
        assert "error: validation" in err and named in err
        assert not (tmp_path / "scene").exists()

    def test_singular_system_is_numerical(self, tmp_path, capsys):
        # rank-deficient stacked data with alpha=0 makes the map update singular
        ms = np.array([[1.0, 2.0], [1.0, 2.0]])
        hs = np.array([[3.0, 4.0], [3.0, 4.0]])
        data.save_csv(tmp_path / "ms.csv", ms, [1, 2])
        data.save_csv(tmp_path / "hs.csv", hs, [1, 2])
        code = cli.main(["fit", "--train-ms", str(tmp_path / "ms.csv"),
                         "--train-hs", str(tmp_path / "hs.csv"),
                         "--alpha", "0", "--dim", "3",
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "numerical" in capsys.readouterr().err

    def test_prediction_indices_must_run_from_zero(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("index,label\n1,2\n0,1\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("label\n2\n1\n")
        assert cli.main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(tmp_path / "rep.json")]) == 3
        assert "index column" in capsys.readouterr().err

    def test_label_truth_after_blank_line(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("index,label\n0,1\n1,2\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("\nlabel\n1\n2\n")
        assert cli.main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(tmp_path / "rep.json")]) == 0
        assert json.loads((tmp_path / "rep.json").read_text())["oa"] == 1.0

    def test_prediction_truth_length_mismatch(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("index,label\n0,1\n1,2\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("label\n1\n")
        assert cli.main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(tmp_path / "rep.json")]) == 1


class TestBatchCommands:
    def _config(self, tmp_path):
        spec = _write_scene(tmp_path / "scene.json")
        config = {
            "dataset": {"scene_spec": json.loads(spec.to_json())},
            "methods": ["baseline", "pjdr", "cospace"],
            "grid": {"dims": [2], "alphas": [0.1], "betas": [0.01],
                     "ks": [3], "sigmas": [1.0], "folds": 3},
            "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_benchmark_outputs_are_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        for name in ("run_a", "run_b"):
            assert cli.main(["benchmark", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0
        for artifact in ("results.json", "table.csv", "predictions_cospace_1nn.csv"):
            a = (tmp_path / "run_a" / artifact).read_bytes()
            b = (tmp_path / "run_b" / artifact).read_bytes()
            assert a == b
        timings = json.loads((tmp_path / "run_a" / "timings.json").read_text())
        assert all(v >= 0 for v in timings.values())

    def test_gridsearch_command(self, tmp_path):
        config_path = self._config(tmp_path)
        config = json.loads(config_path.read_text())
        config["methods"] = ["baseline", "pjdr"]
        config_path.write_text(json.dumps(config))
        assert cli.main(["gridsearch", "--config", str(config_path),
                         "--out", str(tmp_path / "gs")]) == 0
        doc = json.loads((tmp_path / "gs" / "gridsearch.json").read_text())
        assert doc["pjdr"]["best"]["params"] == {"dim": 2}
        assert doc["baseline"]["best"]["score"] is None

    @pytest.mark.parametrize("change, named", [
        pytest.param(lambda c, d: c.pop("methods"), "'methods'", id="no-methods"),
        pytest.param(lambda c, d: c.pop("dataset"), "'dataset'", id="no-dataset"),
        pytest.param(lambda c, d: c.update(methods="pjdr"), "methods", id="methods-str"),
        pytest.param(lambda c, d: c.update(methods=[]), "methods", id="methods-empty"),
        pytest.param(lambda c, d: c.update(methods=["pjdr", "x"]), "unknown method 'x'",
                     id="method-unknown"),
        pytest.param(lambda c, d: c.update(linear_lambda="x"), "linear_lambda",
                     id="lambda-str"),
        pytest.param(lambda c, d: c.update(linear_lambda=True), "linear_lambda",
                     id="lambda-bool"),
        pytest.param(lambda c, d: c.update(linear_lambda=0), "linear_lambda",
                     id="lambda-zero"),
        pytest.param(lambda c, d: c.update(linear_lambda=-1e-3), "linear_lambda",
                     id="lambda-negative"),
        pytest.param(lambda c, d: c.update(grd={}), "'grd'", id="top-level-typo"),
        pytest.param(lambda c, d: c["grid"].update(fold=2), "'fold'", id="grid-typo"),
        pytest.param(lambda c, d: c.update(hyper={"foo": 1}, methods=["pjdr"]), "'foo'",
                     id="hyper-typo-without-cospace"),
        pytest.param(lambda c, d: c.update(dataset=[]), "dataset", id="dataset-list"),
        pytest.param(lambda c, d: c["dataset"].update(test_ms="t.csv"), "'test_ms'",
                     id="dataset-scene-and-csv"),
        pytest.param(lambda c, d: c.update(dataset={"train_ms": "t.csv"}), "'train_hs'",
                     id="dataset-partial"),
        pytest.param(lambda c, d: c.update(dataset={
            "train_ms": str(d / "ms.csv"), "train_hs": str(d / "hs.csv"),
            "test_ms": str(d / "test2.csv")}), "2 bands", id="test-bands"),
        pytest.param(lambda c, d: c.update(dataset={
            "train_ms": None, "train_hs": str(d / "hs.csv"),
            "test_ms": str(d / "ms.csv")}), "'train_ms'", id="dataset-path-null"),
        # an integer path would be opened as that file descriptor
        pytest.param(lambda c, d: c.update(dataset={
            "train_ms": str(d / "ms.csv"), "train_hs": str(d / "hs.csv"),
            "test_ms": 12345}), "'test_ms'", id="dataset-path-int"),
    ])
    def test_bad_config_is_the_same_validation_in_both(self, tmp_path, capsys, change,
                                                      named):
        path = self._config(tmp_path)
        config = json.loads(path.read_text())
        ms = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.1, 0.2, 0.3], [1.0, 1.0, 0.0, 0.0]])
        data.save_csv(tmp_path / "ms.csv", ms, [1, 1, 2, 2])
        data.save_csv(tmp_path / "hs.csv", 2 * ms, [1, 1, 2, 2])
        data.save_csv(tmp_path / "test2.csv", ms[:2], [1, 1, 2, 2])
        change(config, tmp_path)
        path.write_text(json.dumps(config))
        errors = []
        for command in ("gridsearch", "benchmark"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "error: validation" in errors[0] and named in errors[0]

    def test_nonpositive_linear_lambda_fits_nothing(self, tmp_path, monkeypatch, capsys):
        path = self._config(tmp_path)
        config = json.loads(path.read_text())
        config["linear_lambda"] = 0
        path.write_text(json.dumps(config))
        calls = []
        monkeypatch.setattr(experiment, "grid_search", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiment, "fit_method", lambda *a, **k: calls.append(a))
        assert cli.main(["benchmark", "--config", str(path),
                         "--out", str(tmp_path / "bench")]) == 1
        assert "linear_lambda must be positive" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["gridsearch", "benchmark"])
    def test_grid_dim_above_the_band_count_fits_nothing(self, tmp_path, monkeypatch,
                                                         capsys, command):
        # the test scene has d_M + d_H = 3 + 12 = 15 bands
        path = self._config(tmp_path)
        config = json.loads(path.read_text())
        config["grid"]["dims"] = [2, 20]
        path.write_text(json.dumps(config))
        calls = []
        monkeypatch.setattr(experiment, "fit_method", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(solver, "fit_many", lambda *a, **k: calls.append(a))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: validation" in err and "grid dim 20 exceeds d_M+d_H=15" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gridsearch", "benchmark"])
    def test_lusma_k_above_the_smallest_fold_fits_nothing(self, tmp_path, monkeypatch, capsys,
                                                          command):
        path = self._config(tmp_path)
        config = json.loads(path.read_text())
        pairs = experiment.resolve_config(config)[0][0].num_samples
        stacked = 2 * (pairs - -(-pairs // 3))  # 3 folds: the smallest training fold, twice
        config.update(methods=["cospace", "pjdr", "lusma"])
        config["grid"]["ks"] = [3, stacked]
        path.write_text(json.dumps(config))
        calls = []
        monkeypatch.setattr(experiment, "fit_method", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(solver, "fit_many", lambda *a, **k: calls.append(a))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: validation" in err
        assert f"grid k {stacked} must be smaller than" in err and f"count {stacked}" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_lusma_k_that_every_fold_holds_is_accepted(self, tmp_path):
        config = json.loads(self._config(tmp_path).read_text())
        pairs = experiment.resolve_config(config)[0][0].num_samples
        config["grid"]["ks"] = [2 * (pairs - -(-pairs // 3)) - 1]
        config.update(methods=["lusma"], grid=dict(config["grid"], dims=[1], sigmas=[1.0]))
        assert experiment.resolve_config(config)[1].ks == tuple(config["grid"]["ks"])
        # without LUSMA no k is fitted, so none is checked
        config["grid"]["ks"] = [10**6]
        config.update(methods=["cospace"])
        experiment.resolve_config(config)

    def test_grid_dim_above_the_band_count_is_no_error_for_baseline(self, tmp_path):
        path = self._config(tmp_path)
        config = json.loads(path.read_text())
        config.update(methods=["baseline"])
        config["grid"]["dims"] = [20]
        path.write_text(json.dumps(config))
        for command in ("gridsearch", "benchmark"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0

    def test_gridsearch_uses_the_grid_seed(self, tmp_path):
        # without a top-level seed, both batch commands score grid.seed's folds
        config_path = self._config(tmp_path)
        config = json.loads(config_path.read_text())
        del config["seed"]
        config["methods"] = ["pjdr"]
        config["grid"].update(dims=[1, 2], seed=7)
        config_path.write_text(json.dumps(config))
        assert cli.main(["gridsearch", "--config", str(config_path),
                         "--out", str(tmp_path / "gs")]) == 0
        doc = json.loads((tmp_path / "gs" / "gridsearch.json").read_text())
        ds, _, _ = data.make_synthetic_scene(
            data.SceneSpec.from_json(json.dumps(config["dataset"]["scene_spec"])))
        scores = {}
        for seed in (0, 7):
            grid = experiment.GridSpec.from_dict({**config["grid"], "seed": seed})
            _, table = experiment.grid_search(ds, "pjdr", grid)
            scores[seed] = [row["score"] for row in table]
        assert scores[0] != scores[7]
        assert [row["score"] for row in doc["pjdr"]["table"]] == scores[7]


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("cospace") is None,
        reason="the cospace console script is not installed; "
               "install it with `pip install -e . --no-build-isolation`",
    )
    def test_entry_point_and_thread_cap(self, tmp_path):
        out = subprocess.run(["cospace", "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "simulate" in out.stdout and "benchmark" in out.stdout

    def test_declared_entry_point_runs(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(REPO / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["cospace"]
        module, _, func = target.partition(":")
        # what the installed script does: exit with the entry point's return value
        script = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script, "--help"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "simulate" in out.stdout and "benchmark" in out.stdout
