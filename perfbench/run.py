"""Benchmark of cospace: a CV grid search, large-N fits and scene-scale prediction.

Run from the root of a checkout (the program is imported from `src/`):

    python3 perfbench/run.py --workload cv_grid --seed 0 --seconds 25 --trace 0

Every workload runs whole rounds of the same three stages until `--seconds`
have passed, and checks every output apart from the program (`checks.py`):

1. grid: `experiment.run_benchmark` (the code behind `cospace benchmark`)
   on the shipped scene, and its output files;
2. fits: CoSpace through `solver.fit`, then LSMA and LUSMA through
   `experiment.fit_method`;
3. cli: `simulate -> fit -> predict 1nn -> predict linear -> evaluate`, each a
   child process (`python -m cospace.cli`).

The workloads differ in the inputs of the stages, so each one puts the work
in different layers; see README.md. The last line of standard output is one
JSON object: end-to-end metrics with `--trace 0`, per-layer metrics (totals
per round, timed by `tracer.py`) with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENE = os.path.join(ROOT, "data", "metamer_scene.json")

import checks  # noqa: E402  (sits beside this file)

METHODS = ["baseline", "pjdr", "lusma", "lsma", "cospace"]
# two CoSpace cells, one cell for each other method
MIN_GRID = {"dims": [4], "alphas": [0.1, 1.0], "betas": [0.01], "ks": [5],
            "sigmas": [1.0], "folds": 3}
# 8 CoSpace cells, 8 LUSMA cells, 2 PJDR/LSMA cells, 3-fold CV
SMALL_GRID = {"dims": [2, 4], "alphas": [0.1, 1.0], "betas": [0.01, 0.1],
              "ks": [5, 10], "sigmas": [0.1, 1.0], "folds": 3}
# CoSpace fits on the scene stop after at most 10 outer steps, so the work of
# a fit varies less from one scene draw (seed) to the next
SCENE_HYPER = {"outer_max_iter": 10}
SCENE_FITS = {"cospace": {"dim": 4, "alpha": 0.1, "beta": 0.01, **SCENE_HYPER},
              "lsma": {"dim": 4},
              "lusma": {"dim": 4, "k": 5, "sigma": 1.0}}
LARGE_FITS = {"cospace": {"dim": 20, "alpha": 0.01, "beta": 0.01},
              "lsma": {"dim": 20},
              "lusma": {"dim": 20, "k": 10, "sigma": 2.0}}
# On the 90-pair scene an LSMA or LUSMA fit takes milliseconds. Such a fit
# stalls now and then on BLAS thread wake-ups, and it slowed by a third or
# more under 16% CPU steal on a shared 2-vCPU VM. So these two fit 450 pairs
# from the same class model. Each round times a batch of fits in a row, and
# the metric is the mean per fit.
SCENE_BASELINE_PAIRS_PER_CLASS = 150
SCENE_FIT_BATCH = {"cospace": 3, "lsma": 10, "lusma": 4}
LARGE_FIT_BATCH = {"cospace": 1, "lsma": 1, "lusma": 1}
LARGE_PAIRS_PER_CLASS = 400  # 5 classes: N = 2,000 pairs, 2N = 4,000 stacked
QUERY_PIXELS = 100_000
LINEAR_LAMBDA = 1e-3  # the default of `cospace predict --linear-lambda`

WORKLOADS = {
    "cv_grid": {"grid": SMALL_GRID, "fits": "scene", "queries": None},
    "large_fits": {"grid": MIN_GRID, "fits": "large", "queries": None},
    "scene_predict": {"grid": MIN_GRID, "fits": "scene", "queries": QUERY_PIXELS},
}
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s", "grid_s": "s", "fit_s.cospace": "s", "fit_s.lsma": "s",
    "fit_s.lusma": "s", "pipeline_s": "s", "predict_px_per_s.1nn": "px/s",
    "predict_px_per_s.linear": "px/s", "peak_rss_mb": "MB",
}
PER_LAYER_TIMES = {
    "solver": ["admm_update_j", "admm_update_theta", "admm_update_g",
               "admm_update_duals", "solve_theta_admm", "update_p", "objective",
               "factor_j_system", "factor_theta_system"],
    "graph": ["lda_like_adjacency", "laplacian", "knn_gaussian_adjacency"],
    "baselines": ["fit_pjdr", "fit_lpp"],
    "classify": ["knn1_predict", "fit_linear", "linear_predict", "predict_via_p"],
    "data": ["make_synthetic_scene", "stack_system", "load_csv", "save_csv"],
    "experiment": ["grid_search", "fit_method"],
    "metrics": ["from_predictions"],
    "cli": ["simulate", "fit", "predict", "evaluate"],
}
PER_LAYER_COUNTS = {
    "solver.fit_calls": "count", "solver.outer_iters": "count",
    "solver.inner_solves": "count", "solver.inner_iters": "count",
    "solver.inner_converged": "count", "solver.candidates_rejected": "count",
    "graph.dense_bytes": "bytes", "classify.dist_bytes": "bytes",
    "experiment.fit_method_calls": "count",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def cpu_ticks():
    """(steal, total) CPU ticks of this machine so far, where Linux gives them."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def large_pairs():
    """The N = 2,000 pair set of acceptance criterion 12's generator.

    It does not depend on --seed: the CoSpace fit on it is the counted
    failure (see README.md), which must fail the same way in every run.
    """
    from cospace.data import PairedDataset

    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2, 3, 4, 5], LARGE_PAIRS_PER_CLASS)
    shift = rng.standard_normal((60, 5))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((60, labels.size))
    srf = rng.random((10, 60))
    srf /= srf.sum(axis=1, keepdims=True)
    return PairedDataset(ms=srf @ hs, hs=hs, labels=labels, num_classes=5)


class Run:
    def __init__(self, workload, seed, trace, workdir):
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
        self.times = {name: [] for name in END_TO_END
                      if name not in ("setup_s", "peak_rss_mb")}
        self.cli_s = {"simulate": 0.0, "fit": 0.0, "predict": 0.0, "evaluate": 0.0}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Import the program in a child and make the inputs; return seconds."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cospace.cli"],
                       env=child_env(), check=True)
        from cospace import data

        with open(SCENE, "r", encoding="utf-8") as fh:
            shipped = json.load(fh)
        self.scene_doc = dict(shipped, seed=self.seed)
        self.spec_path = os.path.join(self.workdir, "scene.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(self.scene_doc, fh)
        spec = data.SceneSpec.from_json(self.scene_doc)
        self.num_classes = len(spec.classes)
        self.test_labels = np.concatenate([
            np.full(int(round(c.size * spec.test_fraction)), k)
            for k, c in enumerate(spec.classes, start=1)])
        self.grid_config = {"dataset": {"scene_spec": self.scene_doc},
                            "methods": METHODS, "grid": self.cfg["grid"],
                            "hyper": SCENE_HYPER, "seed": self.seed}
        self.hyper_path = os.path.join(self.workdir, "hyper.json")
        with open(self.hyper_path, "w", encoding="utf-8") as fh:
            json.dump(SCENE_HYPER, fh)
        if self.cfg["fits"] == "large":
            self.fit_ds = self.baseline_ds = large_pairs()
            self.fit_params, self.fit_batch = LARGE_FITS, LARGE_FIT_BATCH
        else:
            # the shipped draw, whatever the seed: fit times then differ
            # between runs only by noise, not by the data
            self.fit_ds, _, _ = data.make_synthetic_scene(data.SceneSpec.from_json(shipped))
            size = round(SCENE_BASELINE_PAIRS_PER_CLASS / (1.0 - spec.test_fraction))
            self.baseline_ds, _, _ = data.make_synthetic_scene(data.SceneSpec.from_json(
                dict(shipped, classes=[dict(c, size=size) for c in shipped["classes"]])))
            self.fit_params, self.fit_batch = SCENE_FITS, SCENE_FIT_BATCH
        self.query_path = None
        if self.cfg["queries"]:
            # queries drawn from the scene's class model, apart from its training draw
            size = math.ceil(self.cfg["queries"] / (len(spec.classes) * spec.test_fraction))
            query_seed = int(np.random.SeedSequence([self.seed, 1]).generate_state(1)[0])
            big = data.SceneSpec.from_json(dict(
                self.scene_doc, seed=query_seed,
                classes=[dict(c, size=size) for c in self.scene_doc["classes"]]))
            _, self.queries, self.query_labels = data.make_synthetic_scene(big)
            self.query_path = os.path.join(self.workdir, "queries.csv")
            data.save_csv(self.query_path, self.queries, self.query_labels)
        # evaluate reads the truth as a label-only CSV
        self.truth_path = os.path.join(self.workdir, "truth.csv")
        truth = self.query_labels if self.query_path else self.test_labels
        self.n_query = truth.size
        with open(self.truth_path, "w", encoding="utf-8") as fh:
            fh.write("label\n" + "".join(f"{v}\n" for v in truth))
        return time.perf_counter() - start

    # -- timed stages -------------------------------------------------------

    def _timed(self, name, fn, *args, reps=1):
        """Call fn(*args) reps times in a row; record the mean time per call."""
        self.attempted += reps
        start = time.perf_counter()
        results = [fn(*args) for _ in range(reps)]
        self.times[name].append((time.perf_counter() - start) / reps)
        return results

    def _check(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
            return None

    def grid_stage(self):
        from cospace import experiment

        out = os.path.join(self.workdir, "grid")

        def run():
            results, predictions, timings = experiment.run_benchmark(self.grid_config)
            experiment.write_benchmark_outputs(out, results, predictions, timings)
            return results

        results, = self._timed("grid_s", run)
        self._check(self.check_grid, results, out)

    def check_grid(self, results, out):
        from cospace import experiment

        grid = self.cfg["grid"]
        n_train = int(sum(c["size"] for c in self.scene_doc["classes"])) - self.test_labels.size
        checks.check_folds(experiment.kfold_split(n_train, grid["folds"], self.seed),
                           n_train, grid["folds"])
        oa = {}
        for method, entry in results["methods"].items():
            for clf, report in entry["metrics"].items():
                pred = read_predictions(os.path.join(out, f"predictions_{method}_{clf}.csv"))
                checks.check_report(report, self.test_labels, pred, self.num_classes,
                                    f"grid {method}/{clf}")
                oa[method, clf] = float(np.mean(pred == self.test_labels))
        checks.check_beats(oa["cospace", "1nn"], oa["baseline", "1nn"],
                           "grid: CoSpace 1-NN OA against raw MS")

    def fits_stage(self):
        from cospace import experiment, solver

        ds, params, batch = self.fit_ds, self.fit_params, self.fit_batch
        hyper = solver.Hyperparams(**params["cospace"])
        for model in self._timed("fit_s.cospace", solver.fit, ds, hyper,
                                 reps=batch["cospace"]):
            descended = self._check(
                checks.check_cospace_fit, ds.ms, ds.hs, ds.labels, ds.num_classes,
                hyper.alpha, hyper.beta, model.theta, model.p, model.objective_trace)
            if descended is False:
                self.failed += 1
        ds = self.baseline_ds
        x = checks.stack_pairs(ds.ms, ds.hs)
        for method in ("lsma", "lusma"):
            fits = self._timed(f"fit_s.{method}", experiment.fit_method, ds, method,
                               params[method], reps=batch[method])
            if method == "lsma":
                a, b = checks.supervised_pencil(x, np.concatenate([ds.labels, ds.labels]))
            else:
                a, b = checks.knn_pencil(x, params[method]["k"], params[method]["sigma"])
            for fitted in fits:
                self._check(checks.check_pencil, fitted.model.theta,
                            fitted.model.params["eigenvalues"], a, b)

    def _cli(self, command, *args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cospace.cli", command, *args]
        else:
            stats = os.path.join(self.workdir, "trace.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), stats, command, *args]
        self.attempted += 1
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        self.cli_s[command] += elapsed
        if self.tracer is not None:
            with open(stats, "r", encoding="utf-8") as fh:
                self.tracer.add(json.load(fh))
        return elapsed

    def cli_stage(self):
        w = self.workdir
        sim = os.path.join(w, "sim")
        model = os.path.join(w, "model.json")
        fit = SCENE_FITS["cospace"]
        pipeline = self._cli("simulate", "--spec", self.spec_path, "--out", sim)
        pipeline += self._cli(
            "fit", "--train-ms", os.path.join(sim, "train_ms.csv"),
            "--train-hs", os.path.join(sim, "train_hs.csv"), "--dim", str(fit["dim"]),
            "--alpha", str(fit["alpha"]), "--beta", str(fit["beta"]),
            "--hyper", self.hyper_path, "--out", model)
        query_path = self.query_path or os.path.join(sim, "test_ms.csv")
        for clf in ("1nn", "linear"):
            out = os.path.join(w, f"pred_{clf}.csv")
            elapsed = self._cli("predict", "--model", model, "--input", query_path,
                                "--classifier", clf, "--out", out)
            self.times[f"predict_px_per_s.{clf}"].append(elapsed)
            pipeline += elapsed
        report_path = os.path.join(w, "report.json")
        pipeline += self._cli("evaluate", "--pred", os.path.join(w, "pred_1nn.csv"),
                              "--truth", self.truth_path, "--out", report_path)
        self.times["pipeline_s"].append(pipeline)
        self._check(self.check_cli, sim, model, query_path, report_path)

    def check_cli(self, sim, model, query_path, report_path):
        if self.query_path:
            queries, truth = self.queries, self.query_labels
        else:
            queries, truth = read_feature_csv(query_path)
        pred = read_predictions(os.path.join(self.workdir, "pred_1nn.csv"))
        linear = read_predictions(os.path.join(self.workdir, "pred_linear.csv"))
        with open(model, "r", encoding="utf-8") as fh:
            model_doc = json.load(fh)
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        checks.check_knn1(model_doc, queries, pred)
        checks.check_linear(model_doc, queries, linear, LINEAR_LAMBDA)
        checks.check_report(report, truth, pred, int(max(pred.max(), truth.max())),
                            "cli evaluate")
        train_ms, train_labels = read_feature_csv(os.path.join(sim, "train_ms.csv"))
        raw, _ = checks.nearest_labels(train_ms, train_labels, queries)
        checks.check_beats(float(np.mean(pred == truth)), float(np.mean(raw == truth)),
                           "cli: CoSpace 1-NN OA against raw MS")

    # -- measuring -----------------------------------------------------------

    def measure(self, seconds):
        if self.tracer is not None:
            self.tracer.install()
        ticks = cpu_ticks()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            self.grid_stage()
            self.fits_stage()
            self.cli_stage()
            rounds += 1
        if self.tracer is not None:
            self.tracer.uninstall()
        steal = ""
        if ticks is not None and (after := cpu_ticks()) is not None and after[1] > ticks[1]:
            # time the host gave to other guests while this VM wanted the CPU
            steal = f", {(after[0] - ticks[0]) / (after[1] - ticks[1]):.1%} CPU steal"
        print(f"{rounds} rounds, {(time.perf_counter() - start) / rounds:.3f} s per round"
              f"{steal}", file=sys.stderr)
        return rounds

    def end_to_end(self, setup_times):
        med = {name: statistics.median(values) for name, values in self.times.items()}
        for clf in ("1nn", "linear"):
            med[f"predict_px_per_s.{clf}"] = self.n_query / med[f"predict_px_per_s.{clf}"]
        med["setup_s"] = statistics.median(setup_times)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        med["peak_rss_mb"] = peak_kb / 1024.0
        return {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self, rounds):
        out = {}
        for layer, names in PER_LAYER_TIMES.items():
            for fn in names:
                if layer == "cli":
                    value = self.cli_s[fn]
                else:
                    value = self.tracer.self_s.get(f"{layer}.{fn}", 0.0)
                out[f"{layer}.{fn}_s"] = {"value": value / rounds, "unit": "s"}
        for name, unit in PER_LAYER_COUNTS.items():
            out[name] = {"value": self.tracer.counts.get(name, 0.0) / rounds, "unit": unit}
        return out


def read_predictions(path):
    """Labels of an `index,label` CSV, parsed without the program."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    if table.shape[1] != 2 or not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise checks.CheckFailed(f"{path}: indices are not 0..n-1")
    return table[:, 1]


def read_feature_csv(path):
    """(bands x pixels, labels) of a `band_1..band_d,label` CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1].T.copy(), table[:, -1].astype(int)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cospace", "__init__.py")):
        sys.exit(f"no program to measure: {SRC}/cospace is missing")
    sys.path.insert(0, SRC)
    import cospace.cli  # noqa: F401  (the parent's own import, before set-up is timed)

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        run = Run(args.workload, args.seed, args.trace, workdir)
        setup_times = [run.setup() for _ in range(SETUP_REPS)]
        rounds = run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    metrics = run.per_layer(rounds) if args.trace else run.end_to_end(setup_times)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
