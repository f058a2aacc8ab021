"""Cross-validated grid search and benchmark runs."""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import baselines, classify, data, solver
from .blas import single_thread
from .data import PairedDataset
from .errors import ValidationError, check_keys, check_number, check_numbers
from .graph import class_pencil, knn_graph, pencil
from .metrics import MetricsReport

# each projection method's grid axes; GridSpec holds axis `a`'s values as `a + "s"`
METHOD_AXES = {"pjdr": ("dim",), "lusma": ("dim", "k", "sigma"), "lsma": ("dim",),
               "cospace": ("dim", "alpha", "beta")}
KNOWN_METHODS = ("baseline", *METHOD_AXES)


def _check_method(method):
    if method not in KNOWN_METHODS:
        raise ValidationError(
            f"unknown method {method!r}; known methods: {', '.join(KNOWN_METHODS)}")


_GRID_LISTS = {"dims": Integral, "alphas": Real, "betas": Real,
               "ks": Integral, "sigmas": Real}


@dataclass(frozen=True)
class GridSpec:
    dims: tuple = (10, 20, 30, 40, 50)
    alphas: tuple = (1e-2, 1e-1, 1e0, 1e1, 1e2)
    betas: tuple = (1e-2, 1e-1, 1e0, 1e1, 1e2)
    ks: tuple = (10, 20, 30, 40, 50)
    sigmas: tuple = (1e-2, 1e-1, 1e0, 1e1, 1e2)
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, kind in _GRID_LISTS.items():
            values = getattr(self, name)
            check_numbers(f"grid {name}", values, kind)
            if any(v <= 0 for v in values):
                raise ValidationError(f"{name} must be positive")
        check_number("grid folds", self.folds, Integral)
        check_number("grid seed", self.seed, Integral)
        if self.folds < 2:
            raise ValidationError("folds must be at least 2")
        if self.seed < 0:
            raise ValidationError("grid seed must be nonnegative")

    @staticmethod
    def from_dict(doc):
        """A GridSpec from a config's `grid` block; JSON lists become tuples."""
        check_keys("grid", doc, [f.name for f in fields(GridSpec)])
        return GridSpec(**{name: tuple(v) if isinstance(v, list) else v
                           for name, v in doc.items()})


def kfold_split(n, folds, seed):
    """Seeded shuffled partition into `folds` validation blocks (sizes +-1)."""
    if folds > n:
        raise ValidationError(f"cannot split {n} samples into {folds} folds")
    if folds < 2:
        raise ValidationError("folds must be at least 2")
    perm = np.random.default_rng(seed).permutation(n)
    return [(np.setdiff1d(np.arange(n), val), np.sort(val))
            for val in np.array_split(perm, folds)]


@dataclass(frozen=True)
class FittedMethod:
    """MS projection (the identity for `baseline`), 1NN references and model."""

    theta_m: np.ndarray
    references: classify.ReferenceSet
    model: object = None

    def embed_ms(self, x):
        return self.theta_m @ np.asarray(x, dtype=float)


def _cospace_hyper(params, hyper_overrides):
    return solver.make_hyperparams(params["alpha"], params["beta"], params["dim"],
                                   hyper_overrides)


def _fitted_cospace(model):
    return FittedMethod(model.theta_m, classify.model_reference_set(model), model)


@single_thread()
def fit_method(ds: PairedDataset, method, params, hyper_overrides=None) -> FittedMethod:
    """Train one method, on one BLAS thread, and package its MS projection and references."""
    _check_method(method)
    if method == "baseline":
        return FittedMethod(np.eye(ds.ms.shape[0]), classify.ReferenceSet(ds.ms, ds.labels))
    if method == "cospace":
        return _fitted_cospace(solver.fit(ds, _cospace_hyper(params, hyper_overrides)))
    d_m = ds.ms.shape[0]
    if method == "pjdr":
        one_class = replace(ds, labels=np.ones(ds.num_samples, dtype=int), num_classes=1)
        proj = baselines.fit_pjdr(d_m, class_pencil(one_class)[0], params["dim"])
    elif method == "lsma":
        proj = baselines.fit_lpp(d_m, class_pencil(ds), params["dim"])
    else:
        proj = baselines.fit_lpp(d_m, pencil(data.stack_system(ds).xtilde, knn_graph(
            [ds.ms, ds.hs], params["k"], params["sigma"])), params["dim"])
    emb = np.hstack([proj.theta_m @ ds.ms, proj.theta_h @ ds.hs])
    refs = classify.ReferenceSet(emb, np.concatenate([ds.labels, ds.labels]))
    return FittedMethod(proj.theta_m, refs, proj)


def _subset(ds: PairedDataset, idx) -> PairedDataset:
    return PairedDataset(ms=ds.ms[:, idx], hs=ds.hs[:, idx],
                         labels=ds.labels[idx], num_classes=ds.num_classes)


def method_grid_cells(method, grid: GridSpec):
    """Parameter cells for a method, in tie-break order."""
    if method not in METHOD_AXES:
        raise ValidationError(f"grid search does not apply to method {method!r}")
    axes = METHOD_AXES[method]
    values = (sorted(getattr(grid, axis + "s")) for axis in axes)
    return [dict(zip(axes, cell)) for cell in itertools.product(*values)]


def _cv_scores(ds, method, cells, splits, hyper_overrides):
    """Each cell's mean validation OA over the folds.

    Each fold's training set and validation slice are built once and shared
    by every cell. CoSpace fits every (cell, fold) of a dim in one lockstep
    `solver.fit_many`; the cells come in dim order, so a dim's cells are
    consecutive.
    """
    train = [_subset(ds, train_idx) for train_idx, _ in splits]
    val = [(ds.ms[:, val_idx], ds.labels[val_idx]) for _, val_idx in splits]
    if method == "cospace":
        fits = (_fitted_cospace(model)
                for _, same_dim in itertools.groupby(cells, key=lambda params: params["dim"])
                for model in solver.fit_many([(fold, _cospace_hyper(params, hyper_overrides))
                                              for params in same_dim for fold in train]))
    else:
        fits = (fit_method(fold, method, params, hyper_overrides)
                for params in cells for fold in train)
    oa = [float(np.mean(classify.knn1_predict(fit.references, fit.embed_ms(ms)) == labels))
          for fit, (ms, labels) in zip(fits, itertools.cycle(val))]
    return [float(np.mean(oa[i:i + len(val)])) for i in range(0, len(oa), len(val))]


def grid_search(ds: PairedDataset, method, grid: GridSpec, hyper_overrides=None):
    """Mean-validation-OA maximizing cell; ties go to the earliest cell.

    Cells are enumerated in (dim, alpha, beta, k, sigma) order, so the first
    maximum realizes the documented tie-break. `baseline` has no grid.
    """
    if method == "baseline":
        return {"params": {}, "score": None}, []
    cells = method_grid_cells(method, grid)
    splits = kfold_split(ds.num_samples, grid.folds, grid.seed)
    table = [{"params": params, "score": score}
             for params, score in zip(cells, _cv_scores(ds, method, cells, splits,
                                                        hyper_overrides))]
    return max(table, key=lambda row: row["score"]), table


# ---------------------------------------------------------------------------
# Benchmark runs.
# ---------------------------------------------------------------------------


def _load_dataset(dataset):
    if isinstance(dataset, dict) and "scene_spec" in dataset:
        check_keys("dataset", dataset, ("scene_spec",))
        return data.make_synthetic_scene(data.SceneSpec.from_json(dataset["scene_spec"]))
    files = ("train_ms", "train_hs", "test_ms")
    check_keys("dataset", dataset, files, required=files)
    for key in files:
        if not isinstance(dataset[key], str):
            raise ValidationError(f"dataset {key!r} must be a path string, got {dataset[key]!r}")
    ds = data.load_pairs(dataset["train_ms"], dataset["train_hs"])
    test_ms, test_labels = data.load_csv(dataset["test_ms"])
    if test_labels is None:
        raise ValidationError("test CSV carries no label column")
    if test_ms.shape[0] != ds.ms.shape[0]:
        raise ValidationError(f"test CSV has {test_ms.shape[0]} bands, training "
                              f"MS has {ds.ms.shape[0]}")
    return ds, test_ms, test_labels


def resolve_config(config):
    """Check a `gridsearch`/`benchmark` config and return (dataset, grid,
    hyper overrides, methods, linear_lambda).

    A top-level `seed` overrides `grid.seed`; without either the seed is 0. A
    grid dim above d_M + d_H is rejected, before any fit, if a projection
    method is configured, and with LUSMA a grid k that the smallest CV training
    fold's stacked samples cannot hold.
    """
    check_keys("config", config, ("dataset", "methods", "grid", "hyper", "seed",
                                  "linear_lambda"), required=("dataset", "methods"))
    methods = config["methods"]
    if not isinstance(methods, list) or not methods:
        raise ValidationError(f"config methods must be a nonempty list, got {methods!r}")
    for method in methods:
        _check_method(method)
    lam = config.get("linear_lambda", 1e-3)
    check_number("config linear_lambda", lam, Real)
    if lam <= 0:
        raise ValidationError(f"config linear_lambda must be positive, got {lam!r}")
    grid = GridSpec.from_dict(config.get("grid", {}))
    if "seed" in config:
        grid = replace(grid, seed=config["seed"])
    # checks the override block even when no CoSpace cell is fitted
    solver.make_hyperparams(grid.alphas[0], grid.betas[0], grid.dims[0], config.get("hyper"))
    dataset = _load_dataset(config["dataset"])
    d_total = dataset[0].ms.shape[0] + dataset[0].hs.shape[0]
    if max(grid.dims) > d_total and any(method in METHOD_AXES for method in methods):
        raise ValidationError(f"grid dim {max(grid.dims)} exceeds d_M+d_H={d_total}")
    # kfold_split's largest validation block has ceil(n / folds) pairs
    stacked = 2 * (dataset[0].num_samples - -(-dataset[0].num_samples // grid.folds))
    if "lusma" in methods and max(grid.ks) >= stacked:
        raise ValidationError(f"grid k {max(grid.ks)} must be smaller than the smallest CV "
                              f"training fold's stacked sample count {stacked}")
    return dataset, grid, config.get("hyper"), methods, lam


def run_benchmark(config):
    """Grid-search, refit, and evaluate every configured method.

    Returns (results, predictions, timings): `results` is a JSON-ready dict
    whose content is deterministic for a fixed config; wall-clock seconds are
    kept apart in `timings` so results files stay byte-reproducible.
    """
    (ds, test_ms, test_labels), grid, hyper_overrides, methods, lam = resolve_config(config)
    results = {"seed": grid.seed, "methods": {}}
    predictions = {}
    timings = {}
    for method in methods:
        start = time.perf_counter()
        best, _ = grid_search(ds, method, grid, hyper_overrides=hyper_overrides)
        fitted = fit_method(ds, method, best["params"], hyper_overrides)
        embedded_test = fitted.embed_ms(test_ms)
        preds = {"1nn": classify.knn1_predict(fitted.references, embedded_test),
                 "linear": classify.linear_classify(fitted.references, embedded_test,
                                                    ds.num_classes, lam)}
        if method == "cospace":
            preds["p"] = classify.predict_via_p(fitted.model, test_ms)
        reports = {
            clf: MetricsReport.from_predictions(test_labels, pred, ds.num_classes).to_dict()
            for clf, pred in preds.items()
        }
        results["methods"][method] = {
            "best_params": best["params"],
            "cv_score": best["score"],
            "metrics": reports,
        }
        predictions[method] = {clf: pred.tolist() for clf, pred in preds.items()}
        timings[method] = time.perf_counter() - start
    return results, predictions, timings


def write_benchmark_outputs(outdir, results, predictions, timings):
    os.makedirs(outdir, exist_ok=True)
    data.save_json(os.path.join(outdir, "results.json"), results)
    data.save_json(os.path.join(outdir, "timings.json"), timings)
    lines = ["method,classifier,oa,aa,kappa,per_class"]
    for method in sorted(results["methods"]):
        for clf in sorted(results["methods"][method]["metrics"]):
            rep = results["methods"][method]["metrics"][clf]
            per = ";".join("" if v is None else repr(v) for v in rep["per_class"])
            lines.append(
                f"{method},{clf},{rep['oa']!r},{rep['aa']!r},{rep['kappa']!r},{per}"
            )
    data.atomic_write(os.path.join(outdir, "table.csv"), "\n".join(lines) + "\n")
    for method, per_clf in predictions.items():
        for clf, pred in per_clf.items():
            data.save_predictions(
                os.path.join(outdir, f"predictions_{method}_{clf}.csv"), pred)
