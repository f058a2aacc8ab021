"""Cross-validated grid search, training-size sweeps, and benchmark runs."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from . import baselines, classify, data, solver
from .data import PairedDataset
from .errors import ValidationError, check_number
from .graph import knn_gaussian_adjacency, lda_like_adjacency, pencil
from .metrics import MetricsReport

KNOWN_METHODS = ("baseline", "pjdr", "lusma", "lsma", "cospace")


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
            if not isinstance(values, tuple) or len(values) == 0:
                raise ValidationError(f"grid {name} must be a nonempty list")
            for i, v in enumerate(values):
                check_number(f"grid {name}[{i}]", v, kind)
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
        names = {f.name for f in fields(GridSpec)}
        return GridSpec(**{name: tuple(v) if isinstance(v, list) else v
                           for name, v in doc.items() if name in names})


def kfold_split(n, folds, seed):
    """Seeded shuffled partition into `folds` validation blocks (sizes +-1)."""
    if folds > n:
        raise ValidationError(f"cannot split {n} samples into {folds} folds")
    if folds < 2:
        raise ValidationError("folds must be at least 2")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    splits = []
    start = 0
    for size in sizes:
        val = np.sort(perm[start : start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size :]]))
        splits.append((train, val))
        start += size
    return splits


@dataclass(frozen=True)
class FittedMethod:
    """Uniform view over a fitted method: embeddings plus 1NN references."""

    embed_ms: object
    references: classify.ReferenceSet
    model: object = None


def fit_method(ds: PairedDataset, method, params, hyper_overrides=None) -> FittedMethod:
    """Train one method and package its MS embedding and reference set."""
    if method == "baseline":
        refs = classify.ReferenceSet(ds.ms, ds.labels)
        return FittedMethod(lambda x: np.asarray(x, float), refs)
    stacked_labels = np.concatenate([ds.labels, ds.labels])
    if method == "cospace":
        hyper = solver.make_hyperparams(params["alpha"], params["beta"],
                                        params["dim"], hyper_overrides)
        model = solver.fit(ds, hyper)
        refs = classify.model_reference_set(model, "both")
        return FittedMethod(lambda x: solver.embed_ms(model, x), refs, model)
    sys = data.stack_system(ds)
    if method == "pjdr":
        proj = baselines.fit_pjdr(sys, params["dim"])
    elif method == "lusma":
        w = knn_gaussian_adjacency(sys.xtilde, params["k"], params["sigma"])
        proj = baselines.fit_lpp(sys, pencil(sys.xtilde, w), params["dim"])
    elif method == "lsma":
        w = lda_like_adjacency(stacked_labels)
        proj = baselines.fit_lpp(sys, pencil(sys.xtilde, w), params["dim"])
    else:
        raise ValidationError(
            f"unknown method {method!r}; known methods: {', '.join(KNOWN_METHODS)}"
        )
    refs = classify.ReferenceSet(proj.theta @ sys.xtilde, stacked_labels)
    return FittedMethod(lambda x, p=proj: p.theta_m @ np.asarray(x, float), refs, proj)


def _subset(ds: PairedDataset, idx) -> PairedDataset:
    return PairedDataset(ms=ds.ms[:, idx], hs=ds.hs[:, idx],
                         labels=ds.labels[idx], num_classes=ds.num_classes)


def method_grid_cells(method, grid: GridSpec):
    """Parameter cells for a method, in tie-break order."""
    if method == "cospace":
        return [
            {"dim": d, "alpha": a, "beta": b}
            for d in sorted(grid.dims)
            for a in sorted(grid.alphas)
            for b in sorted(grid.betas)
        ]
    if method == "lusma":
        return [
            {"dim": d, "k": k, "sigma": s}
            for d in sorted(grid.dims)
            for k in sorted(grid.ks)
            for s in sorted(grid.sigmas)
        ]
    if method in ("pjdr", "lsma"):
        return [{"dim": d} for d in sorted(grid.dims)]
    raise ValidationError(f"grid search does not apply to method {method!r}")


def _cv_score(ds, method, params, splits, hyper_overrides):
    scores = []
    for train_idx, val_idx in splits:
        fitted = fit_method(_subset(ds, train_idx), method, params, hyper_overrides)
        pred = classify.knn1_predict(fitted.references, fitted.embed_ms(ds.ms[:, val_idx]))
        scores.append(float(np.mean(pred == ds.labels[val_idx])))
    return float(np.mean(scores))


def grid_search(ds: PairedDataset, method, grid: GridSpec, hyper_overrides=None):
    """Mean-validation-OA maximizing cell; ties go to the earliest cell.

    Cells are enumerated in (dim, alpha, beta, k, sigma) order, so the first
    maximum realizes the documented tie-break.
    """
    cells = method_grid_cells(method, grid)
    splits = kfold_split(ds.num_samples, grid.folds, grid.seed)
    table = []
    best = None
    for params in cells:
        score = _cv_score(ds, method, params, splits, hyper_overrides)
        table.append({"params": params, "score": score})
        if best is None or score > best["score"]:
            best = {"params": params, "score": score}
    return best, table


def size_sensitivity(ds: PairedDataset, test_ms, test_labels, method, params,
                     fractions, seed, hyper_overrides=None):
    """OA on a fixed test set versus stratified training-set fraction."""
    rng = np.random.default_rng(seed)
    per_class = {
        k: rng.permutation(np.nonzero(ds.labels == k)[0])
        for k in range(1, ds.num_classes + 1)
    }
    rows = []
    for frac in fractions:
        if not (0 < frac <= 1):
            raise ValidationError(f"fraction {frac} outside (0, 1]")
        keep = []
        for k, idx in per_class.items():
            n_sub = int(round(frac * idx.size))
            if n_sub < 1:
                raise ValidationError(
                    f"fraction {frac} leaves class {k} with no training samples"
                )
            keep.append(idx[:n_sub])
        keep = np.sort(np.concatenate(keep))
        fitted = fit_method(_subset(ds, keep), method, params, hyper_overrides)
        pred = classify.knn1_predict(fitted.references, fitted.embed_ms(test_ms))
        rows.append({"fraction": float(frac), "n_train": int(keep.size),
                     "oa": float(np.mean(pred == test_labels))})
    return rows


# ---------------------------------------------------------------------------
# Benchmark runs.
# ---------------------------------------------------------------------------


def _load_dataset(config):
    dataset = config["dataset"]
    if "scene_spec" in dataset:
        return data.make_synthetic_scene(data.SceneSpec.from_json(dataset["scene_spec"]))
    ds = data.load_pairs(dataset["train_ms"], dataset["train_hs"])
    test_ms, test_labels = data.load_csv(dataset["test_ms"])
    if test_labels is None:
        raise ValidationError("test CSV carries no label column")
    return ds, test_ms, test_labels


def resolve_config(config):
    """Dataset, grid and solver overrides of a `gridsearch`/`benchmark` config.

    A top-level `seed` overrides `grid.seed`; without either the seed is 0.
    """
    grid = dict(config.get("grid", {}))
    if "seed" in config:
        grid["seed"] = config["seed"]
    return _load_dataset(config), GridSpec.from_dict(grid), config.get("hyper")


def run_benchmark(config):
    """Grid-search, refit, and evaluate every configured method.

    Returns (results, predictions, timings): `results` is a JSON-ready dict
    whose content is deterministic for a fixed config; wall-clock seconds are
    kept apart in `timings` so results files stay byte-reproducible.
    """
    methods = list(config["methods"])
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValidationError(
                f"unknown method {m!r}; known methods: {', '.join(KNOWN_METHODS)}"
            )
    (ds, test_ms, test_labels), grid, hyper_overrides = resolve_config(config)
    lam = float(config.get("linear_lambda", 1e-3))

    results = {"seed": grid.seed, "methods": {}}
    predictions = {}
    timings = {}
    for method in methods:
        start = time.perf_counter()
        if method == "baseline":
            best = {"params": {}, "score": None}
        else:
            best, _ = grid_search(ds, method, grid, hyper_overrides=hyper_overrides)
        fitted = fit_method(ds, method, best["params"], hyper_overrides)
        embedded_test = fitted.embed_ms(test_ms)
        preds = {"1nn": classify.knn1_predict(fitted.references, embedded_test)}
        weights = classify.fit_linear(
            fitted.references.embeddings,
            data.onehot_encode(fitted.references.labels, ds.num_classes),
            lam,
        )
        preds["linear"] = classify.linear_predict(weights, embedded_test)
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
