"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each public function named in `TRACED` with a
wrapper, in every `cospace` module that holds it, so a call is timed at the
place where its caller looks the name up (for example `solver.stack_system`,
which `solver.fit` calls). A wrapper keeps a stack of open spans: a span's
self time is its duration minus the time of the spans opened inside it.
Totals are kept in memory and read when the run ends.

Run as a script, it traces one CLI command and writes the totals as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json predict --model ...
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute) of every traced public function
TRACED = (
    ("solver", "solver", "fit"),
    ("solver", "solver", "solve_theta_admm"),
    ("solver", "solver", "admm_update_j"),
    ("solver", "solver", "admm_update_theta"),
    ("solver", "solver", "admm_update_g"),
    ("solver", "solver", "admm_update_duals"),
    ("solver", "solver", "update_p"),
    ("solver", "solver", "objective"),
    ("solver", "solver", "factor_j_system"),
    ("solver", "solver", "factor_theta_system"),
    ("graph", "graph", "lda_like_adjacency"),
    ("graph", "graph", "laplacian"),
    ("graph", "graph", "knn_gaussian_adjacency"),
    ("baselines", "baselines", "fit_pjdr"),
    ("baselines", "baselines", "fit_lpp"),
    ("classify", "classify", "knn1_predict"),
    ("classify", "classify", "fit_linear"),
    ("classify", "classify", "linear_predict"),
    ("classify", "classify", "predict_via_p"),
    ("data", "data", "make_synthetic_scene"),
    ("data", "data", "stack_system"),
    ("data", "data", "load_csv"),
    ("data", "data", "save_csv"),
    ("experiment", "experiment", "grid_search"),
    ("experiment", "experiment", "fit_method"),
    ("metrics", "metrics", "MetricsReport.from_predictions"),
)

MODULES = ("data", "graph", "solver", "baselines", "classify", "metrics",
           "experiment", "cli")


def _graph_bytes(result):
    if isinstance(result, np.ndarray):
        return result.nbytes
    return result.w.nbytes + result.d.nbytes + result.lap.nbytes


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []  # time covered by child spans, one entry per open span
        self._restore = []
        self._candidate = None
        self._candidate_energies = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        on_return = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_solver_fit(self, model, args, kwargs):
        trace = model.objective_trace
        self.counts["solver.fit_calls"] += 1
        self.counts["solver.outer_iters"] += len(trace) - 1
        # the descent guard rejects a candidate that scores above the last value
        self.counts["solver.candidates_rejected"] += sum(
            energy > trace[i] for i, energy in enumerate(self._candidate_energies))
        self._candidate_energies = []

    def _after_solver_solve_theta_admm(self, result, args, kwargs):
        self.counts["solver.inner_solves"] += 1
        self.counts["solver.inner_iters"] += result.iterations
        self.counts["solver.inner_converged"] += bool(result.converged)
        self._candidate = result.theta

    def _after_solver_objective(self, result, args, kwargs):
        theta = args[3] if len(args) > 3 else kwargs.get("theta")
        if self._candidate is not None and theta is self._candidate:
            self._candidate_energies.append(result.total)
            self._candidate = None

    def _after_graph_lda_like_adjacency(self, result, args, kwargs):
        self.counts["graph.dense_bytes"] += _graph_bytes(result)

    _after_graph_laplacian = _after_graph_lda_like_adjacency
    _after_graph_knn_gaussian_adjacency = _after_graph_lda_like_adjacency

    def _after_classify_knn1_predict(self, result, args, kwargs):
        refs, queries = args[0], np.asarray(args[1])
        self.counts["classify.dist_bytes"] += refs.embeddings.shape[1] * queries.shape[-1] * 8

    def _after_experiment_fit_method(self, result, args, kwargs):
        self.counts["experiment.fit_method_calls"] += 1

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a cospace module refers to it."""
        modules = [importlib.import_module(f"cospace.{m}") for m in MODULES]
        for layer, module, attr in TRACED:
            owner = importlib.import_module(f"cospace.{module}")
            name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(name, original.__func__)
                setattr(cls, meth, staticmethod(wrapped))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore = []

    # -- results ------------------------------------------------------------

    def add(self, doc):
        """Add totals in the form `to_dict` gives (from a traced child)."""
        for name, value in doc["self_s"].items():
            self.self_s[name] += value
        for name, value in doc["counts"].items():
            self.counts[name] += value

    def to_dict(self):
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


def _main(argv):
    out, cli_args = argv[0], argv[1:]
    from cospace import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
