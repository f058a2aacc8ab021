"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 numerical error,
3 I/O or parse error.
"""

from __future__ import annotations

import os

# honor the thread cap before any numerics are loaded
if os.environ.get("COSPACE_THREADS"):
    _cap = os.environ["COSPACE_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

import argparse
import json
import sys

import numpy as np

from . import classify, data, experiment, solver
from .errors import NumericalError, ParseError, ValidationError
from .metrics import MetricsReport

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _atomic_json(path, doc):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _atomic_csv(path, samples, labels=None):
    tmp = f"{path}.tmp"
    data.save_csv(tmp, samples, labels)
    os.replace(tmp, path)


def _load_truth(path):
    """Accept either a feature CSV with a label column or a label-only CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header == "label":
        return data.load_labels_csv(path)
    _, labels = data.load_csv(path)
    if labels is None:
        raise ValidationError(f"{path} carries no label column")
    return labels


def _load_predictions(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or raw[0] != "index,label":
        raise ParseError(f"{path}: expected `index,label` header", line=1)
    try:
        return np.asarray([int(line.split(",")[1]) for line in raw[1:]], dtype=int)
    except (IndexError, ValueError):
        raise ParseError(f"{path}: malformed prediction row") from None


def cmd_simulate(args):
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = data.SceneSpec.from_json(fh.read())
    ds, test_ms, test_labels = data.make_synthetic_scene(spec)
    os.makedirs(args.out, exist_ok=True)
    _atomic_csv(os.path.join(args.out, "train_ms.csv"), ds.ms, ds.labels)
    _atomic_csv(os.path.join(args.out, "train_hs.csv"), ds.hs, ds.labels)
    _atomic_csv(os.path.join(args.out, "test_ms.csv"), test_ms, test_labels)
    print(
        f"wrote {ds.num_samples} training pairs and {test_ms.shape[1]} "
        f"test samples to {args.out}"
    )


def cmd_fit(args):
    ms, labels = data.load_csv(args.train_ms)
    hs, labels_hs = data.load_csv(args.train_hs)
    if args.labels:
        labels = data.load_labels_csv(args.labels)
    elif labels is None:
        labels = labels_hs
    if labels is None:
        raise ValidationError("no labels given: use --labels or a label column")
    overrides = {}
    if args.hyper:
        with open(args.hyper, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    hyper = solver.Hyperparams(alpha=args.alpha, beta=args.beta, dim=args.dim,
                               **overrides)
    ds = data.PairedDataset(ms=ms, hs=hs, labels=labels,
                            num_classes=int(np.max(labels)))
    model = solver.fit(ds, hyper)
    solver.save_model(args.out, model)
    print(
        f"final objective {model.objective_trace[-1]:.6g} after "
        f"{len(model.objective_trace) - 1} outer iterations "
        f"(converged={model.converged})"
    )


def cmd_transform(args):
    model = solver.load_model(args.model)
    x, _ = data.load_csv(args.input)
    embed = solver.embed_ms if args.modality == "ms" else solver.embed_hs
    _atomic_csv(args.out, embed(model, x))
    print(f"embedded {x.shape[1]} samples into {model.dim} dimensions")


def cmd_predict(args):
    model = solver.load_model(args.model)
    x, _ = data.load_csv(args.input)
    if args.classifier == "p":
        pred = classify.predict_via_p(model, x)
    else:
        refs = classify.model_reference_set(model, args.refs)
        embedded = solver.embed_ms(model, x)
        if args.classifier == "1nn":
            pred = classify.knn1_predict(refs, embedded)
        else:
            weights = classify.fit_linear(
                refs.embeddings,
                data.onehot_encode(refs.labels, model.num_classes),
                args.linear_lambda,
            )
            pred = classify.linear_predict(weights, embedded)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("index,label\n")
        for i, lab in enumerate(pred):
            fh.write(f"{i},{int(lab)}\n")
    os.replace(tmp, args.out)
    if args.pgm:
        if not (args.width and args.height):
            raise ValidationError("--pgm requires --width and --height")
        classify.write_pgm(args.pgm, pred, args.width, args.height,
                           max_label=model.num_classes)
    print(f"wrote {len(pred)} predictions to {args.out}")


def cmd_evaluate(args):
    pred = _load_predictions(args.pred)
    truth = _load_truth(args.truth)
    if pred.size != truth.size:
        raise ValidationError(
            f"{pred.size} predictions vs {truth.size} truth labels"
        )
    num_classes = int(max(pred.max(), truth.max()))
    report = MetricsReport.from_predictions(truth, pred, num_classes)
    _atomic_json(args.out, report.to_dict())
    print(f"oa={report.oa:.4f} aa={report.aa:.4f} kappa={report.kappa:.4f}")


def _read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_gridsearch(args):
    config = _read_config(args.config)
    (ds, _, _), grid, hyper_overrides = experiment.resolve_config(config)
    out = {}
    for method in config["methods"]:
        if method == "baseline":
            out[method] = {"best": {"params": {}, "score": None}, "table": []}
            continue
        best, table = experiment.grid_search(ds, method, grid,
                                             hyper_overrides=hyper_overrides)
        out[method] = {"best": best, "table": table}
    os.makedirs(args.out, exist_ok=True)
    _atomic_json(os.path.join(args.out, "gridsearch.json"), out)
    print(f"grid search finished for {len(out)} methods")


def cmd_benchmark(args):
    config = _read_config(args.config)
    results, predictions, timings = experiment.run_benchmark(config)
    experiment.write_benchmark_outputs(args.out, results, predictions, timings)
    print(f"benchmark finished; results in {os.path.join(args.out, 'results.json')}")


def build_parser():
    parser = _Parser(prog="cospace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic paired scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="train the subspace model")
    p.add_argument("--train-ms", required=True)
    p.add_argument("--train-hs", required=True)
    p.add_argument("--labels")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--dim", type=int, default=30)
    p.add_argument("--hyper", help="JSON file with extra hyperparameter overrides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="embed out-of-sample data")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--modality", choices=["ms", "hs"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("predict", help="classify embedded samples")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--classifier", choices=["1nn", "linear", "p"], default="1nn")
    p.add_argument("--refs", choices=["both", "ms"], default="both")
    p.add_argument("--linear-lambda", type=float, default=1e-3)
    p.add_argument("--pgm", help="optional PGM label-map output")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="cross-validated parameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("benchmark", help="full method comparison run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
