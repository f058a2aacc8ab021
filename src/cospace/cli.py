"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 numerical error,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def cmd_simulate(args):
    spec = data.SceneSpec.from_json(data.load_json(args.spec))
    ds, test_ms, test_labels = data.make_synthetic_scene(spec)
    os.makedirs(args.out, exist_ok=True)
    data.save_csv(os.path.join(args.out, "train_ms.csv"), ds.ms, ds.labels)
    data.save_csv(os.path.join(args.out, "train_hs.csv"), ds.hs, ds.labels)
    data.save_csv(os.path.join(args.out, "test_ms.csv"), test_ms, test_labels)
    print(
        f"wrote {ds.num_samples} training pairs and {test_ms.shape[1]} "
        f"test samples to {args.out}"
    )


def cmd_fit(args):
    ds = data.load_pairs(args.train_ms, args.train_hs, args.labels)
    overrides = data.load_json(args.hyper) if args.hyper else None
    hyper = solver.make_hyperparams(args.alpha, args.beta, args.dim, overrides)
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
    data.save_csv(args.out, embed(model, x))
    print(f"embedded {x.shape[1]} samples into {model.dim} dimensions")


def cmd_predict(args):
    if args.pgm and min(args.width or 0, args.height or 0) < 1:
        raise ValidationError("--pgm requires a positive --width and --height")
    model = solver.load_model(args.model)
    x, _ = data.load_csv(args.input)
    if args.pgm and x.shape[1] != args.width * args.height:
        raise ValidationError(f"{x.shape[1]} pixels do not fill a {args.width}x{args.height} map")
    if args.classifier == "p":
        pred = classify.predict_via_p(model, x)
    else:
        refs = classify.model_reference_set(model, args.refs)
        embedded = solver.embed_ms(model, x)
        if args.classifier == "1nn":
            pred = classify.knn1_predict(refs, embedded)
        else:
            pred = classify.linear_classify(refs, embedded, model.num_classes,
                                            args.linear_lambda)
    data.save_predictions(args.out, pred)
    if args.pgm:
        classify.write_pgm(args.pgm, pred, args.width, args.height,
                           max_label=model.num_classes)
    print(f"wrote {len(pred)} predictions to {args.out}")


def cmd_evaluate(args):
    pred = data.load_predictions(args.pred)
    truth = data.load_truth(args.truth)
    if pred.size != truth.size:
        raise ValidationError(
            f"{pred.size} predictions vs {truth.size} truth labels"
        )
    num_classes = int(max(pred.max(initial=0), truth.max(initial=0)))
    report = MetricsReport.from_predictions(truth, pred, num_classes)
    data.save_json(args.out, report.to_dict())
    print(f"oa={report.oa:.4f} aa={report.aa:.4f} kappa={report.kappa:.4f}")


def cmd_gridsearch(args):
    (ds, _, _), grid, hyper_overrides, methods, _ = experiment.resolve_config(
        data.load_json(args.config))
    out = {}
    for method in methods:
        best, table = experiment.grid_search(ds, method, grid,
                                             hyper_overrides=hyper_overrides)
        out[method] = {"best": best, "table": table}
    os.makedirs(args.out, exist_ok=True)
    data.save_json(os.path.join(args.out, "gridsearch.json"), out)
    print(f"grid search finished for {len(out)} methods")


def cmd_benchmark(args):
    results, predictions, timings = experiment.run_benchmark(data.load_json(args.config))
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
