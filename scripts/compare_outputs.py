#!/usr/bin/env python3
"""Compare the fitted outputs of two revisions and print one JSON document.

    python3 scripts/compare_outputs.py A B
    python3 scripts/compare_outputs.py A --perturb EPS

A and B are git revisions of this repository (`HEAD~1`, a branch, a hash).
With `--perturb EPS` the script compares A with itself, its second side fed
inputs scaled by (1 + EPS): the training MS and HS and the test MS. At EPS =
1e-15 that gives round-off's own spread, beside which a diff of A and B reads.
Each is extracted with `git archive` into a temporary directory and run in a
child process that imports its `src/`, with every BLAS pool at one thread.
The child fits, through `experiment.fit_method`:

- PJDR, LSMA and LUSMA on three training sets: the shipped scene
  (`data/metamer_scene.json` of the checkout that holds this script, dim 4,
  k 5, sigma 1); the benchmark's 450-pair draw of the scene's class model
  (the same parameters); and the benchmark's 2,000-pair set (dim 20, k 10,
  sigma 2);
- CoSpace on the shipped scene (dim 4, alpha 0.1, beta 0.01, default
  hyperparameters), which with the baseline and LSMA gives acceptance
  criterion 9's three overall accuracies (OA);
- the two CoSpace fits that `perfbench/run.py` times: the same scene fit
  stopped after at most 10 outer steps (`cospace_outer10`, its `SCENE_FITS`),
  and the counted fit on the 2,000-pair set (dim 20, alpha 0.01, beta 0.01);

and labels test pixels by 1-NN in each fit's space: the scene's test set for
the scene and the 450-pair draw, and 1,000 pixels drawn from the 2,000-pair
set's class model for that set. For each fit the document gives:

- `identical`: Theta, the eigenvalues, the objective trace, the 1-NN
  references and the test labels are bit-identical, and `theta_identical`
  the same for Theta alone;
- `max_abs_dtheta_per_row`: max |Theta_B - Theta_A| in each row;
- `principal_angle_first_c` and `principal_angle_all`: the largest principal
  angle, in radians, between the row spaces of the first c rows (c = number of
  classes) and of all rows;
- `eigenvalue_diff` (LSMA and LUSMA): lambda_B - lambda_A per row, and
  `eigenvalue_max_rel_diff`;
- `outer_steps` (CoSpace): both sides' outer-step counts, and
  `objective_trace_max_rel_diff`, the largest relative difference between
  the objective traces over the steps both sides ran;
- `changed_test_labels` of `test_labels`.

`criterion_9` gives both sides' OAs. Every fit and label comes from the
revision's own code; the inputs are made here, from this checkout, so only
the code differs between the sides.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENE = os.path.join(ROOT, "data", "metamer_scene.json")
SMALL = {"pjdr": {"dim": 4}, "lsma": {"dim": 4}, "lusma": {"dim": 4, "k": 5, "sigma": 1.0}}
LARGE = {"pjdr": {"dim": 20}, "lsma": {"dim": 20}, "lusma": {"dim": 20, "k": 10, "sigma": 2.0},
         "cospace": {"dim": 20, "alpha": 0.01, "beta": 0.01}}
COSPACE = {"dim": 4, "alpha": 0.1, "beta": 0.01}
# a run's method is its name up to the first "_"; "hyper" holds Hyperparams overrides
SCENE_RUNS = dict(SMALL, baseline={}, cospace=COSPACE,
                  cospace_outer10=dict(COSPACE, hyper={"outer_max_iter": 10}))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Child side: runs against one revision's `src/`.
# ---------------------------------------------------------------------------


def _datasets(scale=1.0):
    """{name: (PairedDataset, test MS, test labels, {run: fit parameters})}, with the
    training MS and HS and the test MS scaled by `scale`."""
    from cospace import data

    with open(SCENE, "r", encoding="utf-8") as fh:
        shipped = json.load(fh)
    scene = data.make_synthetic_scene(data.SceneSpec.from_json(shipped))
    # perfbench/run.py's 450-pair draw: 150 training pairs per class
    size = round(150 / (1.0 - shipped["test_fraction"]))
    pairs_450 = data.make_synthetic_scene(data.SceneSpec.from_json(
        dict(shipped, classes=[dict(c, size=size) for c in shipped["classes"]])))
    # perfbench/run.py's 2,000-pair set (criterion 12's generator), and test
    # pixels from its class model
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2, 3, 4, 5], 400)
    shift = rng.standard_normal((60, 5))
    hs = shift[:, labels - 1] + 0.3 * rng.standard_normal((60, labels.size))
    srf = rng.random((10, 60))
    srf /= srf.sum(axis=1, keepdims=True)
    test_labels = np.repeat([1, 2, 3, 4, 5], 200)
    test_hs = (shift[:, test_labels - 1]
               + 0.3 * np.random.default_rng(1).standard_normal((60, test_labels.size)))
    pairs_2000 = (data.PairedDataset(ms=srf @ hs, hs=hs, labels=labels, num_classes=5),
                  srf @ test_hs, test_labels)
    return {name: (replace(ds, ms=ds.ms * scale, hs=ds.hs * scale), test_ms * scale,
                   test_labels, params)
            for name, (ds, test_ms, test_labels), params in (
                ("scene", scene, SCENE_RUNS), ("pairs_450", pairs_450, SMALL),
                ("pairs_2000", pairs_2000, LARGE))}


def child(out, eps=0.0):
    from cospace import classify, experiment

    arrays = {}
    for name, (ds, test_ms, test_labels, runs) in _datasets(1.0 + eps).items():
        for run, params in runs.items():
            method = run.split("_")[0]
            fitted = experiment.fit_method(ds, method, params, params.get("hyper"))
            key = f"{name}/{run}"
            pred = classify.knn1_predict(fitted.references, fitted.embed_ms(test_ms))
            arrays[key + "/pred"] = pred
            arrays[key + "/truth"] = test_labels
            arrays[key + "/refs"] = fitted.references.embeddings
            arrays[key + "/num_classes"] = np.array(ds.num_classes)
            if method != "baseline":
                arrays[key + "/theta"] = fitted.model.theta
            if method in ("lsma", "lusma"):
                arrays[key + "/eigenvalues"] = np.asarray(fitted.model.params["eigenvalues"])
            if method == "cospace":
                arrays[key + "/objective_trace"] = np.asarray(fitted.model.objective_trace)
    np.savez(out, **arrays)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def run_revision(rev, workdir, eps=0.0):
    """Extract `rev` into `workdir`/`rev`, run the child there on inputs scaled
    by (1 + eps), return its arrays."""
    tree = os.path.join(workdir, rev.replace("/", "_"))
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    out = os.path.join(tree, "outputs.npz")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               **{var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", out,
                    "--perturb", repr(eps)],
                   cwd=tree, env=env, check=True)
    with np.load(out) as npz:
        return dict(npz)


def largest_angle(a, b):
    """Largest principal angle between the row spaces of a and b, from its sine."""
    if np.array_equal(a, b):
        return 0.0
    qa = np.linalg.qr(a.T)[0]
    qb = np.linalg.qr(b.T)[0]
    return float(np.arcsin(min(1.0, np.linalg.norm(qb - qa @ (qa.T @ qb), 2))))


def compare(a, b):
    checks, oa = {}, {"a": {}, "b": {}}
    for key in sorted({k.rsplit("/", 1)[0] for k in a}):
        get = {side: {f: arrs[f"{key}/{f}"] for f in ("pred", "truth", "refs", "theta",
                                                     "eigenvalues", "objective_trace",
                                                     "num_classes")
                      if f"{key}/{f}" in arrs}
               for side, arrs in (("a", a), ("b", b))}
        fa, fb = get["a"], get["b"]
        entry = {"identical": all(np.array_equal(fa[f], fb[f]) for f in fa),
                 "changed_test_labels": int(np.sum(fa["pred"] != fb["pred"])),
                 "test_labels": int(fa["pred"].size)}
        if "theta" in fa:
            c = int(fa["num_classes"])
            entry["theta_identical"] = bool(np.array_equal(fa["theta"], fb["theta"]))
            entry["max_abs_dtheta_per_row"] = np.max(np.abs(fb["theta"] - fa["theta"]),
                                                     axis=1).tolist()
            entry["principal_angle_first_c"] = largest_angle(fa["theta"][:c], fb["theta"][:c])
            entry["principal_angle_all"] = largest_angle(fa["theta"], fb["theta"])
        if "eigenvalues" in fa:
            diff = fb["eigenvalues"] - fa["eigenvalues"]
            entry["eigenvalue_diff"] = diff.tolist()
            entry["eigenvalue_max_rel_diff"] = float(
                np.max(np.abs(diff) / np.maximum(np.abs(fa["eigenvalues"]), 1e-300)))
        if "objective_trace" in fa:
            ta, tb = fa["objective_trace"], fb["objective_trace"]
            both = min(ta.size, tb.size)
            entry["outer_steps"] = [ta.size - 1, tb.size - 1]
            entry["objective_trace_max_rel_diff"] = float(np.max(
                np.abs(tb[:both] - ta[:both]) / np.maximum(np.abs(ta[:both]), 1e-300)))
        checks[key] = entry
        if key.startswith("scene/") and key.split("/")[1] in ("baseline", "lsma", "cospace"):
            for side, f in (("a", fa), ("b", fb)):
                oa[side][key.split("/")[1]] = float(np.mean(f["pred"] == f["truth"]))
    return checks, oa


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", help="git revision of the first side")
    parser.add_argument("b", nargs="?", help="git revision of the second side")
    parser.add_argument("--perturb", type=float, metavar="EPS",
                        help="compare A with itself on inputs scaled by (1 + EPS)")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # the child's output file
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.perturb or 0.0)
        return 0
    if args.a is None or (args.b is None) == (args.perturb is None):
        parser.error("give two revisions, or one revision and --perturb")
    b_rev, b_eps = (args.b, 0.0) if args.perturb is None else (args.a, args.perturb)
    with tempfile.TemporaryDirectory() as workdir:
        a = run_revision(args.a, os.path.join(workdir, "a"))
        b = run_revision(b_rev, os.path.join(workdir, "b"), b_eps)
    checks, oa = compare(a, b)
    json.dump({"a": args.a, "b": b_rev, "perturb": args.perturb, "blas_threads": 1,
               "checks": checks, "criterion_9": oa}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
