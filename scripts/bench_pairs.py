#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and write one JSON file.

For each workload and each seed, `python3 <dir>/perfbench/run.py` runs once on
the parent checkout and once on the change, one run at a time; the parent
runs first for the 1st, 3rd, ... seed and second for the others, so neither
side always follows the other. The output holds the size of each OpenBLAS
thread pool that numpy and scipy load (`environment.blas_threads`); every
run's result line; per side, the count of runs that exited non-zero, the
count that printed `"correct": false` and the summed failed and attempted
operations; and, per metric, the medians of both sides, the parent's quartiles
and the number of pairs in which the change was better. Each end-to-end metric
is also flagged `beyond_bound` or `unresolved` against its `bound` (see
`summarize`), and the flagged metrics are printed to stderr at the end. The
medians leave out every run that exited non-zero or printed `"correct": false`:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload large_fits --seeds 1 2 3 4 5 --out BENCH.json

The file is rewritten after every run, so a run that is stopped early keeps
what it measured. An existing file is kept, and only the entries of the
workloads measured again are replaced; a `--trace 1` entry is named
"<workload> --trace 1". The run length (`run_seconds`) and each metric's
direction ("better": lower or higher) are read from the change's
`BENCHMARK.json`, so every run of both sides is as long as the benchmark's.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"seed": seed, "returncode": proc.returncode, "result": result,
            "stderr": proc.stderr.strip().splitlines()[-3:]}


def health(runs):
    """Per side: runs that exited non-zero, runs that printed "correct": false,
    and the failed and attempted operations summed over the runs that finished."""
    out = {}
    for side in SIDES:
        results = [run["result"] for run in runs[side] if run["result"] is not None]
        out[side] = {"nonzero_exit": sum(run["returncode"] != 0 for run in runs[side]),
                     "incorrect": sum(result.get("correct") is not True for result in results),
                     "failed": sum(result.get("failed", 0) for result in results),
                     "attempted": sum(result.get("attempted", 0) for result in results)}
    return out


def summarize(runs, better, bounds):
    """Per metric: both medians, the parent's quartiles, and the pairs won.

    An end-to-end metric (one with a relative bound in `bounds`) also gets two
    flags: `beyond_bound`, when the change's median is worse than the
    parent's by more than the bound, and `unresolved`, when the parent's
    interquartile range exceeds the bound times its median. Only runs that
    exited 0 and printed "correct": true count.
    """
    values = {side: {} for side in SIDES}  # side -> metric -> seed -> value
    for side in SIDES:
        for run in runs[side]:
            if (run["result"] or {}).get("correct") is not True:
                continue
            for name, metric in run["result"].get("metrics", {}).items():
                values[side].setdefault(name, {})[run["seed"]] = metric["value"]
    out = {}
    for name, parent in values["parent"].items():
        change = values["change"].get(name)
        if not change:
            continue
        q1, q3 = np.percentile(list(parent.values()), [25, 75])
        entry = {"parent_median": statistics.median(parent.values()),
                 "parent_q1": float(q1), "parent_q3": float(q3),
                 "change_median": statistics.median(change.values())}
        entry["relative_change"] = (entry["change_median"] / entry["parent_median"] - 1
                                    if entry["parent_median"] else None)
        seeds = parent.keys() & change.keys()
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            entry["pairs"] = len(seeds)
            entry["pairs_change_better"] = sum(sign * (parent[s] - change[s]) > 0
                                               for s in seeds)
            if name in bounds and entry["relative_change"] is not None:
                entry["beyond_bound"] = sign * entry["relative_change"] > bounds[name]
                entry["unresolved"] = (entry["parent_q3"] - entry["parent_q1"]
                                       > bounds[name] * abs(entry["parent_median"]))
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    sys.path.insert(0, os.path.join(dirs["change"], "src"))
    from cospace import blas  # the change's helper reads each loaded pool's size

    doc["environment"] = {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                          "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                          "blas_threads": blas.thread_counts()}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        key = workload if args.trace == 0 else f"{workload} --trace 1"
        entry = doc["workloads"][key] = {
            "command": f"perfbench/run.py --workload {workload} --seed S "
                       f"--seconds {seconds:g} --trace {args.trace}",
            "order": "parent first on the 1st, 3rd, ... seed, change first on the others",
            "runs": runs}
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(dirs[side], workload, seed, seconds, args.trace)
                runs[side].append(run)
                print(f"{workload} seed {seed} {side}: {run['stderr'][-1:]}", file=sys.stderr)
                entry["health"] = health(runs)
                entry["metrics"] = summarize(runs, better, bounds)
                tmp = args.out + ".tmp"
                with open(tmp, "w") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, args.out)
    for key, entry in doc["workloads"].items():
        for name, metric in entry["metrics"].items():
            for flag in ("beyond_bound", "unresolved"):
                if metric.get(flag):
                    print(f"{flag}: {key} {name} parent median {metric['parent_median']:.6g} "
                          f"(quartiles {metric['parent_q1']:.6g}-{metric['parent_q3']:.6g}), "
                          f"change median {metric['change_median']:.6g}", file=sys.stderr)


if __name__ == "__main__":
    main()
