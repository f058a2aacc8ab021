import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(metric, parent, change):
    """Per side, one finished and correct run per seed with `metric`'s value."""
    def side(values):
        return [{"seed": seed, "returncode": 0,
                 "result": {"correct": True, "metrics": {metric: {"value": v}}}}
                for seed, v in enumerate(values)]
    return {"parent": side(parent), "change": side(change)}


BETTER = {"t_s": "lower", "rate": "higher", "layer_s": "lower"}
BOUNDS = {"t_s": 0.25, "rate": 0.25}


@pytest.mark.parametrize("metric, parent, change, beyond, unresolved", [
    pytest.param("t_s", [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], False, False,
                 id="slower-within-bound"),
    pytest.param("t_s", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], True, False,
                 id="slower-beyond-bound"),
    pytest.param("t_s", [1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], False, False,
                 id="faster"),
    pytest.param("rate", [100.0] * 4, [70.0] * 4, True, False, id="rate-falls-beyond-bound"),
    pytest.param("rate", [100.0] * 4, [140.0] * 4, False, False, id="rate-rises"),
    # quartiles 0.775 and 1.3 about the median 1.0: a spread of 0.525 > 0.25
    pytest.param("t_s", [0.1, 1.0, 1.0, 1.9], [1.0] * 4, False, True, id="parent-spread"),
])
def test_flags(metric, parent, change, beyond, unresolved):
    entry = bench_pairs.summarize(_runs(metric, parent, change), BETTER, BOUNDS)[metric]
    assert entry["beyond_bound"] is beyond
    assert entry["unresolved"] is unresolved


def test_per_layer_metric_has_no_flags():
    entry = bench_pairs.summarize(_runs("layer_s", [1.0] * 3, [9.0] * 3), BETTER,
                                  BOUNDS)["layer_s"]
    assert entry["pairs_change_better"] == 0
    assert "beyond_bound" not in entry and "unresolved" not in entry


def test_incorrect_runs_do_not_count():
    runs = _runs("t_s", [1.0, 1.0, 1.0], [1.0, 1.0, 9.0])
    runs["change"][2]["result"]["correct"] = False
    entry = bench_pairs.summarize(runs, BETTER, BOUNDS)["t_s"]
    assert entry["change_median"] == 1.0
    assert entry["beyond_bound"] is False
