import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.mark.parametrize("angle", [1e-9, 0.3, 1.2])
def test_largest_angle_of_a_plane_rotation(angle):
    # rows e1, e2 against e1, cos(t) e2 + sin(t) e3: the angles are 0 and t
    a = np.eye(3)[:2]
    b = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(angle), np.sin(angle)]])
    assert compare_outputs.largest_angle(a, b) == pytest.approx(angle, rel=1e-9)


def test_largest_angle_ignores_a_basis_change():
    a = np.random.default_rng(0).standard_normal((3, 6))
    mix = np.array([[2.0, 1.0, 0.0], [0.0, -1.0, 3.0], [1.0, 0.0, 1.0]])
    assert compare_outputs.largest_angle(a, mix @ a) < 1e-14


def test_compare_reports_each_kind_of_change():
    theta = np.eye(3, 5)
    side = {"fit/lsma/pred": np.array([1, 2, 2, 3]), "fit/lsma/truth": np.array([1, 2, 3, 3]),
            "fit/lsma/refs": np.ones((3, 4)), "fit/lsma/num_classes": np.array(2),
            "fit/lsma/theta": theta, "fit/lsma/eigenvalues": np.array([0.5, 1.0, 2.0])}
    same, _ = compare_outputs.compare(side, dict(side))
    assert same["fit/lsma"]["identical"]
    assert same["fit/lsma"]["changed_test_labels"] == 0
    moved = dict(side, **{"fit/lsma/pred": np.array([1, 2, 3, 3]),
                          "fit/lsma/theta": theta + np.outer([0.0, 0.0, 1e-3], np.eye(5)[4]),
                          "fit/lsma/eigenvalues": np.array([0.5, 1.0, 2.0 + 2e-12])})
    got = compare_outputs.compare(side, moved)[0]["fit/lsma"]
    assert not got["identical"]
    assert got["changed_test_labels"] == 1
    assert got["max_abs_dtheta_per_row"] == [0.0, 0.0, 1e-3]
    assert got["principal_angle_first_c"] == 0.0
    assert got["principal_angle_all"] == pytest.approx(1e-3, rel=1e-6)
    assert got["eigenvalue_diff"][:2] == [0.0, 0.0]
    assert got["eigenvalue_max_rel_diff"] == pytest.approx(1e-12, rel=1e-3)


def test_compare_reports_the_objective_trace():
    side = {"fit/cospace/pred": np.array([1, 2]), "fit/cospace/truth": np.array([1, 2]),
            "fit/cospace/refs": np.ones((2, 2)), "fit/cospace/num_classes": np.array(2),
            "fit/cospace/theta": np.eye(2), "fit/cospace/objective_trace": np.array([4.0, 2.0])}
    longer = dict(side, **{"fit/cospace/objective_trace": np.array([4.0, 2.0 + 2e-12, 1.5])})
    got = compare_outputs.compare(side, longer)[0]["fit/cospace"]
    assert not got["identical"] and got["theta_identical"]
    assert got["outer_steps"] == [1, 2]
    assert got["objective_trace_max_rel_diff"] == pytest.approx(1e-12, rel=1e-3)


def test_a_tree_against_itself_is_identical(tmp_path):
    # the child's fits on this tree, compared with themselves; git is not needed
    out = tmp_path / "outputs.npz"
    compare_outputs.child(out)
    with np.load(out) as npz:
        arrays = dict(npz)
    checks, oa = compare_outputs.compare(arrays, arrays)
    assert set(checks) == {f"{name}/{method}" for name in ("scene", "pairs_450", "pairs_2000")
                           for method in ("pjdr", "lsma", "lusma")} | {
        "scene/baseline", "scene/cospace", "scene/cospace_outer10", "pairs_2000/cospace"}
    assert all(check["identical"] for check in checks.values())
    bench_fit = checks["scene/cospace_outer10"]
    assert bench_fit["theta_identical"] and bench_fit["objective_trace_max_rel_diff"] == 0.0
    assert bench_fit["outer_steps"][0] == bench_fit["outer_steps"][1] <= 10
    assert oa["a"] == oa["b"] and set(oa["a"]) == {"baseline", "lsma", "cospace"}


def test_perturb_compares_a_revision_with_its_scaled_inputs(monkeypatch, capsys):
    plain, scaled = compare_outputs._datasets(), compare_outputs._datasets(1.0 + 1e-15)
    for (ds, test_ms, _, _), (ds_s, test_ms_s, _, _) in zip(plain.values(), scaled.values()):
        for x, x_s in ((ds.ms, ds_s.ms), (ds.hs, ds_s.hs), (test_ms, test_ms_s)):
            assert np.array_equal(x_s, x * (1.0 + 1e-15)) and not np.array_equal(x_s, x)
    side = {"fit/pjdr/pred": np.array([1, 2]), "fit/pjdr/truth": np.array([1, 2]),
            "fit/pjdr/refs": np.ones((2, 2)), "fit/pjdr/num_classes": np.array(2),
            "fit/pjdr/theta": np.eye(2)}
    runs = []
    monkeypatch.setattr(compare_outputs, "run_revision",
                        lambda rev, workdir, eps=0.0: runs.append((rev, eps)) or side)
    assert compare_outputs.main(["HEAD", "--perturb", "1e-15"]) == 0
    assert runs == [("HEAD", 0.0), ("HEAD", 1e-15)]
    doc = json.loads(capsys.readouterr().out)
    assert (doc["a"], doc["b"], doc["perturb"]) == ("HEAD", "HEAD", 1e-15)
    assert doc["checks"]["fit/pjdr"]["identical"]
    for argv in (["HEAD"], ["HEAD", "HEAD~1", "--perturb", "1e-15"]):
        with pytest.raises(SystemExit):
            compare_outputs.main(argv)
