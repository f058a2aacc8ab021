import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cospace import blas

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def pools_at_two():
    """Every found pool at 2 threads, so that a cap to 1 shows; restored after."""
    found = blas.pools()
    before = blas.thread_counts()
    for _, setter, _ in found:
        setter(2)
    yield found
    for name, setter, _ in found:
        setter(before[name])


class TestSingleThread:
    def test_finds_the_loaded_pools(self):
        # numpy is loaded, so its OpenBLAS is found wherever /proc/self/maps is
        if not os.path.exists(blas.MAPS):
            pytest.skip("no /proc/self/maps on this platform")
        assert blas.pools()

    def test_each_pool_reads_one_inside_and_its_count_after(self, pools_at_two):
        before = blas.thread_counts()
        with blas.single_thread():
            assert blas.thread_counts() == {name: 1 for name, _, _ in pools_at_two}
        assert blas.thread_counts() == before

    def test_counts_restored_when_the_body_raises(self, pools_at_two):
        before = blas.thread_counts()
        with pytest.raises(ZeroDivisionError):
            with blas.single_thread():
                1 / 0
        assert blas.thread_counts() == before

    def test_decorator_nests(self, pools_at_two):
        before = blas.thread_counts()

        @blas.single_thread()
        def outer():
            with blas.single_thread():
                pass
            return blas.thread_counts()

        assert set(outer().values()) <= {1}
        assert blas.thread_counts() == before

    @pytest.mark.parametrize("patch", [("MAPS", "/nonexistent/maps"),
                                       ("SYMBOLS", (("no_such_setter", "no_such_getter"),))])
    def test_nothing_found_is_a_noop(self, monkeypatch, pools_at_two, patch):
        real = blas.thread_counts()
        monkeypatch.setattr(blas, *patch)
        blas.pools.cache_clear()
        try:
            assert blas.pools() == ()
            with blas.single_thread():
                assert [getter() for _, _, getter in pools_at_two] == list(real.values())
        finally:
            monkeypatch.undo()
            blas.pools.cache_clear()
        assert blas.thread_counts() == real


# CoSpace (dim 4, alpha 0.1, beta 0.01, 10 outer steps) and LSMA on the shipped scene
FIT_SCRIPT = """
from cospace import data, experiment, solver
ds, _, _ = data.make_synthetic_scene(
    data.SceneSpec.from_json(data.load_json("data/metamer_scene.json")))
model = solver.fit(ds, solver.make_hyperparams(0.1, 0.01, 4, {"outer_max_iter": 10}))
print(model.theta.tobytes().hex())
print(experiment.fit_method(ds, "lsma", {"dim": 4}).model.theta.tobytes().hex())
"""


def _thetas(threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FIT_SCRIPT], cwd=REPO, env=env,
                         capture_output=True, text=True, check=True)
    return [np.frombuffer(bytes.fromhex(line)) for line in out.stdout.split()]


def test_fits_do_not_depend_on_the_thread_count():
    reference = _thetas(None)
    assert [theta.size for theta in reference] == [4 * 50, 4 * 50]
    for threads in ("1", "2"):
        for theta, ref in zip(_thetas(threads), reference):
            assert np.array_equal(theta, ref), f"OPENBLAS_NUM_THREADS={threads}"
