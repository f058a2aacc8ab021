import numpy as np
import pytest

from cospace import baselines
from cospace.data import StackedSystem
from cospace.errors import ValidationError
from cospace.graph import laplacian, pencil


def _scatter(x):
    centered = x - x.mean(axis=1, keepdims=True)
    return centered @ centered.T


def _sys(x, d_m=1):
    x = np.asarray(x, dtype=float)
    return StackedSystem(xtilde=x, ytilde=np.zeros((1, x.shape[1])),
                         d_m=d_m, d_h=x.shape[0] - d_m)


class TestPjdr:
    def test_planted_dominant_axis(self):
        x = np.zeros((3, 20))
        x[1] = np.linspace(-5, 5, 20)
        x[2] = 0.01 * np.sin(np.arange(20))
        proj = baselines.fit_pjdr(1, _scatter(x), 1)
        assert abs(proj.theta[0, 1]) == pytest.approx(1.0, abs=1e-3)
        # sign convention: first coordinate above round-off is positive
        nz = np.nonzero(np.abs(proj.theta[0]) > 1e-12)[0]
        assert proj.theta[0, nz[0]] > 0

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(0)
        proj = baselines.fit_pjdr(2, _scatter(rng.standard_normal((5, 30))), 3)
        assert np.allclose(proj.theta @ proj.theta.T, np.eye(3), atol=1e-10)

    def test_projected_data_decorrelated(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 50))
        proj = baselines.fit_pjdr(3, _scatter(x), 4)
        centered = x - x.mean(axis=1, keepdims=True)
        q = proj.theta @ centered
        cov = q @ q.T / 49
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-10

    def test_variance_ordering(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 40)) * np.array([5, 3, 1, 0.5, 0.1])[:, None]
        proj = baselines.fit_pjdr(2, _scatter(x), 4)
        centered = x - x.mean(axis=1, keepdims=True)
        variances = np.var(proj.theta @ centered, axis=1)
        assert np.all(np.diff(variances) <= 1e-10)

    def test_rank_limit(self):
        x = np.vstack([np.linspace(0, 1, 8), np.linspace(0, 2, 8)])  # rank 1 centered
        x[1] = 2 * x[0]
        with pytest.raises(ValidationError, match="rank"):
            baselines.fit_pjdr(1, _scatter(x), 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 25))
        a = baselines.fit_pjdr(1, _scatter(x), 2)
        b = baselines.fit_pjdr(1, _scatter(x), 2)
        assert np.array_equal(a.theta, b.theta)


class TestLpp:
    def _pencil_case(self):
        # X = diag(1, 2) over a single-edge 2-node graph:
        #   A = X L X^T = [[1,-2],[-2,4]],  B = X D X^T = diag(1,4)
        # det(A - t B) = 4t^2 - 8t -> eigenvalues 0 and 2 with B-normalized
        # eigenvectors (2,1)/sqrt(8) and (2,-1)/sqrt(8).
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        g = laplacian([[0.0, 1.0], [1.0, 0.0]])
        return _sys(x), g

    def test_hand_oracle_first_eigenvector(self):
        sys, g = self._pencil_case()
        proj = baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 1)
        expected = np.array([2.0, 1.0]) / np.sqrt(8.0)
        assert np.allclose(proj.theta[0], expected, atol=1e-6)
        assert proj.params["eigenvalues"][0] == pytest.approx(0.0, abs=1e-6)

    def test_hand_oracle_both_eigenpairs(self):
        sys, g = self._pencil_case()
        proj = baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 2)
        expected = np.array([[2.0, 1.0], [2.0, -1.0]]) / np.sqrt(8.0)
        assert np.allclose(proj.theta, expected, atol=1e-6)
        assert proj.params["eigenvalues"][1] == pytest.approx(2.0, abs=1e-6)

    def _random_case(self, seed=4, n=12, d=5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d, n))
        w = rng.random((n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        return _sys(x, d_m=2), laplacian(w)

    def test_generalized_eigen_residual(self):
        sys, g = self._random_case()
        proj = baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 3)
        a = sys.xtilde @ g.lap @ sys.xtilde.T
        b = sys.xtilde @ g.d @ sys.xtilde.T
        evals = np.asarray(proj.params["eigenvalues"])
        for v, lam in zip(proj.theta, evals):
            assert np.linalg.norm(a @ v - lam * b @ v) < 1e-6

    def test_b_orthonormal_rows(self):
        sys, g = self._random_case(5)
        proj = baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 3)
        b = sys.xtilde @ g.d @ sys.xtilde.T
        assert np.allclose(proj.theta @ b @ proj.theta.T, np.eye(3), atol=1e-6)

    def test_rayleigh_quotient_minimality(self):
        sys, g = self._random_case(6)
        proj = baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 1)
        a = sys.xtilde @ g.lap @ sys.xtilde.T
        b = sys.xtilde @ g.d @ sys.xtilde.T
        v0 = proj.theta[0]
        best = (v0 @ a @ v0) / (v0 @ b @ v0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(v0.size)
            assert best <= (v @ a @ v) / (v @ b @ v) + 1e-8

    def test_graph_size_mismatch(self):
        sys, _ = self._random_case()
        with pytest.raises(ValidationError):
            baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, np.zeros((3, 3))), 1)

    def test_d_too_large(self):
        sys, g = self._pencil_case()
        with pytest.raises(ValidationError):
            baselines.fit_lpp(sys.d_m, pencil(sys.xtilde, g.w), 3)


class TestSerialization:
    def test_modality_split(self):
        rng = np.random.default_rng(9)
        proj = baselines.fit_pjdr(2, _scatter(rng.standard_normal((5, 30))), 3)
        assert proj.theta_m.shape == (3, 2)
        assert proj.theta_h.shape == (3, 3)
        assert np.array_equal(np.hstack([proj.theta_m, proj.theta_h]), proj.theta)
