import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cospace import graph
from cospace.data import PairedDataset, stack_system
from cospace.errors import ValidationError


def _assert_pencil_matches_dense(x, w, got=None):
    """graph.pencil(x, w), or `got` in its place, against the exact X L X^T and
    X D X^T, entry by entry.

    The bound follows the standard rounding model (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3): with u = 2^-53 and
    gamma_k = k u / (1 - k u), a sum of k products is within gamma_k of the
    sum of their absolute values, in any order. Let n be the size of W and
    M = diag(W 1) + W, which is |L| when W has no self-loops.
    - `pencil` forms deg = W 1 (gamma_{n-1}), scales X^T by it (one more
      rounding) and subtracts W X^T (gamma_n): its L X^T is within
      gamma_{n+1} M |X|^T.
    - X times that adds gamma_n |X| |L X^T|, so X L X^T is within
      gamma_{2n+1} |X| M |X|^T.
    - X D X^T = (X * (deg - diag W)) X^T is within gamma_{2n+1} |X| diag(W 1) |X|^T.
    The exact value, rounded once to a float, adds half an ulp. gamma_{2n+2}
    in place of gamma_{2n+1} adds about u |X| M |X|^T of slack, far more than
    the rounding of the bound's own float evaluation (about (2n)^2 u^2 of it).
    Where an entry does not cancel, |X| M |X|^T is within a small factor of
    it, and for n <= 25 the bound is near 1e-14 relative: stricter than the
    rtol 1e-12 this replaced.
    """
    n = w.shape[0]
    gamma = (2 * n + 2) * 2.0**-53 / (1 - (2 * n + 2) * 2.0**-53)
    deg = np.diag(w.sum(axis=1))
    ax = np.abs(x)
    for got, exact, m in zip(graph.pencil(x, w) if got is None else got,
                             (_exact_laplacian_form(x, w), _exact_degree_form(x, w)),
                             (deg + w, deg)):
        bound = gamma * (ax @ m @ ax.T) + 0.5 * np.spacing(np.abs(exact))
        assert np.all(np.abs(got - exact) <= bound), np.max(np.abs(got - exact) / bound)


def _knn_oracle(x, k, sigma):
    """Dense kNN graph: squared distances from differences, each row's first k
    columns of a stable argsort, then the union of both directions."""
    d2 = np.sum((x[:, :, None] - x[:, None, :]) ** 2, axis=0)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    nbr = np.zeros(d2.shape, dtype=bool)
    nbr[np.arange(d2.shape[0])[:, None], order] = True
    nbr |= nbr.T
    return np.where(nbr, np.exp(-np.where(nbr, d2, 0.0) / (2.0 * sigma**2)), 0.0)


def _brute_lda(labels):
    """Independent O(n^2) construction of the supervised adjacency."""
    labels = np.asarray(labels)
    n = labels.size
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and labels[i] == labels[j]:
                w[i, j] = 1.0 / np.sum(labels == labels[j])
    return w


# draws of test_quadratic_form_property where X diag(W 1) X^T - X W X^T
# cancels at D x D and misses the Laplacian product by 2.5e-12 to 3.1e-8
CANCELLING_DRAWS = [648, 1115, 1223, 1617, 1717, 2006, 2774, 3178, 4693]


def _quadratic_form_draw(seed):
    """(X, W) as test_quadratic_form_property draws them from `seed`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    w = rng.random((n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return rng.standard_normal((2, n)), w


def _exact_form(x, m):
    """X M X^T in rational arithmetic, rounded once to floats; `m` holds Fractions."""
    from fractions import Fraction

    n = len(m)
    xs = [[Fraction(v) for v in row] for row in x.tolist()]
    return np.array([[float(sum(xi[p] * m[p][q] * xj[q] for p in range(n) for q in range(n)))
                      for xj in xs] for xi in xs])


def _exact_laplacian_form(x, w):
    """X L X^T in rational arithmetic, rounded once to floats (L drops self-loops)."""
    from fractions import Fraction

    n = w.shape[0]
    return _exact_form(x, [[sum(Fraction(w[p, r]) for r in range(n) if r != p) if p == q
                            else -Fraction(w[p, q]) for q in range(n)] for p in range(n)])


def _exact_degree_form(x, w):
    """X D X^T in rational arithmetic, rounded once to floats (D counts no self-loops)."""
    from fractions import Fraction

    n = w.shape[0]
    return _exact_form(x, [[sum(Fraction(w[p, r]) for r in range(n) if r != p) if p == q
                            else Fraction(0) for q in range(n)] for p in range(n)])


class TestLdaLikeAdjacency:
    def test_two_samples_same_class(self):
        w = graph.lda_like_adjacency([1, 1])
        assert w.tolist() == [[0.0, 0.5], [0.5, 0.0]]

    def test_different_classes_disconnected(self):
        w = graph.lda_like_adjacency([1, 2])
        assert w.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_three_of_one_class(self):
        w = graph.lda_like_adjacency([1, 1, 1, 2])
        third = 1.0 / 3.0
        assert w[0, 1] == w[1, 2] == w[0, 2] == pytest.approx(third)
        assert np.all(w[:, 3] == 0) and np.all(w[3, :] == 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 4, 17)
        assert np.allclose(graph.lda_like_adjacency(labels), _brute_lda(labels))

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_zero_diag(self, labels):
        w = graph.lda_like_adjacency(labels)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            graph.lda_like_adjacency([])

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_pencil_matches_dense_laplacian(self, labels):
        w = graph.lda_like_adjacency(labels)
        x = np.random.default_rng(len(labels)).standard_normal((3, len(labels)))
        _assert_pencil_matches_dense(x, w)


class TestKnnGaussianAdjacency:
    def test_three_collinear_points(self):
        feats = np.array([[0.0, 1.0, 10.0]])
        w = graph.knn_gaussian_adjacency(feats, k=1, sigma=1.0)
        assert w[0, 1] == pytest.approx(np.exp(-0.5))
        assert w[1, 0] == pytest.approx(np.exp(-0.5))
        # edge kept by union symmetrization even though 10 is nobody's neighbor
        assert w[1, 2] == pytest.approx(np.exp(-81.0 / 2.0))
        assert w[0, 2] == 0.0

    def test_sigma_scales_weights(self):
        feats = np.array([[0.0, 2.0]])
        w = graph.knn_gaussian_adjacency(feats, k=1, sigma=2.0)
        assert w[0, 1] == pytest.approx(np.exp(-4.0 / 8.0))

    def test_union_symmetrization_asymmetric_neighborhoods(self):
        # 1's nearest is 0; 2's nearest is 1; 0's nearest is 1
        feats = np.array([[0.0, 1.0, 2.5, 100.0]])
        w = graph.knn_gaussian_adjacency(feats, k=1, sigma=1.0)
        assert np.array_equal(w > 0, (w > 0).T)
        assert w[1, 2] > 0  # present only in 2's neighbor list

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            graph.knn_gaussian_adjacency(np.zeros((2, 3)), k=3, sigma=1.0)

    def test_bad_sigma(self):
        with pytest.raises(ValidationError):
            graph.knn_gaussian_adjacency(np.zeros((2, 3)), k=1, sigma=0.0)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((4, 30))
        w = graph.knn_gaussian_adjacency(feats, k=5, sigma=0.7)
        assert np.all(w >= 0) and np.all(w <= 1)
        assert np.all(np.diag(w) == 0)


def _knn_draw(rng, kind, d, n):
    if kind == "random":
        return rng.standard_normal((d, n))
    if kind == "duplicated":  # quarter steps: every distance is exact, many are 0
        distinct = rng.integers(-4, 5, (d, max(1, n // 3))) / 4.0
        return distinct[:, rng.integers(0, distinct.shape[1], n)]
    return rng.integers(0, 3, (d, n)).astype(float)  # integer grid: many equal distances


def _blkdiag(blocks):
    x = np.zeros((sum(f.shape[0] for f in blocks), sum(f.shape[1] for f in blocks)))
    r = c = 0
    for f in blocks:
        x[r:r + f.shape[0], c:c + f.shape[1]] = f
        r, c = r + f.shape[0], c + f.shape[1]
    return x


class TestKnnGraph:
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "duplicated", "grid"]), n=st.integers(2, 30),
           d=st.tuples(st.integers(1, 4), st.integers(1, 4)), split=st.floats(0, 1),
           zero=st.booleans(), k_frac=st.floats(0, 1), sigma=st.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_stable_argsort_rule(self, block_rows, seed, kind, n, d, split, zero,
                                            k_frac, sigma):
        # two modality blocks, either of which may be small or empty: the cross
        # distances sq_i + sq_j tie exactly with within-block ones on the exact
        # kinds, and a k at or above a block's size forces cross edges
        rng = np.random.default_rng(seed)
        n_m = int(split * n)
        blocks = [_knn_draw(rng, kind, d[0], n_m), _knn_draw(rng, kind, d[1], n - n_m)]
        if zero:  # zero columns: their cross distances are the other side's norms
            for f in blocks:
                f[:, rng.random(f.shape[1]) < 0.4] = 0.0
        x = _blkdiag(blocks)
        k = 1 + int(k_frac * (n - 2))
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:  # several row blocks per modality, the last ragged
                mp.setattr(graph, "KNN_BLOCK_ENTRIES", block_rows * n)
            w = graph.knn_graph(blocks, k, sigma)
        dense = _knn_oracle(x, k, sigma)
        assert np.array_equal(w.toarray() > 0, dense > 0)
        np.testing.assert_allclose(w.toarray(), dense, rtol=1e-12, atol=0)
        for got, want in zip(graph.pencil(x, w), graph.pencil(x, dense)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_norm_prefix_grows_past_rounded_ties(self):
        # Each MS row is 2^54 away from every HS column, since 2^54 + 1 and
        # 2^54 + 0.25 both round to 2^54, and 2^56 from the other MS column. The
        # six columns of norm 0.25 sort first, yet the two nearest by the index
        # rule are HS columns 0 and 1, of norm 1: the prefix must pass the ties.
        ms = np.array([[2.0**27, -(2.0**27)]])
        hs = np.array([[1.0, -1.0, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5]])
        w = graph.knn_graph([ms, hs], 2, 2.0**27)
        assert w[0].indices.tolist() == [2, 3] and w[1].indices.tolist() == [2, 3]
        np.testing.assert_array_equal(w.toarray(), _knn_oracle(_blkdiag([ms, hs]), 2, 2.0**27))

    def test_k_of_the_whole_stack(self):
        with pytest.raises(ValidationError, match="sample count 5"):
            graph.knn_graph([np.ones((2, 3)), np.ones((4, 2))], 5, 1.0)


class TestSparsePencil:
    @pytest.mark.parametrize("seed", CANCELLING_DRAWS)
    def test_small_entries_keep_their_digits(self, seed):
        from scipy import sparse

        # against the exact product, as TestDensePencil checks a dense `w`
        x, w = _quadratic_form_draw(seed)
        a, b = graph.pencil(x, sparse.csr_matrix(w))
        np.testing.assert_allclose(a, _exact_laplacian_form(x, w), rtol=1e-12, atol=0)
        np.testing.assert_allclose(b, graph.pencil(x, w)[1], rtol=1e-12, atol=0)


class TestLaplacian:
    def test_two_node_path(self):
        g = graph.laplacian([[0.0, 0.5], [0.5, 0.0]])
        assert g.d.tolist() == [[0.5, 0.0], [0.0, 0.5]]
        assert g.lap.tolist() == [[0.5, -0.5], [-0.5, 0.5]]

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        w = rng.random((8, 8))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = graph.laplacian(w)
        assert np.allclose(g.lap.sum(axis=1), 0.0, atol=1e-12)

    def test_quadratic_form_matches_pairwise_sum(self):
        # tr(F L F^T) must equal 1/2 sum_ij w_ij ||f_i - f_j||^2
        rng = np.random.default_rng(9)
        w = rng.random((6, 6))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = graph.laplacian(w)
        f = rng.standard_normal((3, 6))
        form = float(np.trace(f @ g.lap @ f.T))
        brute = 0.0
        for i in range(6):
            for j in range(6):
                brute += 0.5 * w[i, j] * float(np.sum((f[:, i] - f[:, j]) ** 2))
        assert form == pytest.approx(brute, rel=1e-12)

    def test_psd(self):
        rng = np.random.default_rng(4)
        w = rng.random((7, 7))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = graph.laplacian(w)
        assert np.linalg.eigvalsh(g.lap)[0] >= -1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            graph.laplacian([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            graph.pencil(np.ones((1, 2)), [[0.0, 1.0], [0.5, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            graph.laplacian([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            graph.pencil(np.ones((1, 2)), [[0.0, -1.0], [-1.0, 0.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        w = rng.random((n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = graph.laplacian(w)
        f = rng.standard_normal((2, n))
        diffs = f[:, :, None] - f[:, None, :]
        brute = 0.5 * float(np.sum(w * np.sum(diffs**2, axis=0)))
        assert float(np.trace(f @ g.lap @ f.T)) == pytest.approx(brute, abs=1e-9)
        _assert_pencil_matches_dense(f, w)


class TestDensePencil:
    @pytest.mark.parametrize("seed", [648, 2774, 4693])
    def test_small_entries_keep_their_digits(self, seed):
        # against the exact product: on draw 4693, x @ laplacian(w).lap @ x.T
        # rounds the smallest entry 2.2e-12 away from it, the pencil 6.9e-13
        x, w = _quadratic_form_draw(seed)
        a, b = graph.pencil(x, w)
        np.testing.assert_allclose(a, _exact_laplacian_form(x, w), rtol=1e-12, atol=0)
        np.testing.assert_allclose(b, x @ graph.laplacian(w).d @ x.T, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows", [1, 5, 12])
    def test_strips_match_dense_laplacian(self, rows):
        rng = np.random.default_rng(rows)
        w = rng.random((12, 12))
        w = 0.5 * (w + w.T) + np.diag(rng.random(12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "KNN_BLOCK_ENTRIES", rows * 12)
            _assert_pencil_matches_dense(rng.standard_normal((4, 12)), w)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_diagonal_cancels(self, seed):
        # laplacian drops self-loops: pencil's D must not count them, and its L
        # cancels them, for a dense and for a sparse `w` alike
        from scipy import sparse

        rng = np.random.default_rng(seed)
        w = rng.random((12, 12))
        w = 0.5 * (w + w.T) + np.diag(rng.random(12) + 1.0)
        x = rng.standard_normal((4, 12))
        _assert_pencil_matches_dense(x, w)
        for got, want in zip(graph.pencil(x, sparse.csr_matrix(w)), graph.pencil(x, w)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("side", [1, 3, 4])
    @pytest.mark.parametrize("fault", ["upper", "lower", "corner", "negative", "negative-diag",
                                       "negative-below-tol"])
    def test_fault_in_the_last_tile_rejected(self, side, fault):
        n = 10
        w = np.ones((n, n)) - np.eye(n)
        if fault == "upper":
            w[0, n - 1] += 1e-9
        elif fault == "lower":
            w[n - 1, 0] += 1e-9
        elif fault == "corner":
            w[n - 1, n - 2] += 1e-9
        elif fault == "negative":
            w[n - 1, 0] = w[0, n - 1] = -0.5
        elif fault == "negative-diag":
            w[n - 1, n - 1] = -1.0
        else:  # symmetric within 1e-12, yet below zero on one side
            w[n - 1, 0], w[0, n - 1] = -1e-13, 0.0
        x = np.ones((2, n))
        with pytest.MonkeyPatch.context() as mp:  # strips of `side` rows; the last is ragged
            mp.setattr(graph, "KNN_BLOCK_ENTRIES", side * n)
            graph.pencil(x, np.ones((n, n)) - np.eye(n))
            with pytest.raises(ValidationError):
                graph.pencil(x, w)

    def test_makes_no_second_square_array(self):
        import tracemalloc

        n = 3000
        w = graph.lda_like_adjacency(np.arange(n) % 7)
        x = np.random.default_rng(0).standard_normal((50, n))
        tracemalloc.start()
        try:
            graph.pencil(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * w.nbytes, f"peak {peak / 2**20:.1f} MiB"


class TestClassPencil:
    """`class_pencil` against the exact rational pencil of the stacked X~ and the
    1/N_k graph, under the rounding bound `_assert_pencil_matches_dense` derives
    for `pencil`. On 150 draws like these (offsets 0, 1e3 and -50) its largest
    error was 0.16 of that bound."""

    @staticmethod
    def _draw(seed, sizes, offset=0.0, d_m=2, d_h=3):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
        return PairedDataset(ms=rng.standard_normal((d_m, labels.size)) + offset,
                             hs=rng.standard_normal((d_h, labels.size)) + offset,
                             labels=labels, num_classes=len(sizes))

    @pytest.mark.parametrize("sizes", [(4, 4), (2, 5, 3), (1, 3, 4), (1, 1, 2)],
                             ids=["equal", "unequal", "one-pair-class", "two-one-pair-classes"])
    @pytest.mark.parametrize("offset", [0.0, 1e3], ids=["centred", "offset-1e3"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_exact_graph_pencil(self, sizes, offset, seed):
        ds = self._draw(seed, sizes, offset)
        w = graph.lda_like_adjacency(np.concatenate([ds.labels, ds.labels]))
        _assert_pencil_matches_dense(stack_system(ds).xtilde, w, graph.class_pencil(ds))

    def test_pair_weights_by_hand(self):
        # one class of two pairs, m = (0, 2) and h = (1, 3): the stacked columns
        # [0;0], [2;0], [0;1], [0;3] are joined pairwise with weight 1/4, so
        # L = I - 11^T/4 and D = 3/4 I; with X 1 = (2, 4),
        # X L X^T = X X^T - (X 1)(X 1)^T/4 = [[4, 0], [0, 10]] - [[1, 2], [2, 4]]
        ds = PairedDataset(ms=[[0.0, 2.0]], hs=[[1.0, 3.0]], labels=[1, 1], num_classes=1)
        a, b = graph.class_pencil(ds)
        assert np.array_equal(a, [[3.0, -2.0], [-2.0, 6.0]])
        assert np.array_equal(b, [[3.0, 0.0], [0.0, 7.5]])

