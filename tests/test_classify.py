import numpy as np
import pytest

from cospace import classify, graph, solver
from cospace.data import PairedDataset, onehot_encode
from cospace.errors import ValidationError


def _refs(embeddings, labels):
    return classify.ReferenceSet(np.asarray(embeddings, float), labels)


class TestReferenceSet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            classify.ReferenceSet(np.zeros((2, 0)), [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            classify.ReferenceSet(np.zeros((2, 3)), [1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            classify.ReferenceSet(np.array([[np.nan, 1.0]]), [1, 2])


class TestKnn1:
    def test_nearest_reference_wins(self):
        refs = _refs([[0.0, 10.0]], [1, 2])
        pred = classify.knn1_predict(refs, [[1.0, 9.0, 4.9]])
        assert pred.tolist() == [1, 2, 1]

    def test_exact_match(self):
        refs = _refs([[1.0, 2.0], [0.0, 5.0]], [3, 1])
        pred = classify.knn1_predict(refs, [[2.0], [5.0]])
        assert pred.tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        refs = _refs([[-1.0, 1.0]], [2, 1])
        # query 0 is equidistant from both references
        assert classify.knn1_predict(refs, [[0.0]]).tolist() == [2]

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(0)
        refs_raw = rng.standard_normal((3, 10))
        labels = rng.integers(1, 4, 10)
        queries = rng.standard_normal((3, 7))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = classify.knn1_predict(_refs(refs_raw, labels), queries)
        b = classify.knn1_predict(_refs(q @ refs_raw, labels), q @ queries)
        assert np.array_equal(a, b)

    def test_dim_mismatch(self):
        refs = _refs([[0.0, 1.0]], [1, 2])
        with pytest.raises(ValidationError):
            classify.knn1_predict(refs, np.zeros((2, 1)))


class TestKnn1Blocks:
    """Queries are scored in blocks of `graph.KNN_BLOCK_ENTRIES // N_ref` columns;
    the labels must be those of one brute-force search over all of them."""

    @staticmethod
    def _oracle(refs, queries):
        from scipy.spatial.distance import cdist

        return refs.labels[np.argmin(cdist(refs.embeddings.T, queries.T), axis=0)]

    @staticmethod
    def _blocked(refs, queries, block):
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(graph, "KNN_BLOCK_ENTRIES", block * refs.embeddings.shape[1])
            return classify.knn1_predict(refs, queries)

    @pytest.mark.parametrize("block", [1, 3, 7, None])  # 23 queries: the last block ragged
    @pytest.mark.parametrize("kind", ["random", "grid"])
    def test_matches_brute_force(self, block, kind):
        rng = np.random.default_rng(7)
        if kind == "random":
            emb, queries = rng.standard_normal((3, 10)), rng.standard_normal((3, 23))
        else:  # quarter steps: every distance is exact, and many tie
            emb, queries = rng.integers(-4, 5, (2, 10)) / 4.0, rng.integers(-4, 5, (2, 23)) / 4.0
        refs = _refs(emb, np.arange(1, 11))
        pred = self._blocked(refs, queries, block)
        assert np.array_equal(pred, self._oracle(refs, queries))

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_duplicate_references_tie_to_the_lowest_index(self, block):
        emb = np.array([[0.0, 1.0, 2.0, 3.0, 1.0, 0.0, 3.0, 2.0],
                        [0.0, 0.5, 1.0, 1.5, 0.5, 0.0, 1.5, 1.0]])  # 4..7 repeat 1, 0, 3, 2
        refs = _refs(emb, np.arange(1, 9))
        queries = emb[:, [1, 4, 0, 5, 7, 2, 6, 3, 1]]  # both copies of each reference
        pred = self._blocked(refs, queries, block)  # copies fall on both sides of block edges
        assert pred.tolist() == [2, 2, 1, 1, 3, 3, 4, 4, 2]
        assert np.array_equal(pred, self._oracle(refs, queries))

    @pytest.mark.parametrize("block", [1, None])
    def test_single_query(self, block):
        refs = _refs([[0.0, 2.0, 0.0], [0.0, 2.0, 0.0]], [5, 6, 7])
        assert self._blocked(refs, np.array([[0.5], [0.5]]), block).tolist() == [5]

    def test_memory_is_one_block(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        refs = _refs(rng.standard_normal((4, 200)), np.arange(200) % 3)
        queries = rng.standard_normal((4, 10_000))
        full = 8 * 200 * queries.shape[1]  # one N_ref x N_query float64 matrix
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "KNN_BLOCK_ENTRIES", 200 * 500)
            tracemalloc.start()
            try:
                classify.knn1_predict(refs, queries)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.25 * full, f"peak {peak / 2**20:.1f} MiB"


class TestLinear:
    def test_separable_two_class(self):
        emb = np.array([[-2.0, -1.5, 1.5, 2.0]])
        onehot = onehot_encode([1, 1, 2, 2], 2)
        w = classify.fit_linear(emb, onehot, 1e-6)
        pred = classify.linear_predict(w, [[-3.0, 3.0, -0.1, 0.1]])
        assert pred.tolist() == [1, 2, 1, 2]

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((3, 20))
        onehot = onehot_encode(rng.integers(1, 4, 20), 3)
        lam = 0.5
        w = classify.fit_linear(emb, onehot, lam)
        z = np.vstack([emb, np.ones((1, 20))])
        reg = lam * np.eye(4)
        reg[3, 3] = 0.0
        oracle = onehot @ z.T @ np.linalg.inv(z @ z.T + reg)
        assert np.allclose(w, oracle, atol=1e-10)

    def test_unregularized_bias_gives_priors_at_large_lambda(self):
        # with lambda -> inf the slope vanishes and the bias encodes class
        # frequencies, so the majority class is predicted everywhere
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((2, 30))
        labels = np.array([1] * 10 + [2] * 20)
        w = classify.fit_linear(emb, onehot_encode(labels, 2), 1e12)
        pred = classify.linear_predict(w, rng.standard_normal((2, 15)))
        assert np.all(pred == 2)

    def test_score_tie_goes_to_lowest_class(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        assert classify.linear_predict(w, [[2.0]]).tolist() == [1]

    def test_bad_lambda(self):
        with pytest.raises(ValidationError):
            classify.fit_linear(np.ones((1, 2)), np.ones((1, 2)), 0.0)

    def test_query_dim_mismatch(self):
        w = np.ones((2, 4))
        with pytest.raises(ValidationError):
            classify.linear_predict(w, np.ones((2, 5)))


def _toy_model():
    rng = np.random.default_rng(3)
    labels = np.repeat([1, 2], 6)
    hs = np.vstack([labels - 1.5, rng.standard_normal((4, 12)) * 0.1])
    ms = hs[:2] + 0.01 * rng.standard_normal((2, 12))
    ds = PairedDataset(ms=ms, hs=hs, labels=labels, num_classes=2)
    return solver.fit(ds, solver.Hyperparams(alpha=0.1, beta=0.01, dim=2)), ds


class TestPredictViaP:
    def test_argmax_oracle(self):
        model, _ = _toy_model()
        queries = np.random.default_rng(4).standard_normal((model.d_m, 9))
        pred = classify.predict_via_p(model, queries)
        scores = model.p @ model.theta_m @ queries
        assert np.array_equal(pred, np.argmax(scores, axis=0) + 1)
        assert np.all((1 <= pred) & (pred <= model.num_classes))


class TestModelReferenceSet:
    def test_both_contains_all_copies(self):
        model, ds = _toy_model()
        refs = classify.model_reference_set(model, "both")
        assert refs.embeddings.shape[1] == 2 * ds.num_samples

    def test_ms_restricts(self):
        model, ds = _toy_model()
        refs = classify.model_reference_set(model, "ms")
        assert refs.embeddings.shape[1] == ds.num_samples
        assert np.allclose(refs.embeddings, solver.embed_ms(model, ds.ms))

    def test_missing_refs(self):
        model, ds = _toy_model()
        bare = solver.CoSpaceModel(
            theta=model.theta, p=model.p, d_m=model.d_m, d_h=model.d_h,
            num_classes=model.num_classes, hyper=model.hyper,
            objective_trace=model.objective_trace, converged=model.converged,
        )
        with pytest.raises(ValidationError):
            classify.model_reference_set(bare)

    def test_unknown_selector(self):
        model, _ = _toy_model()
        with pytest.raises(ValidationError):
            classify.model_reference_set(model, "hs")


class TestWritePgm:
    def test_header_and_pixels(self, tmp_path):
        path = tmp_path / "map.pgm"
        classify.write_pgm(path, [1, 2, 3, 4], 2, 2, max_label=4)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = raw[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [63, 127, 191, 255]

    def test_size_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            classify.write_pgm(tmp_path / "map.pgm", [1, 2, 3], 2, 2, max_label=3)
