import importlib.util
import pathlib
import tracemalloc

import numpy as np
import pytest

from cospace import data
from cospace.errors import ParseError, ValidationError


class TestOnehot:
    def test_single_label(self):
        out = data.onehot_encode([2], 3)
        assert out.tolist() == [[0.0], [1.0], [0.0]]

    def test_multiple_labels(self):
        out = data.onehot_encode([1, 1, 3], 3)
        assert out.T.tolist() == [[1, 0, 0], [1, 0, 0], [0, 0, 1]]

    def test_out_of_range_names_index(self):
        with pytest.raises(ValidationError, match="index 0"):
            data.onehot_encode([4], 3)

    def test_columns_sum_to_one_and_argmax_roundtrip(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 6, 40)
        out = data.onehot_encode(labels, 5)
        assert np.array_equal(out.sum(axis=0), np.ones(40))
        assert np.array_equal(np.argmax(out, axis=0) + 1, labels)


class TestGaussianSrf:
    def test_isolated_band_is_one_hot(self):
        srf = data.build_gaussian_srf([500], [500, 900, 1000], fwhm=10)
        assert srf.filters[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_placement(self):
        srf = data.build_gaussian_srf([500], [490, 510], fwhm=25)
        assert srf.filters[0].tolist() == [0.5, 0.5]

    def test_middle_weight_largest_outer_equal(self):
        srf = data.build_gaussian_srf([500], [490, 500, 510], fwhm=10)
        row = srf.filters[0]
        # independent evaluation of the kernel
        sigma = 10 / 2.3548200450309493
        raw = np.exp(-np.array([100.0, 0.0, 100.0]) / (2 * sigma**2))
        assert np.allclose(row, raw / raw.sum(), atol=1e-12)
        assert row[1] > row[0] == row[2]

    def test_bad_fwhm(self):
        with pytest.raises(ValidationError):
            data.build_gaussian_srf([500], [490, 510], fwhm=0)


class TestPairedDataset:
    def test_missing_class(self):
        with pytest.raises(ValidationError, match=r"every class in \[1\.\.3\]"):
            data.PairedDataset(ms=np.ones((1, 2)), hs=np.ones((2, 2)),
                               labels=[1, 3], num_classes=3)

    def test_huge_label_is_rejected_without_allocating(self):
        # a 1..10^13 class range would need 72.8 TiB
        with pytest.raises(ValidationError, match="must appear"):
            data.PairedDataset(ms=np.ones((1, 2)), hs=np.ones((2, 2)),
                               labels=[1, 10**13], num_classes=10**13)


class TestStackSystem:
    def _ds(self, ms, hs, labels, L):
        return data.PairedDataset(ms=ms, hs=hs, labels=labels, num_classes=L)

    def test_minimal_blocks(self):
        ds = self._ds([[5.0], [1.0]], [[7.0]], [1], 1)
        sys = data.stack_system(ds)
        assert sys.xtilde.tolist() == [[5, 0], [1, 0], [0, 7]]

    def test_ytilde_duplicates_onehot(self):
        ds = self._ds([[1.0, 2.0]], [[3.0, 4.0]], [1, 2], 2)
        sys = data.stack_system(ds)
        assert sys.ytilde.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    def test_off_blocks_exactly_zero(self):
        rng = np.random.default_rng(0)
        ds = self._ds(rng.normal(size=(3, 6)), rng.normal(size=(5, 6)),
                      [1, 1, 2, 2, 3, 3], 3)
        sys = data.stack_system(ds)
        n = 6
        assert np.abs(sys.xtilde[:3, n:]).sum() == 0.0
        assert np.abs(sys.xtilde[3:, :n]).sum() == 0.0
        nonzero_budget = 3 * n + 5 * n
        assert np.count_nonzero(sys.xtilde) <= nonzero_budget


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((5, 7))
        labels = rng.integers(1, 4, 7)
        path = tmp_path / "x.csv"
        data.save_csv(path, samples, labels)
        back, back_labels = data.load_csv(path)
        assert np.array_equal(back, samples)
        assert np.array_equal(back_labels, labels)

    def test_round_trip_without_labels(self, tmp_path):
        samples = np.array([[1.25, -3.5]])
        path = tmp_path / "x.csv"
        data.save_csv(path, samples)
        back, labels = data.load_csv(path)
        assert labels is None
        assert np.array_equal(back, samples)

    def test_two_pixel_parse(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1,band_2,label\n1.0,2.0,1\n3.0,4.0,2\n")
        samples, labels = data.load_csv(path)
        assert samples.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        assert labels.tolist() == [1, 2]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1,band_2\n1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError, match="header"):
            data.load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1\nfoo\n")
        with pytest.raises(ParseError, match="line 2"):
            data.load_csv(path)

    def test_save_golden_bytes(self, tmp_path):
        path = tmp_path / "x.csv"
        data.save_csv(path, np.array([[0.1, 1e-05], [-3.5, 1e16]]), [1, 2])
        assert path.read_bytes() == (b"band_1,band_2,label\n"
                                     b"0.1,-3.5,1\n1e-05,1e+16,2\n")

    def test_bad_row_after_blank_line_reports_physical_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1,label\n1.0,1\n\n2.0,2\nfoo,1\n")
        with pytest.raises(ParseError, match="non-numeric cell.*line 5"):
            data.load_csv(path)

    def test_hash_in_cell_is_not_a_comment(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1,band_2\n1.0,2.0\n3.0#,4.0\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_csv(path)

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("band_1,label\n1.0,1\n  \t\n2.0,2\n")
        samples, labels = data.load_csv(path)
        assert samples.tolist() == [[1.0, 2.0]]
        assert labels.tolist() == [1, 2]

    @pytest.mark.parametrize("cell", ["2.0", "1_0"])
    def test_non_integer_label(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        path.write_text(f"band_1,label\n1.0,1\n1.0,{cell}\n")
        with pytest.raises(ParseError, match="non-integer label.*line 3"):
            data.load_csv(path)

    def test_bad_label_in_label_file_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n1\n2\nx\n")
        with pytest.raises(ParseError, match="non-integer label.*line 4"):
            data.load_labels_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only_files(self, tmp_path):
        features = tmp_path / "x.csv"
        features.write_text("band_1,label\n\n")
        with pytest.raises(ParseError, match="no data rows"):
            data.load_csv(features)
        labels = tmp_path / "labels.csv"
        labels.write_text("label\n")
        assert data.load_labels_csv(labels).shape == (0,)
        preds = tmp_path / "pred.csv"
        preds.write_text("index,label\n")
        assert data.load_predictions(preds).shape == (0,)

    def test_predictions_round_trip(self, tmp_path):
        path = tmp_path / "pred.csv"
        data.save_predictions(path, np.array([3, 1, 2]))
        assert path.read_text() == "index,label\n0,3\n1,1\n2,2\n"
        assert data.load_predictions(path).tolist() == [3, 1, 2]

    def test_label_outside_int64_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n1\n\n99999999999999999999\n")
        with pytest.raises(ParseError, match="non-integer label.*line 4"):
            data.load_labels_csv(path)

    def test_bad_row_past_the_first_parse_chunk_reports_physical_line(self, tmp_path):
        # np.loadtxt reads its input in chunks of 50,000 rows
        path = tmp_path / "x.csv"
        path.write_text("band_1,label\n" + "1.0,1\n" * 50_001 + "\n1.0,x\n")
        with pytest.raises(ParseError, match="non-integer label.*line 50004"):
            data.load_csv(path)

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        # the lines of a file take several times its table's bytes as Python strings
        rng = np.random.default_rng(3)
        path = tmp_path / "x.csv"
        data.save_csv(path, rng.standard_normal((10, 30_000)), rng.integers(1, 4, 30_000))
        tracemalloc.start()
        try:
            samples, labels = data.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (samples.nbytes + labels.nbytes)


    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8])
    def test_predictions_in_blocks_are_one_file(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(data, "PREDICTION_BLOCK_ROWS", 3)
        labels = np.arange(rows) % 4 + 1
        path = tmp_path / "pred.csv"
        data.save_predictions(path, labels)
        assert path.read_text() == "index,label\n" + "".join(
            f"{i},{lab}\n" for i, lab in enumerate(labels.tolist()))

    def test_predictions_hold_no_string_per_row(self, tmp_path):
        labels = np.random.default_rng(4).integers(1, 4, 300_000)
        path = tmp_path / "pred.csv"
        tracemalloc.start()
        try:
            data.save_predictions(path, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one Python string per row would take about ten times the file
        assert peak < path.stat().st_size


class TestLoadTruth:
    def test_label_csv_after_blank_lines(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("\n  \nlabel\n2\n\n1\n")
        assert data.load_truth(path).tolist() == [2, 1]

    def test_feature_csv_label_column(self, tmp_path):
        path = tmp_path / "truth.csv"
        data.save_csv(path, np.ones((2, 3)), [1, 3, 2])
        assert data.load_truth(path).tolist() == [1, 3, 2]

    def test_feature_csv_without_labels(self, tmp_path):
        path = tmp_path / "truth.csv"
        data.save_csv(path, np.ones((2, 3)))
        with pytest.raises(ValidationError, match="carries no label column"):
            data.load_truth(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="empty file"):
            data.load_truth(path)

def _scene_spec(noise=0.1, seed=0):
    hs_centers = np.arange(400.0, 700.0, 20.0)
    ms_centers = np.array([450.0, 550.0, 650.0])
    srf = data.build_gaussian_srf(ms_centers, hs_centers, 40.0)
    base = 0.5 + 0.1 * np.sin(hs_centers / 50.0)
    other = data.metamer_hs_mean(base, srf, scale=0.5, seed=1)
    third = 0.3 + 0.2 * np.cos(hs_centers / 80.0)
    return data.SceneSpec(
        classes=(
            data.ClassSpec(hs_mean=base, size=30),
            data.ClassSpec(hs_mean=other, size=30),
            data.ClassSpec(hs_mean=third, size=40),
        ),
        noise_sigma=noise,
        ms_centers=ms_centers,
        hs_centers=hs_centers,
        srf_fwhm=40.0,
        test_fraction=0.5,
        seed=seed,
    )


class TestSyntheticScene:
    def test_deterministic(self):
        spec = _scene_spec()
        a = data.make_synthetic_scene(spec)
        b = data.make_synthetic_scene(spec)
        assert np.array_equal(a[0].ms, b[0].ms)
        assert np.array_equal(a[0].hs, b[0].hs)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_metamer_pair_noiseless(self):
        spec = _scene_spec(noise=0.0)
        ds, _, _ = data.make_synthetic_scene(spec)
        ms1 = ds.ms[:, ds.labels == 1]
        ms2 = ds.ms[:, ds.labels == 2]
        hs1 = ds.hs[:, ds.labels == 1]
        hs2 = ds.hs[:, ds.labels == 2]
        assert np.allclose(ms1[:, 0], ms2[:, 0], atol=1e-10)
        assert np.linalg.norm(hs1[:, 0] - hs2[:, 0]) > 0.1

    def test_cardinality(self):
        ds, test_ms, test_labels = data.make_synthetic_scene(_scene_spec())
        assert ds.num_samples == 15 + 15 + 20
        assert test_ms.shape[1] == test_labels.size == 15 + 15 + 20

    def test_too_few_classes(self):
        spec = _scene_spec()
        with pytest.raises(ValidationError):
            data.SceneSpec(
                classes=spec.classes[:1],
                noise_sigma=0.1,
                ms_centers=spec.ms_centers,
                hs_centers=spec.hs_centers,
                srf_fwhm=40.0,
                test_fraction=0.5,
            )

    def test_json_round_trip(self):
        spec = _scene_spec()
        back = data.SceneSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()
        a = data.make_synthetic_scene(spec)
        b = data.make_synthetic_scene(back)
        assert np.array_equal(a[0].hs, b[0].hs)

    def test_shipped_scene_matches_its_generator(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "make_metamer_scene", root / "scripts" / "make_metamer_scene.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        shipped = (root / "data" / "metamer_scene.json").read_text(encoding="utf-8")
        assert script.build_spec().to_json() + "\n" == shipped
