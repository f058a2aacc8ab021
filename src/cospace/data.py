"""Datasets: paired MS/HS samples, spectral degradation, file I/O, synthetic scenes.

All feature matrices are stored column-per-sample (bands x pixels). Labels are
1-based dense integers; one-hot rows are 0-indexed internally.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import ParseError, ValidationError, check_keys, check_number, check_numbers

_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # ~2.3548


def _as_matrix(a, name):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite values")
    return m


@dataclass(frozen=True)
class SrfBank:
    """Spectral response filters, one row per output (MS) band; rows sum to 1."""

    filters: np.ndarray

    def __post_init__(self):
        f = _as_matrix(self.filters, "filters")
        if np.any(f < 0):
            raise ValidationError("SRF weights must be nonnegative")
        sums = f.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValidationError("every SRF row must sum to 1")
        object.__setattr__(self, "filters", f)


def onehot_encode(labels, num_classes):
    """Return a num_classes x N one-hot matrix for 1-based labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels must be a nonempty 1-D sequence")
    bad = np.nonzero((labels != np.floor(labels)) | (labels < 1)
                     | (labels > num_classes))[0]
    if bad.size:
        raise ValidationError(
            f"label {labels[bad[0]]} at index {bad[0]} outside [1..{num_classes}]"
        )
    labels = labels.astype(int)
    out = np.zeros((num_classes, labels.size))
    out[labels - 1, np.arange(labels.size)] = 1.0
    return out


@dataclass(frozen=True)
class PairedDataset:
    """Aligned MS/HS feature blocks with shared labels."""

    ms: np.ndarray
    hs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        ms = _as_matrix(self.ms, "ms")
        hs = _as_matrix(self.hs, "hs")
        labels = np.asarray(self.labels, dtype=int)
        if ms.shape[1] != hs.shape[1]:
            raise ValidationError(
                f"ms has {ms.shape[1]} columns but hs has {hs.shape[1]}"
            )
        if labels.shape != (ms.shape[1],):
            raise ValidationError("labels length must equal the sample count")
        # sorted and distinct, so this is 1..num_classes without building it:
        # num_classes comes from the largest label, which may be huge
        present = np.unique(labels)
        if (present.size != self.num_classes
                or np.any(present != np.arange(1, present.size + 1))):
            raise ValidationError(
                f"every class in [1..{self.num_classes}] must appear; got {present.tolist()}"
            )
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self):
        return self.ms.shape[1]

    @property
    def onehot(self):
        return onehot_encode(self.labels, self.num_classes)


@dataclass(frozen=True)
class StackedSystem:
    """Block-diagonal stacked features and duplicated one-hot targets, or (in
    `solver.fit`) a thin factor of them with the same Grams XX^T, YX^T, YY^T."""

    xtilde: np.ndarray
    ytilde: np.ndarray
    d_m: int
    d_h: int


def stack_system(ds: PairedDataset) -> StackedSystem:
    """Place ms and hs on the diagonal of a (d_M+d_H) x 2N block matrix."""
    d_m, n = ds.ms.shape
    d_h = ds.hs.shape[0]
    xtilde = np.zeros((d_m + d_h, 2 * n))
    xtilde[:d_m, :n] = ds.ms
    xtilde[d_m:, n:] = ds.hs
    onehot = ds.onehot
    ytilde = np.hstack([onehot, onehot])
    return StackedSystem(xtilde=xtilde, ytilde=ytilde, d_m=d_m, d_h=d_h)


def build_gaussian_srf(ms_centers, hs_centers, fwhm) -> SrfBank:
    """Gaussian band responses centered on ms_centers, normalized per row."""
    if fwhm <= 0:
        raise ValidationError(f"fwhm must be positive, got {fwhm}")
    ms_centers = np.asarray(ms_centers, dtype=float)
    hs_centers = np.asarray(hs_centers, dtype=float)
    if ms_centers.size == 0 or hs_centers.size == 0:
        raise ValidationError("center lists must be nonempty")
    if np.any(np.diff(ms_centers) <= 0) or np.any(np.diff(hs_centers) <= 0):
        raise ValidationError("center lists must be strictly increasing")
    sigma = fwhm / _FWHM_TO_SIGMA
    diff = hs_centers[None, :] - ms_centers[:, None]
    weights = np.exp(-(diff**2) / (2.0 * sigma**2))
    weights /= weights.sum(axis=1, keepdims=True)
    return SrfBank(filters=weights)


# ---------------------------------------------------------------------------
# File I/O: every write goes through `atomic_write`. CSV formats (README):
# band_1..band_d[,label] features, `label` labels, `index,label` predictions.
# ---------------------------------------------------------------------------


def atomic_write(path, content):
    """Write a str (as UTF-8), bytes, or an iterable of str blocks to a temp
    file, then rename it to `path`."""
    tmp = f"{path}.tmp"
    blocks = [content] if isinstance(content, (str, bytes)) else content
    with open(tmp, "wb") as fh:
        for block in blocks:
            fh.write(block.encode("utf-8") if isinstance(block, str) else block)
    os.replace(tmp, path)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path, doc):
    """Write `doc` as indented, key-sorted JSON ending in a newline."""
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _data_lines(path, after=0):
    """(physical line number, line) of each non-blank line after line `after`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > after and not line.isspace():
                yield lineno, line


def _read_header(path):
    """(header cells, header line number)."""
    for lineno, line in _data_lines(path):
        return [c.strip() for c in line.split(",")], lineno
    raise ParseError(f"{path}: empty file")


def _parses(cell, convert):
    """Whether np.loadtxt takes the cell as a float or an int: it rejects
    `1_000`, non-ASCII digits and integers outside int64."""
    try:
        value = convert(cell)
    except ValueError:
        return False
    in_range = convert is float or -(2**63) <= value < 2**63
    return in_range and cell.isascii() and "_" not in cell


def _parse_rows(path, header_line, num_floats, int_names):
    """Parse the non-blank lines after the header into records: `num_floats`
    float columns as field "x", then an int field per name. `#` is ordinary,
    so it cannot cut a row short; a bad row is named by its physical line."""
    dtype = [(name, int) for name in int_names]
    if num_floats:
        dtype.insert(0, ("x", float, (num_floats,)))
    with open(path, "r", encoding="utf-8") as fh:
        # skipped and filtered in C: a Python generator costs a tenth of the parse
        rows = itertools.filterfalse(str.isspace, itertools.islice(fh, header_line, None))
        first = next(rows, None)
        if first is None:  # np.loadtxt would warn on empty input
            return np.empty(0, dtype)
        try:
            return np.loadtxt(itertools.chain([first], rows), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError as exc:
            message = str(exc)
    width = num_floats + len(int_names)
    for lineno, line in _data_lines(path, header_line):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}: expected {width} values, found {len(cells)}",
                             line=lineno)
        if not all(_parses(c, float) for c in cells[:num_floats]):
            raise ParseError(f"{path}: non-numeric cell", line=lineno)
        if not all(_parses(c, int) for c in cells[num_floats:]):
            raise ParseError(f"{path}: non-integer label", line=lineno)
    raise ParseError(f"{path}: {message}")


def save_csv(path, samples, labels=None):
    """Write a bands x pixels matrix (one pixel per row) at full precision."""
    samples = _as_matrix(samples, "samples")
    d, n = samples.shape
    header = ",".join(f"band_{i + 1}" for i in range(d))
    rows = samples.T.tolist()
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (n,):
            raise ValidationError("labels length must match the pixel count")
        header += ",label"
        rows = [row + [lab] for row, lab in zip(rows, labels.tolist())]
    atomic_write(path, "\n".join([header, *(",".join(map(repr, r)) for r in rows)]) + "\n")


def load_csv(path):
    """Read a feature CSV; returns (samples d x N, labels or None)."""
    header, lineno = _read_header(path)
    has_label = header[-1] == "label"
    band_cols = header[:-1] if has_label else header
    if not band_cols or band_cols != [f"band_{i + 1}" for i in range(len(band_cols))]:
        raise ParseError(f"{path}: header must be band_1..band_d[,label]", line=lineno)
    table = _parse_rows(path, lineno, len(band_cols), ["label"] if has_label else [])
    if table.size == 0:
        raise ParseError(f"{path}: no data rows", line=lineno)
    # a view into the parsed table: a copy would raise a scene-sized
    # predict's peak memory
    return table["x"].T, (table["label"] if has_label else None)


def load_labels_csv(path):
    """Read a single-column label CSV (header `label`)."""
    header, lineno = _read_header(path)
    if header != ["label"]:
        raise ParseError(f"{path}: expected a single `label` header", line=lineno)
    return _parse_rows(path, lineno, 0, ["label"])["label"]


def load_truth(path):
    """Labels from a label CSV (header `label`) or a feature CSV's label column."""
    header, _ = _read_header(path)
    if header == ["label"]:
        return load_labels_csv(path)
    _, labels = load_csv(path)
    if labels is None:
        raise ValidationError(f"{path} carries no label column")
    return labels


def load_pairs(ms_path, hs_path, labels_path=None) -> PairedDataset:
    """Training pairs from an MS and an HS feature CSV. The labels come from
    the label CSV `labels_path` if given, else from the MS file, else the HS."""
    ms, labels = load_csv(ms_path)
    hs, labels_hs = load_csv(hs_path)
    if labels_path:
        labels = load_labels_csv(labels_path)
    elif labels is None:
        labels = labels_hs
    if labels is None:
        raise ValidationError("no labels given: use a label CSV or a label column")
    return PairedDataset(ms=ms, hs=hs, labels=labels,
                         num_classes=int(np.max(labels, initial=0)))


PREDICTION_BLOCK_ROWS = 16_384  # rows formatted at a time: about 1 MB of Python strings


def save_predictions(path, labels):
    """Write one predicted label per sample as an `index,label` CSV, a block
    of rows at a time, so memory does not grow with the row count."""
    labels = np.asarray(labels, dtype=int)

    def blocks():
        yield "index,label\n"
        for start in range(0, labels.size, PREDICTION_BLOCK_ROWS):
            block = labels[start : start + PREDICTION_BLOCK_ROWS].tolist()
            yield "".join(f"{i},{lab}\n" for i, lab in enumerate(block, start))

    atomic_write(path, blocks())


def load_predictions(path):
    """Read an `index,label` CSV; the indices must run 0..n-1."""
    header, lineno = _read_header(path)
    if header != ["index", "label"]:
        raise ParseError(f"{path}: expected `index,label` header", line=lineno)
    table = _parse_rows(path, lineno, 0, ["index", "label"])
    if not np.array_equal(table["index"], np.arange(table.size)):
        raise ParseError(f"{path}: the index column must run 0..n-1")
    return table["label"]


# ---------------------------------------------------------------------------
# Synthetic scenes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSpec:
    hs_mean: np.ndarray
    size: int


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic paired scene; serializable as JSON."""

    classes: tuple
    noise_sigma: float
    ms_centers: np.ndarray
    hs_centers: np.ndarray
    srf_fwhm: float
    test_fraction: float
    seed: int = 0
    brightness_sigma: float = 0.0

    def __post_init__(self):
        for name in ("noise_sigma", "srf_fwhm", "test_fraction", "brightness_sigma"):
            check_number(f"scene {name}", getattr(self, name), Real)
        check_number("scene seed", self.seed, Integral)
        if self.seed < 0:
            raise ValidationError("scene seed must be nonnegative")
        if len(self.classes) < 2:
            raise ValidationError("a scene needs at least 2 classes")
        for k, c in enumerate(self.classes, start=1):
            check_number(f"scene class {k} size", c.size, Integral)
        if self.noise_sigma < 0 or self.brightness_sigma < 0:
            raise ValidationError("noise sigmas must be nonnegative")
        if not (0 < self.test_fraction < 1):
            raise ValidationError("test_fraction must lie in (0, 1)")

    @staticmethod
    def from_json(doc):
        """A SceneSpec from JSON; a bad key or value is a ValidationError naming it."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        names = [f.name for f in fields(SceneSpec)]
        check_keys("scene spec", doc, names, required=names[:6])  # fields without defaults
        if not isinstance(doc["classes"], list):
            raise ValidationError("scene classes must be a list")
        classes = []
        for k, c in enumerate(doc["classes"], start=1):
            check_keys(f"scene class {k}", c, ("hs_mean", "size"), required=("hs_mean", "size"))
            classes.append(ClassSpec(_reals(f"scene class {k} hs_mean", c["hs_mean"]), c["size"]))
        return SceneSpec(**dict(doc, classes=tuple(classes),
                                ms_centers=_reals("scene ms_centers", doc["ms_centers"]),
                                hs_centers=_reals("scene hs_centers", doc["hs_centers"])))

    def to_json(self):
        return json.dumps(asdict(self), default=lambda v: v.tolist(), indent=2,
                          sort_keys=True)

    @property
    def srf(self) -> SrfBank:
        return build_gaussian_srf(self.ms_centers, self.hs_centers, self.srf_fwhm)


def _reals(name, values):
    check_numbers(name, values, Real)
    return np.asarray(values, dtype=float)


def metamer_hs_mean(base_mean, srf: SrfBank, scale, seed=0, leak=0.0):
    """Derive a second HS mean whose SRF image matches base_mean's.

    The offset lives in the SRF null space (scaled to `scale` in 2-norm); an
    optional `leak` adds a visible-in-MS component for near-metamer pairs.
    """
    from scipy.linalg import null_space

    base_mean = np.asarray(base_mean, dtype=float)
    ns = null_space(srf.filters)
    if ns.shape[1] == 0:
        raise ValidationError("SRF has trivial null space; no metamer exists")
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(ns.shape[1])
    direction = ns @ coeff
    direction /= np.linalg.norm(direction)
    offset = scale * direction
    if leak != 0.0:
        visible = rng.standard_normal(base_mean.size)
        # remove the null-space part so `leak` is the exact MS-visible magnitude
        visible -= ns @ (ns.T @ visible)
        visible /= np.linalg.norm(visible)
        offset = offset + leak * visible
    return base_mean + offset


def make_synthetic_scene(spec: SceneSpec):
    """Sample a paired training set and an MS-only test set from a SceneSpec.

    Returns (PairedDataset, test_ms: d_M x T matrix, test_labels). Deterministic
    for a fixed spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    srf = spec.srf
    d_h = len(spec.hs_centers)
    train_hs, train_labels = [], []
    test_hs, test_labels = [], []
    for k, cls in enumerate(spec.classes, start=1):
        if cls.hs_mean.shape != (d_h,):
            raise ValidationError(
                f"class {k} hs_mean length {cls.hs_mean.size} != {d_h} HS bands"
            )
        n_test = int(round(cls.size * spec.test_fraction))
        n_train = cls.size - n_test
        if n_train < 1 or n_test < 1:
            raise ValidationError(
                f"class {k}: size {cls.size} with test_fraction {spec.test_fraction} "
                "leaves an empty split"
            )
        noise = rng.standard_normal((d_h, cls.size)) * spec.noise_sigma
        # per-pixel illumination offset, shared by every band
        brightness = rng.standard_normal(cls.size) * spec.brightness_sigma
        samples = cls.hs_mean[:, None] + noise + brightness[None, :]
        train_hs.append(samples[:, :n_train])
        test_hs.append(samples[:, n_train:])
        train_labels.extend([k] * n_train)
        test_labels.extend([k] * n_test)
    hs = np.hstack(train_hs)
    ds = PairedDataset(
        ms=srf.filters @ hs,
        hs=hs,
        labels=np.asarray(train_labels),
        num_classes=len(spec.classes),
    )
    test_ms = srf.filters @ np.hstack(test_hs)
    return ds, test_ms, np.asarray(test_labels)
