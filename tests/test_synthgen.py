"""Synthetic benchmark recipes, identifiability oracle, masks, file round trips."""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from crossscalenet.cli import main
from crossscalenet.data import read_csv_matrix
from crossscalenet.synthgen import (
    AR_COEF,
    BUILTIN_NAMES,
    SaliencyTruth,
    SynthSpec,
    ar1_series,
    builtin_spec,
    compose_target,
    draw_coefficients,
    export_dataset,
    export_mask,
    generate_dataset,
    generate_features,
    generate_target,
    ground_truth_mask,
    load_mask,
)

EXPECTED_ROWS = {
    "SYN1": (set(range(1, 16)), {0, 1}, 0.01),
    "SYN2": (set(range(1, 6)) | {9, 10, 15, 16, 18, 20, 25, 26, 35, 36} | set(range(50, 53)) | set(range(91, 96)),
             {0, 2}, 0.05),
    "SYN3": ({9, 10, 15, 16, 18} | set(range(20, 26)) | {31, 34} | set(range(60, 66)), {1, 2}, 0.08),
    "SYN4": ({9, 10, 15, 16} | set(range(18, 22)) | {41, 42, 45, 46}, {1, 2}, 0.10),
    "SYN5": (set(range(71, 78)), {1, 2}, 0.06),
    "SYN6": (set(range(48, 58)), {0, 2}, 0.05),
    "SYN7": ({60} | set(range(62, 70)), {0, 1}, 0.02),
    "SYN8": (set(range(71, 78)) | set(range(48, 58)), {0, 1, 2}, 0.11),
}


def test_builtin_table_is_complete():
    assert set(BUILTIN_NAMES) == set(EXPECTED_ROWS)


@pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
def test_builtin_spec_rows(name):
    lags, feats, noise = EXPECTED_ROWS[name]
    spec = builtin_spec(name)
    assert set(spec.important_lags) == lags
    assert set(spec.important_features) == feats
    assert spec.noise_sigma == noise
    assert spec.n_features == 6
    assert spec.seed == 42


def test_syn8_is_union_of_syn5_and_syn6():
    s5, s6, s8 = builtin_spec("SYN5"), builtin_spec("SYN6"), builtin_spec("SYN8")
    assert set(s8.important_lags) == set(s5.important_lags) | set(s6.important_lags)
    assert s8.important_features == (0, 1, 2)
    assert s8.noise_sigma == 0.11


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        builtin_spec("SYN9")


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec("bad", (0,), (0,), 0.1)
    with pytest.raises(ValueError):
        SynthSpec("bad", (1,), (9,), 0.1, n_features=3)
    with pytest.raises(ValueError):
        SynthSpec("bad", (1,), (0,), -0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_a_non_finite_noise_sigma(sigma):
    # NaN used to pass as noiseless data, +inf to give an all-NaN target
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        SynthSpec("bad", (1,), (0,), sigma)


# ---------------------------------------------------------------------------
# feature process


def test_features_deterministic():
    spec = builtin_spec("SYN1", n_samples=500)
    assert np.array_equal(generate_features(spec), generate_features(spec))
    other = builtin_spec("SYN1", n_samples=500, seed=7)
    assert not np.array_equal(generate_features(spec), generate_features(other))


def test_feature_statistics():
    spec = builtin_spec("SYN3")  # n_samples 10000
    x = generate_features(spec)
    assert x.shape == (10000, 6)
    assert np.all(np.abs(x.mean(axis=0)) < 0.05)
    assert np.all(np.abs(x.std(axis=0) - 1.0) < 0.05)


def test_feature_lag1_autocorrelation():
    x = generate_features(builtin_spec("SYN1"))
    for j in range(x.shape[1]):
        series = x[:, j]
        ac = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert ac > 0.5, f"feature {j}: lag-1 autocorr {ac:.3f}"


# ---------------------------------------------------------------------------
# target construction


def test_degenerate_single_lag_tracks_feature_exactly():
    spec = SynthSpec("toy", (1,), (0,), 0.0, n_features=2, n_samples=300, seed=3)
    x = generate_features(spec)
    y = compose_target(x, spec, current={0: 0.0}, lagged={(0, 1): 0.8})
    lagged_feature = x[:-1, 0]
    corr = np.corrcoef(y, lagged_feature)[0, 1]
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_row_drop_rule():
    spec = builtin_spec("SYN5", n_samples=400)
    x = generate_features(spec)
    y = generate_target(x, spec)
    assert len(y) == 400 - 77
    xa, ya = generate_dataset(spec)
    assert xa.shape[0] == len(ya) == 400 - 77


def test_target_zscored():
    _, y = generate_dataset(builtin_spec("SYN2", n_samples=2000))
    assert abs(y.mean()) < 1e-9
    assert abs(y.std() - 1.0) < 1e-9


def _design_matrix(x, rows, feats, lags, include_current):
    cols = []
    if include_current:
        for j in feats:
            cols.append(x[rows, j])
    for j in feats:
        for lag in lags:
            cols.append(x[rows - lag, j])
    return np.column_stack(cols)


def _r_squared(design, y):
    design = np.column_stack([design, np.ones(len(y))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return 1.0 - resid.var() / y.var()


def test_ols_oracle_recovers_syn1():
    spec = builtin_spec("SYN1", seed=42)
    x = generate_features(spec)
    y = generate_target(x, spec)
    rows = np.arange(spec.max_lag, spec.n_samples)
    design = _design_matrix(x, rows, spec.important_features, spec.important_lags, True)
    assert _r_squared(design, y) > 0.95


@pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
def test_ols_identifiability_every_builtin(name):
    spec = builtin_spec(name)
    x = generate_features(spec)
    y = generate_target(x, spec)
    rows = np.arange(spec.max_lag, spec.n_samples)
    design = _design_matrix(x, rows, spec.important_features, spec.important_lags, True)
    r2 = _r_squared(design, y)
    assert r2 > 0.9, f"{name}: R^2 {r2:.4f}"


def test_ols_negative_control_unimportant_feature():
    spec = builtin_spec("SYN1", seed=42)
    x = generate_features(spec)
    y = generate_target(x, spec)
    rows = np.arange(spec.max_lag, spec.n_samples)
    # feature 3 is not important for SYN1; its lags explain ~nothing
    design = _design_matrix(x, rows, (3,), spec.important_lags, True)
    assert _r_squared(design, y) < 0.1


def test_target_errors_when_too_short():
    spec = builtin_spec("SYN5", n_samples=50)  # max lag 77
    x = generate_features(spec)
    with pytest.raises(ValueError):
        generate_target(x, spec)


def test_coefficients_alternate_sign_by_lag_order():
    spec = builtin_spec("SYN1")
    _, lagged = draw_coefficients(spec)
    for j in spec.important_features:
        signs = [np.sign(lagged[(j, lag)]) for lag in spec.important_lags]
        assert signs == [1 if i % 2 == 0 else -1 for i in range(len(signs))]
        assert all(0.5 <= abs(lagged[(j, lag)]) <= 1.0 for lag in spec.important_lags)


# ---------------------------------------------------------------------------
# ground truth masks


def test_mask_syn1_recent_window():
    truth = ground_truth_mask(builtin_spec("SYN1"), lookback=96)
    assert truth.mask.shape == (96, 6)
    expected = np.zeros(96, dtype=np.int8)
    expected[81:96] = 1  # lags 1..15 from the window end
    assert np.array_equal(truth.temporal, expected)
    assert truth.temporal.sum() == 15
    assert np.array_equal(np.unique(np.nonzero(truth.mask)[1]), [0, 1])


def test_mask_syn5_old_region():
    truth = ground_truth_mask(builtin_spec("SYN5"), lookback=96)
    expected = np.zeros(96, dtype=np.int8)
    expected[19:26] = 1  # lags 71..77
    assert np.array_equal(truth.temporal, expected)
    assert truth.temporal.sum() == 7


def test_mask_counts_match_lag_counts():
    for name in BUILTIN_NAMES:
        spec = builtin_spec(name)
        truth = ground_truth_mask(spec, lookback=96)
        assert truth.temporal.sum() == len(spec.important_lags), name


def test_recent_vs_old_median_salience():
    # SYN1-4 weight the recent half of the window, SYN5-7 the old half
    for name in ("SYN1", "SYN2", "SYN3", "SYN4"):
        truth = ground_truth_mask(builtin_spec(name), 96)
        assert np.median(np.nonzero(truth.temporal)[0]) > 48, name
    for name in ("SYN5", "SYN6", "SYN7"):
        truth = ground_truth_mask(builtin_spec(name), 96)
        assert np.median(np.nonzero(truth.temporal)[0]) < 48, name


def test_empty_lag_set_gives_zero_mask():
    spec = SynthSpec("none", (), (0,), 0.0, n_features=2, n_samples=10)
    truth = ground_truth_mask(spec, lookback=8)
    assert truth.mask.sum() == 0
    assert truth.temporal.sum() == 0


def test_mask_requires_lookback_beyond_max_lag():
    with pytest.raises(ValueError):
        ground_truth_mask(builtin_spec("SYN5"), lookback=77)


# ---------------------------------------------------------------------------
# export / load


def test_export_roundtrip_bit_exact(tmp_path):
    spec = builtin_spec("SYN1", n_samples=300)
    x, y = generate_dataset(spec)
    path = export_dataset(x, y, spec, tmp_path / "syn1.csv")
    header, data = read_csv_matrix(path)
    spec2 = SynthSpec.from_dict(json.loads(path.with_suffix(".json").read_text()))
    assert header == [f"feat_{j}" for j in range(spec.n_features)] + ["target"]
    assert np.array_equal(x, data[:, :-1])
    assert np.array_equal(y, data[:, -1])
    assert spec2 == spec


def test_export_row_count(tmp_path):
    spec = builtin_spec("SYN5", n_samples=200)
    x, y = generate_dataset(spec)
    path = export_dataset(x, y, spec, tmp_path / "syn5.csv")
    rows = path.read_text().strip().splitlines()
    assert len(rows) - 1 == 200 - 77  # header + data rows


def test_export_deterministic_bytes(tmp_path):
    spec = builtin_spec("SYN7", n_samples=250)
    x, y = generate_dataset(spec)
    p1 = export_dataset(x, y, spec, tmp_path / "a.csv")
    x2, y2 = generate_dataset(spec)
    p2 = export_dataset(x2, y2, spec, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_mask_export_roundtrip(tmp_path):
    truth = ground_truth_mask(builtin_spec("SYN3"), 96)
    path = export_mask(truth, tmp_path / "mask.csv")
    loaded = load_mask(path)
    assert np.array_equal(loaded.mask, truth.mask)
    assert np.array_equal(loaded.temporal, truth.temporal)


# ---------------------------------------------------------------------------
# golden digests: the data path is pinned bit for bit
#
# Recorded with numpy 2.4 on x86-64 from the generator whose AR(1) loop ran
# element by element over numpy float64 scalars (series[i] = AR_COEF *
# series[i - 1] + innovations[i]) and whose CSV went through csv.writer:
# hashlib.sha256 over ndarray.tobytes() of each array, and over the bytes of
# each file `gen --dataset SYN1` writes (10,000 samples, seed 42, lookback 96).

GOLDEN_SEED42 = {
    "SYN1": ("d97b2d94d2ec650698d1cd0d2fdd2aa7231a91d927b2fd8bf03ac11237b54a9f",
             "e244ee11c4bf77fe46d894046e74fbd6e18e42b7437f72b97704552ed4c4331d"),
    "SYN2": ("c36aeae1c63f5cbd49880272dc1fccc37ae9da440e5ec96f5baccbbcad395bfa",
             "43663221d65cfb3bc85ce5a22b341016914d4e49f7a22448fe12407f922c3765"),
    "SYN3": ("b508904b6a2e997f91080132ecd68f859a4a14da0e15ee4fe2a8917f5c4b5e09",
             "b82c842e5babaec0293495357396a38d477e6b2646ab68680be0af36a0f51b86"),
    "SYN4": ("b544e5f9653a16e5a2ca35b4cc00cdeb7c6a87f2bc896ad3897f5472a17ffe19",
             "54bd274f6003fb6e6b97c50ad358a330caf2157a2da3e04c66749752ce179a0a"),
    "SYN5": ("5b27097448fbe32fbf4e04b282bf7e65bd4ad243546e22cc691fee725a41fbd9",
             "3bf4641c2793db98f3b171b326b7355bdc4718f03bd0d67d21cfe5eb81282ada"),
    "SYN6": ("10547c32c85c85132e5406d431af7b0aa91380abcd966cdffb9411566567bd76",
             "d813c832947f043a7af8fcf91aef7a37b02c0be991d12bc691fc42829f7fae59"),
    "SYN7": ("32853239865e2fdc23fc531a9250ff6a637164d7b86b6dcc4a38776b37a8a0f2",
             "b769f28ecab1ef19e16053f58df8edcb347c8c3fff0b0bebc23495cbe9098ad6"),
    "SYN8": ("5b27097448fbe32fbf4e04b282bf7e65bd4ad243546e22cc691fee725a41fbd9",
             "544af490e8c7adf83593d0357512929fc105c3e292d25801ced2a2ea5c4ae539"),
}

GOLDEN_GEN_SYN1 = {
    "SYN1.csv": (1410894, "63b375b58ff48922a3ace0f95a580ee1f47fee85d88b0555c8638df029523db2"),
    "SYN1.json": (236, "d574ccd6666e1fc45fef83e499dc33be1f091ca8582a9e6e358052635647c9eb"),
    "SYN1_mask.csv": (1152, "ed8022f9e6e89154f6ebe5c5338fe8936424e32a076134efa28ebcbb81d1c972"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_digests_cover_every_builtin():
    assert set(GOLDEN_SEED42) == set(BUILTIN_NAMES)


@pytest.mark.parametrize("name", sorted(GOLDEN_SEED42))
def test_generate_dataset_matches_golden_digest(name):
    features, target = generate_dataset(builtin_spec(name))
    assert (_sha256(features.tobytes()), _sha256(target.tobytes())) == GOLDEN_SEED42[name]


def test_gen_syn1_files_match_golden_digests(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--dataset", "SYN1", "--out", str(tmp_path)]) == 0
    for name, (size, digest) in GOLDEN_GEN_SYN1.items():
        data = (tmp_path / name).read_bytes()
        assert (len(data), _sha256(data)) == (size, digest), name


def _naive_ar1(innovations: np.ndarray) -> np.ndarray:
    """The recursion as an element-by-element loop over numpy scalars."""
    series = np.empty(len(innovations))
    series[0] = innovations[0]
    for i in range(1, len(innovations)):
        series[i] = AR_COEF * series[i - 1] + innovations[i]
    return series


@pytest.mark.parametrize("n", [1, 2, 10_000])
def test_ar1_series_matches_the_numpy_scalar_loop_bit_for_bit(n):
    innovations = np.random.default_rng(n).normal(0.0, 3.0, size=n)
    got = ar1_series(innovations)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == _naive_ar1(innovations).tobytes()


def test_generate_features_accepts_a_single_sample():
    spec = SynthSpec("one", (), (0,), 0.0, n_features=3, n_samples=1)
    with np.errstate(invalid="ignore"):  # a one-sample series has zero spread
        assert generate_features(spec).shape == (1, 3)
