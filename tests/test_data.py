"""Window construction, split hygiene, and normalization provenance."""

import numpy as np
import pytest

from crossscalenet.data import dataset_from_csv, make_windows, read_csv_matrix

RNG = np.random.default_rng(31)


def test_single_window_boundary_goes_to_train():
    data = RNG.normal(size=(12, 3))  # exactly lookback + horizon rows
    ds = make_windows(data, lookback=8, horizon=4)
    assert ds.n_windows("train") == 1
    assert ds.n_windows("val") == 0
    assert ds.n_windows("test") == 0


def test_window_count_identity():
    rows, t, h = 143, 16, 4
    ds = make_windows(RNG.normal(size=(rows, 2)), t, h)
    total = sum(ds.n_windows(s) for s in ("train", "val", "test"))
    assert total == rows - t - h + 1


def test_split_indices_disjoint_and_chronological():
    ds = make_windows(RNG.normal(size=(500, 2)), 24, 8)
    train = set(ds.split_ranges["train"])
    val = set(ds.split_ranges["val"])
    test = set(ds.split_ranges["test"])
    assert train and val and test
    assert not (train & val) and not (train & test) and not (val & test)
    assert max(train) < min(val) < max(val) < min(test)
    # exhaustive scan: no test window index inside any train range
    for i in test:
        assert i not in train


def test_insufficient_rows_error():
    with pytest.raises(ValueError):
        make_windows(RNG.normal(size=(10, 2)), 8, 4)


def test_fraction_validation():
    data = RNG.normal(size=(100, 2))
    with pytest.raises(ValueError):
        make_windows(data, 8, 4, split_fractions=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        make_windows(data, 8, 4, split_fractions=(1.2, -0.1, -0.1))


def test_window_contents_align_with_rows():
    rows = 60
    data = np.arange(rows, dtype=float)[:, None] * np.array([[1.0, 10.0]])
    ds = make_windows(data, lookback=5, horizon=2, target_columns=[1])
    x, y = ds.windows("train")
    i = 3
    assert np.allclose(x[i], ds.values[i : i + 5])
    assert np.allclose(y[i], ds.values[i + 5 : i + 7][:, [1]])


def test_normalization_stats_from_train_rows_only():
    data = RNG.normal(size=(200, 3)) * 5.0 + 2.0
    data[150:] += 100.0  # test region has a wildly different level
    ds = make_windows(data, lookback=10, horizon=5)
    train_range = ds.split_ranges["train"]
    covered = data[: train_range.stop - 1 + 10 + 5]
    assert np.allclose(ds.feature_mean, covered.mean(axis=0))
    assert np.allclose(ds.feature_std, covered.std(axis=0))
    # the late-level shift must not leak into the statistics
    assert np.all(ds.feature_mean < 50.0)


def test_constant_column_std_floor():
    data = RNG.normal(size=(100, 2))
    data[:, 0] = 3.0
    ds = make_windows(data, 8, 4)
    assert ds.feature_std[0] == 1.0
    assert np.allclose(ds.values[:, 0], 0.0)


def test_default_target_is_last_column():
    ds = make_windows(RNG.normal(size=(100, 4)), 8, 4)
    assert ds.target_columns == [3]


def test_csv_loader_with_named_target(tmp_path):
    header = "a,b,c"
    body = "\n".join(",".join(f"{v:.6f}" for v in row) for row in RNG.normal(size=(80, 3)))
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + body + "\n")

    names, matrix = read_csv_matrix(path)
    assert names == ["a", "b", "c"]
    assert matrix.shape == (80, 3)

    ds = dataset_from_csv(path, lookback=8, horizon=4, target="b")
    assert ds.target_columns == [1]
    ds_default = dataset_from_csv(path, lookback=8, horizon=4)
    assert ds_default.target_columns == [2]
    ds_idx = dataset_from_csv(path, lookback=8, horizon=4, target=0)
    assert ds_idx.target_columns == [0]
    with pytest.raises(ValueError):
        dataset_from_csv(path, lookback=8, horizon=4, target="missing")


def test_windows_cached_and_stable():
    ds = make_windows(RNG.normal(size=(200, 2)), 16, 4)
    x1, y1 = ds.windows("val")
    x2, y2 = ds.windows("val")
    assert x1 is x2 and y1 is y2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "series.csv"
    path.write_text(f"a,b,c\n1,2,3\n4,5,6\n7,{cell},9\n")
    with pytest.raises(ValueError, match=r"series\.csv: non-finite value .* in data row 3, column 'b'"):
        read_csv_matrix(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_make_windows_rejects_non_finite_cells(value):
    data = RNG.normal(size=(200, 3))
    data[56, 1] = value
    with pytest.raises(ValueError, match=r"non-finite value .* in data row 57, column 'col_1'"):
        make_windows(data, 16, 4)
    names = ["a", "b", "c"]
    with pytest.raises(ValueError, match=r"in data row 57, column 'b'"):
        make_windows(data, 16, 4, column_names=names)
