"""Window construction, split hygiene, and normalization provenance."""

import re
import tracemalloc

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
    for target_columns in ([1], [1, 0]):
        ds = make_windows(data, lookback=5, horizon=2, target_columns=target_columns)
        x, y = ds.windows("train")
        i = 3
        assert np.allclose(x[i], ds.values[i : i + 5])
        assert np.allclose(y[i], ds.values[i + 5 : i + 7][:, target_columns])


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


def test_windows_are_read_only_views():
    ds = make_windows(RNG.normal(size=(200, 3)), 16, 4)
    x1, y1 = ds.windows("val")
    x2, y2 = ds.windows("val")
    for arr in (x1, y1):
        assert np.shares_memory(arr, ds.values)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    # a gathered batch is an ordinary writeable copy
    batch = x1[[0, 2]]
    batch[0, 0, 0] = 1.0
    assert not np.shares_memory(batch, ds.values)
    # one window: val and test are empty and keep the window shapes
    x, y = make_windows(RNG.normal(size=(12, 3)), lookback=8, horizon=4).windows("test")
    assert x.shape == (0, 8, 3) and y.shape == (0, 4, 1)


def test_windowing_allocates_less_than_the_series():
    ds = make_windows(RNG.normal(size=(2_000, 7)), lookback=96, horizon=16)
    tracemalloc.start()
    try:
        splits = [ds.windows(split) for split in ("train", "val", "test")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(x) for x, _ in splits) == 2_000 - 96 - 16 + 1
    assert peak < ds.values.nbytes


@pytest.mark.parametrize("lookback,horizon", [(0, 4), (8, 0), (8, -3), (-2, 4)])
def test_make_windows_rejects_non_positive_sizes(lookback, horizon):
    with pytest.raises(ValueError, match=rf"lookback={lookback}, horizon={horizon}"):
        make_windows(RNG.normal(size=(100, 3)), lookback, horizon)


def test_make_windows_rejects_empty_target_columns():
    with pytest.raises(ValueError, match="target_columns is empty"):
        make_windows(RNG.normal(size=(200, 3)), 32, 8, target_columns=[])


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]], ids=["short", "long"])
def test_make_windows_rejects_column_names_of_wrong_length(names):
    data = RNG.normal(size=(200, 3))
    data[56, 2] = np.nan  # the unnamed column of the short list
    with pytest.raises(ValueError, match=f"column_names has {len(names)} names for 3 columns"):
        make_windows(data, 16, 4, column_names=names)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "series.csv"
    path.write_text(f"a,b,c\n1,2,3\n4,5,6\n7,{cell},9\n")
    with pytest.raises(ValueError, match=r"series\.csv: non-finite value .* in data row 3, column 'b'"):
        read_csv_matrix(path)


@pytest.mark.parametrize("rows, message", [
    ("1,2,3\n4,x,6\n", "non-numeric value 'x' in data row 2, column 'b'"),
    ("1,2,3\n\n4,5,6,7\n", "data row 2 has 4 cells, header has 3 columns"),
], ids=["non_numeric", "ragged"])
def test_read_csv_names_the_row_numpy_cannot_read(tmp_path, rows, message):
    # counted as data rows, blank lines skipped, as for a non-finite cell
    path = tmp_path / "series.csv"
    path.write_text("a,b,c\n" + rows)
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
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
