"""Sliding-window datasets with chronological splits and train-only normalization."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_FRACTIONS = (0.7, 0.1, 0.2)


@dataclass
class WindowDataset:
    """Windows over one chronological matrix.

    Window i covers rows [i, i+lookback) as input and
    [i+lookback, i+lookback+horizon) of the target columns as output. The
    window-index space is split chronologically into train/val/test, so a
    window is atomic and never straddles a split. Normalization statistics
    come only from the rows covered by train windows.
    """

    raw: np.ndarray
    lookback: int
    horizon: int
    target_columns: list[int]
    split_ranges: dict[str, range]
    column_names: list[str]
    feature_mean: np.ndarray = field(init=False)
    feature_std: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        train = self.split_ranges["train"]
        train_rows = self.raw[: train.stop - 1 + self.lookback + self.horizon]
        self.feature_mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        self.feature_std = np.where(std < 1e-8, 1.0, std)
        self.values = (self.raw - self.feature_mean) / self.feature_std

    @property
    def n_columns(self) -> int:
        return self.raw.shape[1]

    def n_windows(self, split: str) -> int:
        return len(self.split_ranges[split])

    def windows(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """A split's windows: X (n, lookback, columns), Y (n, horizon, targets).

        Both are read-only strided views of ``values``: window i of X is
        ``values[i : i + lookback]``, so no window is copied and a split
        costs O(rows) memory, not O(rows x lookback). A gather such as
        ``x[batch]`` or ``x.copy()`` gives a writeable array.
        """
        idx = self.split_ranges[split]
        cols = self.target_columns
        # one target column slices to a view; several are gathered, O(rows)
        take = slice(cols[0], cols[0] + 1) if len(cols) == 1 else cols
        x = sliding_window_view(self.values, self.lookback, axis=0)
        y = sliding_window_view(self.values[self.lookback :, take], self.horizon, axis=0)
        return np.swapaxes(x[idx.start : idx.stop], 1, 2), np.swapaxes(y[idx.start : idx.stop], 1, 2)


def make_windows(
    data: np.ndarray,
    lookback: int,
    horizon: int,
    split_fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
    target_columns: list[int] | None = None,
    column_names: list[str] | None = None,
) -> WindowDataset:
    """Chronological 70/10/20 (by default) split of the window-index space; NaN/Inf cells raise."""
    data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if data.ndim != 2:
        raise ValueError(f"expected a (rows, columns) matrix, got shape {data.shape}")
    rows, cols = data.shape
    if lookback < 1 or horizon < 1:
        raise ValueError(f"lookback and horizon must be >= 1, got lookback={lookback}, horizon={horizon}")
    if abs(sum(split_fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split_fractions}")
    if any(f < 0 for f in split_fractions):
        raise ValueError("split fractions must be nonnegative")
    total = rows - lookback - horizon + 1
    if total < 1:
        raise ValueError(f"need at least lookback+horizon={lookback + horizon} rows, got {rows}")

    n_train = min(total, max(1, int(np.ceil(split_fractions[0] * total))))
    n_val = min(total - n_train, int(np.floor(split_fractions[1] * total)))
    n_test = total - n_train - n_val
    split_ranges = {
        "train": range(0, n_train),
        "val": range(n_train, n_train + n_val),
        "test": range(n_train + n_val, n_train + n_val + n_test),
    }

    if target_columns is None:
        target_columns = [cols - 1]
    target_columns = [int(c) for c in target_columns]
    if not target_columns:
        raise ValueError("target_columns is empty: name at least one target column")
    if any(not 0 <= c < cols for c in target_columns):
        raise ValueError(f"target columns {target_columns} out of range for {cols} columns")
    if column_names is None:
        column_names = [f"col_{i}" for i in range(cols)]
    if len(column_names) != cols:
        raise ValueError(f"column_names has {len(column_names)} names for {cols} columns")
    _reject_non_finite(data, column_names)

    return WindowDataset(
        raw=data,
        lookback=lookback,
        horizon=horizon,
        target_columns=target_columns,
        split_ranges=split_ranges,
        column_names=list(column_names),
    )


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Generic numeric CSV with one header row. A file without a header or
    a data row, and a cell that is not a finite number, raise ValueError
    naming the file; a bad cell also by its 1-based data row and column."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if not header:
        raise ValueError(f"{path}: no header row")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected below
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ValueError(_first_bad_row(path, header) or f"{path}: {exc}") from None
    if not len(data):
        raise ValueError(f"{path}: no data rows after the header")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} columns, data has {data.shape[1]}")
    _reject_non_finite(data, header, f"{path}: ")
    return header, data


def _first_bad_row(path: Path, header: list[str]) -> str | None:
    """The first data row (blank lines skipped, as ``np.loadtxt`` skips them) with
    another cell count than the header or a non-numeric cell, as an error message."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            return f"{path}: data row {number} has {len(row)} cells, header has {len(header)} columns"
        for name, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                return f"{path}: non-numeric value {cell!r} in data row {number}, column {name!r}"


def _reject_non_finite(data: np.ndarray, column_names: list[str], source: str = "") -> None:
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]  # reported 1-based, as a data row of the file
        raise ValueError(
            f"{source}non-finite value {data[row, col]} in data row {row + 1}, column {column_names[col]!r}"
        )


def resolve_target(header: list[str], target: str | int | None) -> list[int]:
    """Target column of a table with this header: a column name, an index
    (int or digit string), or None for the last column."""
    if target is None:
        return [len(header) - 1]
    if str(target).lstrip("-").isdigit():
        return [int(target)]
    if target not in header:
        raise ValueError(f"target column {target!r} not in header {header}")
    return [header.index(target)]


def dataset_from_csv(path, lookback: int, horizon: int, target: str | int | None = None) -> WindowDataset:
    """Window a CSV file; the target defaults to the last column."""
    header, data = read_csv_matrix(path)
    return make_windows(
        data, lookback, horizon, target_columns=resolve_target(header, target), column_names=header
    )
