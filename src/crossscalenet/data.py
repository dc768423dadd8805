"""Sliding-window datasets with chronological splits and train-only normalization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPLITS = ("train", "val", "test")
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
    _cache: dict = field(init=False, default_factory=dict, repr=False)

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
        """Materialize a split: X (n, lookback, columns), Y (n, horizon, targets).

        Cached per split; treat the returned arrays as read-only.
        """
        if split in self._cache:
            return self._cache[split]
        idx = self.split_ranges[split]
        if len(idx) == 0:
            out = (
                np.empty((0, self.lookback, self.n_columns)),
                np.empty((0, self.horizon, len(self.target_columns))),
            )
        else:
            x = np.stack([self.values[i : i + self.lookback] for i in idx])
            y = np.stack(
                [self.values[i + self.lookback : i + self.lookback + self.horizon][:, self.target_columns]
                 for i in idx]
            )
            out = (x, y)
        self._cache[split] = out
        return out


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
    if any(not 0 <= c < cols for c in target_columns):
        raise ValueError(f"target columns {target_columns} out of range for {cols} columns")
    if column_names is None:
        column_names = [f"col_{i}" for i in range(cols)]
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
    """Generic numeric CSV with one header row; NaN and Inf cells are rejected."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} columns, data has {data.shape[1]}")
    _reject_non_finite(data, header, f"{path}: ")
    return header, data


def _reject_non_finite(data: np.ndarray, column_names: list[str], source: str = "") -> None:
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]  # reported 1-based, as a data row of the file
        raise ValueError(
            f"{source}non-finite value {data[row, col]} in data row {row + 1}, column {column_names[col]!r}"
        )


def dataset_from_csv(
    path,
    lookback: int,
    horizon: int,
    target: str | int | None = None,
    split_fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
) -> WindowDataset:
    """Window a CSV file; the target defaults to the last column."""
    header, data = read_csv_matrix(path)
    if target is None:
        target_columns = [data.shape[1] - 1]
    elif isinstance(target, int) or (isinstance(target, str) and target.lstrip("-").isdigit()):
        target_columns = [int(target)]
    else:
        if target not in header:
            raise ValueError(f"target column {target!r} not in header {header}")
        target_columns = [header.index(target)]
    return make_windows(
        data, lookback, horizon,
        split_fractions=split_fractions,
        target_columns=target_columns,
        column_names=header,
    )
