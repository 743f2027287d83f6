"""Synthetic data generation, CSV I/O, splitting, and normalization.

Datasets are an n x D input matrix plus an n response vector. CSV files use
a `x1,...,xD,y` header with the response in the last column; floats are
written with shortest round-trip formatting so load(save(ds)) is bit exact.

save_csv writes through a temporary file renamed onto the target, so an
interrupted write leaves no truncated dataset, and formats the rows a chunk
at a time. load_csv parses the rows in one numpy loadtxt pass; only a file
that fails it or its checks is scanned line by line, to name the first bad
line and column by numpy's own rule for a cell.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .kernels import HyperParams, MultiKernel, marginal_covariance
from .linalg import cholesky
from .seeds import component_rng


# Rows save_csv formats and writes at a time.
SAVE_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class Gaussian:
    """Coordinates drawn i.i.d. from N(0, sd^2)."""

    sd: float

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        return rng.normal(0.0, self.sd, size=(n, dim))

    def describe(self) -> dict:
        return {"kind": "gaussian", "sd": self.sd}


@dataclass(frozen=True)
class Uniform:
    """Coordinates drawn i.i.d. from Uniform(low, high)."""

    low: float
    high: float

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(n, dim))

    def describe(self) -> dict:
        return {"kind": "uniform", "low": self.low, "high": self.high}


InputDist = Gaussian | Uniform


@dataclass(frozen=True)
class NormalizationMeta:
    """Training-set statistics used to standardize inputs and response.

    Standard deviations use the n-1 divisor.
    """

    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: float
    y_sd: float


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    provenance: dict | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"inconsistent shapes X {X.shape}, y {y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return replace(self, X=self.X[indices], y=self.y[indices])


def simulate_gp(
    kernels: MultiKernel,
    theta_true: HyperParams,
    n: int,
    input_dist: InputDist,
    input_dim: int,
    seed: int,
) -> Dataset:
    """Draw X from the input distribution and y ~ N(0, K(theta_true))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = component_rng(seed, "simulate-gp")
    X = input_dist.sample(rng, n, input_dim)
    factor = cholesky(marginal_covariance(kernels, theta_true, X), overwrite=True)
    y = factor.lower @ rng.standard_normal(n)
    provenance = {
        "generator": "gp",
        "theta": list(theta_true.to_vector()),
        "kernels": [spec.to_config() for spec in kernels.components],
        "input_dist": input_dist.describe(),
        "input_dim": input_dim,
        "n": n,
        "seed": seed,
    }
    return Dataset(X=X, y=y, provenance=provenance)


def levy(X: np.ndarray) -> np.ndarray:
    """Levy benchmark function, arbitrary dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    w = 1.0 + (X - 1.0) / 4.0
    head = np.sin(np.pi * w[:, 0]) ** 2
    tail = (w[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[:, -1]) ** 2)
    if X.shape[1] > 1:
        wi = w[:, :-1]
        mid = np.sum((wi - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * wi + 1.0) ** 2), axis=1)
    else:
        mid = np.zeros(X.shape[0])
    return head + mid + tail


def griewank(X: np.ndarray) -> np.ndarray:
    """Griewank benchmark function, arbitrary dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    denom = np.sqrt(np.arange(1, X.shape[1] + 1, dtype=np.float64))
    return np.sum(X**2, axis=1) / 4000.0 - np.prod(np.cos(X / denom), axis=1) + 1.0


BENCHMARK_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "levy": levy,
    "griewank": griewank,
}


def simulate_function(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    input_dist: InputDist,
    input_dim: int,
    noise_sd: float,
    seed: int,
    name: str | None = None,
) -> Dataset:
    """y = f(X) + N(0, noise_sd^2) noise; the deterministic-function analog
    of simulate_gp for benchmark responses."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = component_rng(seed, "simulate-function")
    X = input_dist.sample(rng, n, input_dim)
    y = np.asarray(f(X), dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"function returned shape {y.shape}, expected ({n},)")
    y = y + rng.normal(0.0, noise_sd, size=n)
    provenance = {
        "generator": "function",
        "function": name or getattr(f, "__name__", "unknown"),
        "noise_sd": noise_sd,
        "input_dist": input_dist.describe(),
        "input_dim": input_dim,
        "n": n,
        "seed": seed,
    }
    return Dataset(X=X, y=y, provenance=provenance)


def train_test_split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, uniformly random split; train size floor(f*n)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = dataset.n
    # Guard against 0.6 * 10 -> 5.999... style float droop before flooring.
    n_train = int(math.floor(train_fraction * n + 1e-9))
    if n_train < 1 or n_train >= n:
        raise ValueError(f"split of {n} rows at fraction {train_fraction} leaves an empty side")
    perm = component_rng(seed, "train-test-split").permutation(n)
    return dataset.subset(np.sort(perm[:n_train])), dataset.subset(np.sort(perm[n_train:]))


def normalize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, NormalizationMeta]:
    """Standardize train X columns and y to mean 0, sd 1 (n-1 divisor); the
    test set is transformed with the training statistics."""
    if train.input_dim != test.input_dim:
        raise ValueError("train and test input dimensions differ")
    if train.n < 2:
        raise ValueError(f"cannot normalize {train.n} training row: the sd needs at least 2")
    x_mean = train.X.mean(axis=0)
    x_sd = train.X.std(axis=0, ddof=1)
    y_mean = float(train.y.mean())
    y_sd = float(train.y.std(ddof=1))
    if np.any(x_sd <= 0) or y_sd <= 0:
        raise ValueError("cannot normalize a zero-variance column")
    meta = NormalizationMeta(x_mean=x_mean, x_sd=x_sd, y_mean=y_mean, y_sd=y_sd)
    train_norm = replace(train, X=(train.X - x_mean) / x_sd, y=(train.y - y_mean) / y_sd)
    test_norm = replace(test, X=(test.X - x_mean) / x_sd, y=(test.y - y_mean) / y_sd)
    return train_norm, test_norm, meta


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write `x1,...,xD,y` rows with shortest round-trip float formatting,
    SAVE_CHUNK_ROWS rows at a time, so the text of the whole file is never
    held."""
    header = ",".join([f"x{j + 1}" for j in range(dataset.input_dim)] + ["y"])

    def chunks():
        # CRLF rows, as csv.writer wrote them
        yield header + "\r\n"
        for start in range(0, dataset.n, SAVE_CHUNK_ROWS):
            rows = slice(start, start + SAVE_CHUNK_ROWS)
            yield "\r\n".join(",".join(map(repr, x + [v])) for x, v in
                               zip(dataset.X[rows].tolist(), dataset.y[rows].tolist())) + "\r\n"

    _atomic_write(Path(path), chunks())


def _atomic_write(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or its pieces in order, to `path` through a
    temporary file renamed onto it, so an interrupted write leaves no
    truncated `path`; no newline is translated."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset written by save_csv (or any numeric CSV with the same
    header convention). The last column is the response. A bad header, no
    data rows, a row of the wrong width (a blank line too) or a non-numeric
    or non-finite cell raises ValueError naming the file, line and column."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: no data rows")
        width = len(_check_header(path, _cells(header)))
        lines = itertools.count()   # the lines loadtxt reads, blank ones (which it skips) too
        try:
            with warnings.catch_warnings():   # it warns on a file of no rows, rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(map(itemgetter(0), zip(fh, lines)), delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError as exc:
            raise _first_bad_line(path, fh, width) or ValueError(f"{path}: {exc}") from None
        if data.shape != (next(lines), width) or not np.isfinite(data).all():
            raise _first_bad_line(path, fh, width) or ValueError(f"{path}: no data rows")
    # C-ordered copies, as the per-cell reader built: a strided X sums in
    # another order, so fixed-seed outputs would move in the last bits
    return Dataset(X=data[:, :-1].copy(), y=data[:, -1].copy())


def _cells(line: str) -> list[str]:
    line = line.removesuffix("\n")
    return line.split(",") if line else []


def _first_bad_line(path: Path, fh, width: int) -> ValueError | None:
    """The error for the first data line of `fh` that is not `width` finite
    numbers as numpy's parser reads them, None if every line is."""
    fh.seek(0)
    fh.readline()
    for line_num, line in enumerate(fh, start=2):
        cells = _cells(line)
        if len(cells) != width:
            return ValueError(f"{path}:{line_num}: expected {width} columns, got {len(cells)}")
        for col_num, cell in enumerate(cells, start=1):
            try:
                value = _numpy_float(cell)
            except ValueError:
                return ValueError(f"{path}:{line_num}: column {col_num}: non-numeric cell {cell!r}")
            if not math.isfinite(value):
                return ValueError(f"{path}:{line_num}: column {col_num}: non-finite cell {cell!r}")
    return None


def _numpy_float(cell: str) -> float:
    """float(cell) under the rule of numpy's text parser: inside the
    surrounding whitespace a cell is ASCII, with none of the underscores
    float() takes between digits (`1_000`, fullwidth or Arabic-Indic
    digits are refused)."""
    number = cell.strip()
    if not number.isascii() or "_" in number:
        raise ValueError(cell)
    return float(number)


def _check_header(path: Path, header: list[str]) -> list[str]:
    if len(header) < 2 or header[-1] != "y":
        raise ValueError(f"{path}: header must be x1,...,xD,y, got {header}")
    for j, name in enumerate(header[:-1]):
        if name != f"x{j + 1}":
            raise ValueError(f"{path}: header column {j + 1} is {name!r}, expected 'x{j + 1}'")
    return header
