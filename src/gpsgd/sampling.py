"""Minibatch construction: uniform random subsets and nearest-neighbor
subsets found with scipy's cKDTree.

Queries are exact k-nearest-neighbor searches under Euclidean distance. Ties
are broken by smaller index so query results have a total order and every
batch is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class SamplingScheme(str, Enum):
    UNIFORM = "uniform"
    NEARBY = "nearby"


@dataclass(frozen=True)
class Minibatch:
    """Distinct row indices of one minibatch. Nearby batches carry the
    uniformly drawn center, which is always a member."""

    indices: tuple[int, ...]
    scheme: SamplingScheme
    center_index: int | None = None

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("minibatch indices must be distinct")
        if self.scheme == SamplingScheme.NEARBY:
            if self.center_index is None or self.center_index not in self.indices:
                raise ValueError("nearby batch must contain its center index")

    @property
    def size(self) -> int:
        return len(self.indices)


# Relative widening of the k-th distance; far above the few ulps by which the
# tree's distances can differ from the einsum ones.
_RADIUS_SLACK = 1.0 + 1e-9


class SpatialIndex:
    """Exact k-nearest-neighbor index over the rows of X, backed by
    scipy's cKDTree. Immutable after build and safe for concurrent queries.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError(f"expected an n x D matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite coordinates")
        # Imported here, not at module level: scipy.spatial adds about 0.1 s
        # to `import gpsgd`, which most commands never need.
        from scipy.spatial import cKDTree

        self.points = X
        self.n = X.shape[0]
        self._tree = cKDTree(X)

    def query(self, point: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k nearest rows to `point`, ordered by nondecreasing
        distance with ties broken by smaller index."""
        point = np.atleast_1d(np.asarray(point, dtype=np.float64))
        if point.shape != (self.points.shape[1],):
            raise ValueError(
                f"query point has shape {point.shape}, expected ({self.points.shape[1]},)"
            )
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {k}")
        # The tree returns an arbitrary subset of the points tied at the k-th
        # distance, so gather every point within it (with slack for the tree's
        # own rounding) and rank them by exact squared distance, then index.
        (kth,), _ = self._tree.query(point, [k])
        cand = np.asarray(self._tree.query_ball_point(point, kth * _RADIUS_SLACK), dtype=np.intp)
        diff = self.points[cand] - point
        d2 = np.einsum("ij,ij->i", diff, diff)
        return cand[np.lexsort((cand, d2))[:k]]


def build_index(X: np.ndarray) -> SpatialIndex:
    """Build the exact nearest-neighbor index over the rows of X."""
    return SpatialIndex(X)


def uniform_minibatch(n: int, m: int, rng: np.random.Generator) -> Minibatch:
    """m distinct indices from [0, n), every size-m subset equiprobable."""
    _check_sizes(n, m)
    indices = rng.choice(n, size=m, replace=False)
    return Minibatch(tuple(int(i) for i in indices), SamplingScheme.UNIFORM)


def nearby_minibatch(
    index: SpatialIndex, n: int, m: int, rng: np.random.Generator
) -> Minibatch:
    """A uniformly drawn center plus its m-1 exact nearest neighbors."""
    _check_sizes(n, m)
    if index.n != n:
        raise ValueError(f"index covers {index.n} points, expected {n}")
    center = int(rng.integers(n))
    if m == 1:
        return Minibatch((center,), SamplingScheme.NEARBY, center_index=center)
    neighbors = index.query(index.points[center], m)
    others = [int(i) for i in neighbors if int(i) != center][:m - 1]
    return Minibatch((center, *others), SamplingScheme.NEARBY, center_index=center)


def draw_minibatch(
    scheme: SamplingScheme,
    n: int,
    m: int,
    rng: np.random.Generator,
    index: SpatialIndex | None = None,
) -> Minibatch:
    if scheme == SamplingScheme.UNIFORM:
        return uniform_minibatch(n, m, rng)
    if index is None:
        raise ValueError("nearby sampling requires a spatial index")
    return nearby_minibatch(index, n, m, rng)


def _check_sizes(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= m <= n:
        raise ValueError(f"minibatch size {m} must be in [1, {n}]")
