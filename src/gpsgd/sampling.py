"""Minibatch construction: uniform random subsets and nearest-neighbor
subsets found with scipy's cKDTree.

Queries are exact k-nearest-neighbor searches under Euclidean distance. Ties
are broken by smaller index so query results have a total order and every
batch is reproducible.

One rule ranks every query, and a query of many points applies it to all of
them at once. One tree call fetches each point's k + 1 nearest rows; each
row's candidates are ranked by squared distance, computed as the sum of
squared coordinate differences, then by index, and the first k kept. The
tree picks arbitrarily among points tied at its k-th distance, so a point
whose (k + 1)-th distance is within _RADIUS_SLACK of its k-th falls back to
gathering every row within that radius and ranking all of them. A point
with a clear gap already has all k of its answers among the candidates:
every other row is farther than the (k + 1)-th.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SamplingScheme(str, Enum):
    UNIFORM = "uniform"
    NEARBY = "nearby"


@dataclass(frozen=True, eq=False)
class Minibatch:
    """Distinct row indices of one minibatch, as one 1-D integer array."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        if (indices.ndim != 1 or indices.dtype.kind not in "iu"
                or np.unique(indices).size != indices.size):
            raise ValueError("minibatch indices must be a vector of distinct integers")
        object.__setattr__(self, "indices", indices)


# Relative widening of the k-th distance; far above the few ulps by which the
# tree's distances can differ from the einsum ones.
_RADIUS_SLACK = 1.0 + 1e-9
# Candidate rows ranked at once by query_many: bounds its (rows, k + 1, D)
# difference array.
_QUERY_BLOCK = 1 << 18


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
        return self.query_many(point[None, :], k)[0]

    def query_many(self, points: np.ndarray, k: int) -> np.ndarray:
        """Row r: `query(points[r], k)`, for all rows in one tree call."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"query points have shape {points.shape}, expected (t, {self.points.shape[1]})"
            )
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {k}")
        rows = max(1, _QUERY_BLOCK // (k + 1))
        if points.shape[0] > rows:
            return np.concatenate([self.query_many(points[i:i + rows], k)
                                   for i in range(0, points.shape[0], rows)])
        if k == self.n:
            cand = np.broadcast_to(np.arange(self.n), (points.shape[0], self.n))
            return self._ranked(points, cand)
        dist, cand = self._tree.query(points, k + 1)
        out = self._ranked(points, cand)[:, :k]
        for r in np.flatnonzero(dist[:, k] <= dist[:, k - 1] * _RADIUS_SLACK):
            ball = self._tree.query_ball_point(points[r], dist[r, k - 1] * _RADIUS_SLACK)
            out[r] = self._ranked(points[r:r + 1], np.asarray(ball, dtype=np.intp)[None, :])[0, :k]
        return out

    def _ranked(self, points: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Each row of `cand` ordered by squared distance to its point, then
        by index."""
        diff = self.points[cand] - points[:, None, :]
        d2 = np.einsum("rij,rij->ri", diff, diff)
        return np.take_along_axis(cand, np.lexsort((cand, d2)), axis=1)


def build_index(X: np.ndarray) -> SpatialIndex:
    """Build the exact nearest-neighbor index over the rows of X."""
    return SpatialIndex(X)


def nearby_batches(index: SpatialIndex, centers: np.ndarray, m: int) -> np.ndarray:
    """Row r: centers[r], then its m-1 nearest other rows in query order.

    The center leaves its own neighbor list; when m of its duplicates with
    smaller indices fill that list without it, the last one leaves instead.
    """
    centers = np.asarray(centers, dtype=np.intp)
    _check_sizes(index.n, m)
    if centers.ndim != 1 or np.any((centers < 0) | (centers >= index.n)):
        raise ValueError(f"centers must be a vector of indices in [0, {index.n})")
    if m == 1:
        return centers[:, None].copy()
    near = index.query_many(index.points[centers], m)
    others = near != centers[:, None]
    others &= np.cumsum(others, axis=1) < m
    return np.column_stack((centers, near[others].reshape(-1, m - 1)))


def draw_batches(scheme: SamplingScheme, n: int, m: int, rngs: Iterable[np.random.Generator],
                 index: SpatialIndex | None = None) -> np.ndarray:
    """Row r: the batch drawn from the r-th stream of `rngs`. A uniform batch
    is m distinct indices, every size-m subset equiprobable; a nearby batch is
    a uniformly drawn center and its m-1 nearest other rows, all rows'
    neighbors found in one `nearby_batches` call."""
    _check_sizes(n, m)
    if scheme == SamplingScheme.UNIFORM:
        rows = [rng.choice(n, size=m, replace=False) for rng in rngs]
        return np.array(rows, dtype=np.intp).reshape(len(rows), m)
    if index is None:
        raise ValueError("nearby sampling requires a spatial index")
    if index.n != n:
        raise ValueError(f"index covers {index.n} points, expected {n}")
    return nearby_batches(index, [rng.integers(n) for rng in rngs], m)


def draw_minibatch(scheme: SamplingScheme, n: int, m: int, rng: np.random.Generator,
                   index: SpatialIndex | None = None) -> Minibatch:
    """One batch from `rng`: the one row of `draw_batches`."""
    return Minibatch(draw_batches(scheme, n, m, [rng], index)[0])


def _check_sizes(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= m <= n:
        raise ValueError(f"minibatch size {m} must be in [1, {n}]")
