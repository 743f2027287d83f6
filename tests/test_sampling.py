"""Minibatch sampling and exact nearest-neighbor search tests."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsgd.sampling import (
    Minibatch,
    SamplingScheme,
    build_index,
    draw_batches,
    draw_minibatch,
    nearby_batches,
)
from gpsgd.seeds import component_rng, iteration_rng

RNG = np.random.default_rng(99)


def brute_force_knn(X, point, k):
    d2 = np.einsum("ij,ij->i", X - point, X - point)
    return sorted(range(X.shape[0]), key=lambda i: (d2[i], i))[:k]


def uniform_batch(n, m, rng):
    return draw_minibatch(SamplingScheme.UNIFORM, n, m, rng)


def nearby_batch(index, n, m, rng):
    return draw_minibatch(SamplingScheme.NEARBY, n, m, rng, index)


def test_minibatch_validation():
    with pytest.raises(ValueError):
        Minibatch(np.array([1, 1, 2]))
    with pytest.raises(ValueError):
        Minibatch(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        Minibatch(np.array([0.0, 1.0]))
    assert Minibatch(np.array([3, 1])).indices.tolist() == [3, 1]


def test_uniform_full_set():
    batch = uniform_batch(5, 5, component_rng(0, "t"))
    assert sorted(batch.indices) == [0, 1, 2, 3, 4]


def test_uniform_reproducible():
    a = uniform_batch(10, 3, component_rng(123, "batch"))
    b = uniform_batch(10, 3, component_rng(123, "batch"))
    assert np.array_equal(a.indices, b.indices)
    # the draw rule: m distinct indices from one Generator.choice call
    expected = component_rng(123, "batch").choice(10, size=3, replace=False)
    assert np.array_equal(a.indices, expected)


def test_uniform_rejects_oversize():
    with pytest.raises(ValueError):
        uniform_batch(4, 5, component_rng(0, "t"))


def test_uniform_frequencies_chi_square():
    # n=6, m=1: each index frequency within 5 sigma of 1/6 over 50k draws
    draws = 50_000
    rng = component_rng(7, "uniformity")
    counts = np.zeros(6)
    for _ in range(draws):
        counts[uniform_batch(6, 1, rng).indices[0]] += 1
    p = 1 / 6
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) < 5 * sigma)


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_uniform_minibatch_always_valid(n, seed):
    rng = component_rng(seed, "prop")
    m = int(rng.integers(1, n + 1))
    batch = uniform_batch(n, m, rng)
    assert len(set(batch.indices)) == m
    assert all(0 <= i < n for i in batch.indices)


def test_index_single_point():
    index = build_index(np.array([[1.0, 2.0]]))
    assert list(index.query(np.array([5.0, 5.0]), 1)) == [0]


def test_index_grid_matches_brute_force():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    X = np.column_stack([xs.ravel(), ys.ravel()])
    index = build_index(X)
    for point in [np.array([4.2, 7.1]), np.array([0.0, 0.0]), np.array([9.9, 3.3])]:
        assert list(index.query(point, 4)) == brute_force_knn(X, point, 4)


def test_index_duplicates_tie_break_by_lowest_index():
    X = np.array([[0.0], [1.0], [1.0], [1.0], [2.0]])
    index = build_index(X)
    # querying at the duplicated coordinate: all three ties come first, by index
    assert list(index.query(np.array([1.0]), 4)) == [1, 2, 3, 0]
    # ties exactly at the k-th distance: 0 and 4 are both at distance 1
    assert list(index.query(np.array([1.0]), 4)) == brute_force_knn(X, np.array([1.0]), 4)
    assert list(index.query(np.array([1.0]), 2)) == [1, 2]
    # a query point equidistant from every row
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    for k in range(1, 6):
        assert list(build_index(X).query(np.zeros(2), k)) == list(range(k))


def _duplicate_heavy(rng, n, dim):
    """Rows rounded to one decimal on a narrow range, plus repeated rows, so
    many points tie at the k-th distance."""
    X = np.round(rng.uniform(-0.5, 0.5, size=(n, dim)), 1)
    for _ in range(n // 4):
        X[int(rng.integers(n))] = X[int(rng.integers(n))]
    return X


def test_index_matches_brute_force_randomized():
    rng = component_rng(5, "kd-prop")
    for rep in range(100):
        n = int(rng.integers(2, 500))
        dim = int(rng.integers(1, 11))
        X = _duplicate_heavy(rng, n, dim) if rep % 2 else rng.normal(size=(n, dim))
        if n > 4:
            X[int(rng.integers(n))] = X[int(rng.integers(n))]
        index = build_index(X)
        for point in [np.round(rng.normal(size=dim), 1), X[int(rng.integers(n))]]:
            k = int(rng.integers(1, n + 1))
            assert list(index.query(point, k)) == brute_force_knn(X, point, k)


def test_index_rejects_non_finite_coordinates():
    for bad in [np.nan, np.inf, -np.inf]:
        X = RNG.normal(size=(5, 2))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build_index(X)


def test_index_rejects_bad_queries():
    index = build_index(RNG.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        index.query(np.zeros(3), 1)
    with pytest.raises(ValueError):
        index.query(np.zeros(2), 5)


def test_nearby_singleton():
    X = RNG.normal(size=(6, 1))
    batch = nearby_batch(build_index(X), 6, 1, component_rng(3, "nb"))
    assert batch.indices.tolist() == [component_rng(3, "nb").integers(6)]


class _FixedCenter:
    """Stand-in generator that always draws the same center index."""

    def __init__(self, center):
        self.center = center

    def integers(self, n):
        return self.center


def test_nearby_hand_checked_line():
    X = np.arange(10.0)[:, None]
    batch = nearby_batch(build_index(X), 10, 3, _FixedCenter(5))
    # neighbors of 5 at distance 1 are {4, 6}; the tie goes to index 4
    assert batch.indices.tolist() == [5, 4, 6]


def test_nearby_center_duplicate_with_smaller_index():
    # rows 1 and 4 coincide; drawn from 4, the batch keeps 4 as its center and
    # takes its duplicate 1 first, then the tie at distance 1 goes to 0 over 2
    X = np.array([[0.0], [1.0], [2.0], [5.0], [1.0], [9.0]])
    batch = nearby_batch(build_index(X), 6, 3, _FixedCenter(4))
    assert batch.indices.tolist() == [4, 1, 0]


def test_nearby_matches_brute_force():
    X = component_rng(8, "nb-data").normal(size=(200, 3))
    index = build_index(X)
    for rep in range(10):
        batch = nearby_batch(index, 200, 17, component_rng(9, "nb-draw", rep))
        center = int(component_rng(9, "nb-draw", rep).integers(200))
        expected = [i for i in brute_force_knn(X, X[center], 17) if i != center][:16]
        assert batch.indices.tolist() == [center, *expected]
        assert len(set(batch.indices)) == 17


def test_nearby_batches_are_tighter_than_uniform():
    X = component_rng(1, "dist-pool").normal(size=(300, 1))
    index = build_index(X)
    uniform_gaps, nearby_gaps = [], []
    for rep in range(50):
        rng = component_rng(2, "dist-rep", rep)
        for scheme, acc in [
            (uniform_batch(300, 20, rng), uniform_gaps),
            (nearby_batch(index, 300, 20, rng), nearby_gaps),
        ]:
            pts = X[scheme.indices]
            diff = np.abs(pts - pts.T)
            acc.append(diff[np.triu_indices(20, 1)].mean())
    assert np.mean(nearby_gaps) < np.mean(uniform_gaps)


def test_iteration_rng_is_pure_in_seed_and_step():
    a = uniform_batch(50, 7, iteration_rng(11, 3))
    b = uniform_batch(50, 7, iteration_rng(11, 3))
    c = uniform_batch(50, 7, iteration_rng(11, 4))
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)


class _CountingTree:
    """Wraps an index's cKDTree and counts the fallback's ball queries."""

    def __init__(self, tree):
        self.tree = tree
        self.ball_queries = 0

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self.ball_queries += 1
        return self.tree.query_ball_point(*args, **kwargs)


@pytest.mark.parametrize("dim", [1, 4])
def test_query_many_matches_brute_force_and_query(dim):
    rng = component_rng(12, "query-many", dim)
    ball_queries = 0
    for rep in range(40):
        n = int(rng.integers(1, 120))
        X = _duplicate_heavy(rng, n, dim) if rep % 2 else rng.normal(size=(n, dim))
        index = build_index(X)
        counter = index._tree = _CountingTree(index._tree)
        points = np.vstack([X[rng.integers(n, size=6)], np.round(rng.normal(size=(4, dim)), 1)])
        for k in {1, int(rng.integers(1, n + 1)), n}:
            got = index.query_many(points, k)
            assert got.shape == (points.shape[0], k)
            for r, point in enumerate(points):
                assert list(got[r]) == brute_force_knn(X, point, k)
                assert np.array_equal(index.query(point, k), got[r])
        ball_queries += counter.ball_queries
    # the duplicate-heavy sets put ties at the k-th distance, which only the
    # fallback ranks right
    assert ball_queries > 0


def test_query_many_ties_at_kth_distance_use_the_fallback():
    X = np.array([[0.0], [1.0], [1.0], [1.0], [2.0]])
    index = build_index(X)
    counter = index._tree = _CountingTree(index._tree)
    got = index.query_many(np.array([[1.0], [0.0], [2.0]]), 4)
    assert got.tolist() == [[1, 2, 3, 0], [0, 1, 2, 3], [4, 1, 2, 3]]
    # only from 1.0 do the 4th and 5th nearest (rows 0 and 4) tie
    assert counter.ball_queries == 1


def test_query_many_rejects_bad_points():
    index = build_index(RNG.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        index.query_many(np.zeros((3, 3)), 1)
    with pytest.raises(ValueError):
        index.query_many(np.zeros(2), 1)
    with pytest.raises(ValueError):
        index.query_many(np.zeros((1, 2)), 0)


@pytest.mark.parametrize("dim", [1, 4])
def test_draw_minibatch_matches_a_nearby_batches_row(dim):
    rng = component_rng(13, "nearby-batches", dim)
    for rep in range(20):
        n = int(rng.integers(1, 80))
        X = _duplicate_heavy(rng, n, dim) if rep % 2 else rng.normal(size=(n, dim))
        index = build_index(X)
        centers = rng.integers(n, size=9)
        for m in {1, 2, int(rng.integers(1, n + 1)), n}:
            batches = nearby_batches(index, centers, m)
            assert batches.shape == (9, m)
            for center, batch in zip(centers, batches):
                expected = nearby_batch(index, n, m, _FixedCenter(int(center)))
                assert np.array_equal(batch, expected.indices)
                others = [i for i in brute_force_knn(X, X[center], m) if i != center][:m - 1]
                assert batch.tolist() == [center, *others]


@pytest.mark.parametrize("scheme", list(SamplingScheme))
def test_draw_batches_rows_equal_one_row_draws(scheme):
    X = RNG.normal(size=(40, 2))
    index = build_index(X)
    for m in (1, 7, 40):
        batches = draw_batches(scheme, 40, m, [iteration_rng(5, k) for k in range(12)], index)
        assert batches.shape == (12, m) and batches.dtype == np.intp
        for k, row in enumerate(batches):
            one = draw_minibatch(scheme, 40, m, iteration_rng(5, k), index)
            assert np.array_equal(row, one.indices)
            assert np.array_equal(row, draw_batches(scheme, 40, m, [iteration_rng(5, k)],
                                                    index)[0])
    assert draw_batches(scheme, 40, 3, [], index).shape == (0, 3)


def test_nearby_batches_center_behind_its_duplicates():
    # rows 0-3 coincide; drawn from 3 with m=3, the query returns 0, 1, 2 and
    # the center takes the place of the last of them
    X = np.array([[1.0], [1.0], [1.0], [1.0], [5.0]])
    assert nearby_batches(build_index(X), [3, 4], 3).tolist() == [[3, 0, 1], [4, 0, 1]]


def test_nearby_batches_reject_bad_sizes_and_centers():
    index = build_index(RNG.normal(size=(5, 2)))
    with pytest.raises(ValueError, match="minibatch size 6"):
        nearby_batches(index, [0], 6)
    with pytest.raises(ValueError, match="centers"):
        nearby_batches(index, [5], 2)


def test_draw_minibatch_rejects_bad_sizes_and_indexes():
    index = build_index(RNG.normal(size=(5, 2)))
    with pytest.raises(ValueError, match="index covers 5 points, expected 6"):
        nearby_batch(index, 6, 2, component_rng(0, "t"))
    with pytest.raises(ValueError, match="requires a spatial index"):
        nearby_batch(None, 5, 2, component_rng(0, "t"))
    for m in (0, 6):
        for batch in (uniform_batch, partial(nearby_batch, index)):
            with pytest.raises(ValueError, match=f"minibatch size {m} must be in"):
                batch(5, m, component_rng(0, "t"))
