"""Kernel evaluation, matrix assembly, and hyperparameter derivative tests."""

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsgd import (
    HyperParams,
    KernelSpec,
    MultiKernel,
    eval_kernel,
    full_gradient,
    kernel_matrix,
    kernel_matrix_grad,
    marginal_covariance,
    sym_eigenvalues,
)
from gpsgd import kernels as kernels_module
from gpsgd.kernels import (
    CovariancePlan,
    KernelFamily,
    base_lengthscale_grad,
    cross_kernel_matrix,
    effective_kernels,
)

RNG = np.random.default_rng(1234)


def test_rbf_zero_distance_is_one():
    spec = KernelSpec.rbf(0.5)
    assert eval_kernel(spec, [0.3], [0.3]) == 1.0


def test_rbf_closed_form_value():
    # exp(-0.25 / (2 * 0.25)) = exp(-0.5)
    spec = KernelSpec.rbf(0.5)
    assert eval_kernel(spec, [0.0], [0.5]) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_matern_half_closed_form():
    # order 1/2 reduces to exp(-r/h)
    spec = KernelSpec.matern(0.5, 1.0)
    assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_matern_three_half_and_five_half_closed_forms():
    r, h = 0.7, 1.3
    k32 = eval_kernel(KernelSpec.matern(1.5, h), [0.0], [r])
    u = math.sqrt(3) * r / h
    assert k32 == pytest.approx((1 + u) * math.exp(-u), rel=1e-12)
    k52 = eval_kernel(KernelSpec.matern(2.5, h), [0.0], [r])
    u = math.sqrt(5) * r / h
    assert k52 == pytest.approx((1 + u + u * u / 3) * math.exp(-u), rel=1e-12)


def test_eval_kernel_rejects_bad_input():
    spec = KernelSpec.rbf((0.5, 0.5))
    with pytest.raises(ValueError):
        eval_kernel(spec, [0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        eval_kernel(spec, [np.nan, 0.0], [0.0, 0.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.rbf(0.0)
    with pytest.raises(ValueError):
        KernelSpec.matern(1.0, 1.0)  # only half-integer orders have closed forms
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.MATERN, (1.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.RBF, (1.0,), 0.5)


def test_spec_config_round_trip():
    for spec in [KernelSpec.rbf((0.5, 2.0)), KernelSpec.matern(1.5, 0.8)]:
        assert KernelSpec.from_config(spec.to_config()) == spec
    with pytest.raises(ValueError):
        KernelSpec.from_config({"family": "rbf", "lengthscales": [1.0], "bogus": 1})


@given(
    st.sampled_from([KernelFamily.RBF, KernelFamily.MATERN]),
    st.floats(0.1, 5.0),
    st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    st.lists(st.floats(-10, 10), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_eval_kernel_symmetric_and_in_range(family, scale, xs, ys):
    dim = min(len(xs), len(ys))
    x, y = np.array(xs[:dim]), np.array(ys[:dim])
    if family == KernelFamily.RBF:
        spec = KernelSpec.rbf((scale,) * dim)
    else:
        spec = KernelSpec.matern(1.5, scale)
    k_xy = eval_kernel(spec, x, y)
    assert k_xy == eval_kernel(spec, y, x)
    # strictly positive in exact arithmetic; extreme distances may underflow
    assert 0.0 <= k_xy <= 1.0
    if np.linalg.norm(x - y) < 10 * scale:
        assert k_xy > 0.0


@pytest.mark.parametrize("spec", [KernelSpec.rbf(0.7), KernelSpec.matern(2.5, 0.7)])
def test_eval_kernel_monotone_in_distance(spec):
    distances = np.linspace(0.0, 5.0, 40)
    values = [eval_kernel(spec, [0.0], [d]) for d in distances]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_kernel_matrix_single_point():
    assert np.array_equal(kernel_matrix(KernelSpec.rbf(0.5), np.array([[3.0]])), [[1.0]])


def test_kernel_matrix_two_points_closed_form():
    K = kernel_matrix(KernelSpec.rbf(0.5), np.array([[0.0], [0.5]]))
    e = math.exp(-0.5)
    assert np.allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-12)


@pytest.mark.parametrize("spec", [KernelSpec.rbf((0.5, 1.5)), KernelSpec.matern(1.5, 1.0)])
def test_kernel_matrix_matches_brute_force(spec):
    X = RNG.normal(size=(7, 2))
    K = kernel_matrix(spec, X)
    for i in range(7):
        for j in range(7):
            assert K[i, j] == pytest.approx(eval_kernel(spec, X[i], X[j]), abs=1e-14)


def test_kernel_matrix_exactly_symmetric_unit_diagonal():
    X = RNG.normal(size=(40, 3)) * 5
    K = kernel_matrix(KernelSpec.rbf((0.5, 1.0, 2.0)), X)
    assert np.max(np.abs(K - K.T)) == 0.0
    assert np.all(np.diag(K) == 1.0)


def test_kernel_matrix_positive_semidefinite():
    for n in (16, 64, 256):
        X = RNG.normal(size=(n, 2)) * 3
        K = kernel_matrix(KernelSpec.rbf((0.8, 0.8)), X)
        lam = sym_eigenvalues(K)
        assert lam.min() >= -1e-10 * n


def test_cross_kernel_matrix_consistent():
    spec = KernelSpec.rbf((0.5, 1.0))
    X = RNG.normal(size=(6, 2))
    assert np.allclose(cross_kernel_matrix(spec, X, X), kernel_matrix(spec, X), atol=1e-14)


def test_marginal_covariance_scalar():
    mk = MultiKernel.single(KernelSpec.rbf(0.5))
    K = marginal_covariance(mk, HyperParams((4.0,), 1.0), np.array([[0.0]]))
    assert np.allclose(K, [[5.0]], rtol=1e-12)


def test_marginal_covariance_noise_only_limit():
    mk = MultiKernel.single(KernelSpec.rbf(0.5))
    X = RNG.normal(size=(12, 1))
    K = marginal_covariance(mk, HyperParams((1e-12,), 2.5), X)
    assert np.max(np.abs(K - 2.5 * np.eye(12))) < 1e-11


def test_marginal_covariance_two_kernels_brute_force():
    specs = (KernelSpec.rbf(0.5), KernelSpec.rbf(2.0))
    mk = MultiKernel(specs)
    theta = HyperParams((1.5, 0.5), 0.25)
    X = RNG.normal(size=(9, 1))
    expected = (
        1.5 * kernel_matrix(specs[0], X)
        + 0.5 * kernel_matrix(specs[1], X)
        + 0.25 * np.eye(9)
    )
    assert np.array_equal(marginal_covariance(mk, theta, X), expected)


# Row-block assembly as it was before the tiled one: each block of 512 rows
# against every column, the profile over the whole matrix, then the diagonal.
def _row_block_sq(Z, Z2):
    out = np.empty((Z.shape[0], Z2.shape[0]))
    for start in range(0, Z.shape[0], 512):
        diff = Z[start:start + 512, None, :] - Z2[None, :, :]
        out[start:start + 512] = np.einsum("abj,abj->ab", diff, diff)
    return out


def _row_block_base(spec, X, X2=None):
    symmetric = X2 is None
    X2 = X if symmetric else X2
    if spec.family == KernelFamily.RBF:
        ls = np.asarray(spec.lengthscales)[None, :]
        K = np.exp(-0.5 * _row_block_sq(X / ls, X2 / ls))
    else:
        r, h = np.sqrt(_row_block_sq(X, X2)), spec.lengthscales[0]
        if spec.matern_order == 0.5:
            K = np.exp(-r / h)
        elif spec.matern_order == 1.5:
            u = math.sqrt(3.0) * r / h
            K = (1.0 + u) * np.exp(-u)
        else:
            u = math.sqrt(5.0) * r / h
            K = (1.0 + u + u * u / 3.0) * np.exp(-u)
    if symmetric:
        np.fill_diagonal(K, 1.0)
    return K


def _row_block_covariance(kernels, theta, X):
    n = X.shape[0]
    K = np.zeros((n, n))
    for variance, spec in zip(theta.signal_variances, effective_kernels(kernels, theta).components):
        K += variance * _row_block_base(spec, X)
    K[np.diag_indices(n)] += theta.noise_variance
    return K


TILED_CASES = {
    "rbf-d1": (MultiKernel.single(KernelSpec.rbf(0.5)), HyperParams((4.0,), 1.0), 1),
    "rbf-d4": (MultiKernel.single(KernelSpec.rbf((0.5, 1.0, 2.0, 0.7))),
               HyperParams((1.3,), 0.1), 4),
    "matern-0.5": (MultiKernel.single(KernelSpec.matern(0.5, 0.8)), HyperParams((2.0,), 0.5), 2),
    "matern-1.5": (MultiKernel.single(KernelSpec.matern(1.5, 1.3)), HyperParams((2.0,), 0.5), 3),
    "matern-2.5": (MultiKernel.single(KernelSpec.matern(2.5, 0.6)), HyperParams((2.0,), 0.5), 1),
    "rbf+matern": (MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0))),
                   HyperParams((3.0, 1.0), 0.5), 1),
    "learned-lengthscales": (MultiKernel.single(KernelSpec.rbf((1.0,) * 4)),
                             HyperParams((1.3,), 0.1, (0.3, 0.9, 1.7, 2.2)), 4),
}


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("case", sorted(TILED_CASES))
def test_tiled_assembly_bit_identical_to_row_blocks(case, n):
    kernels, theta, dim = TILED_CASES[case]
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, dim)) * 3
    X2 = rng.normal(size=(n // 2 + 131, dim)) * 3   # crosses a tile boundary too
    K = marginal_covariance(kernels, theta, X)
    assert np.array_equal(K, _row_block_covariance(kernels, theta, X))
    assert np.array_equal(K, K.T)
    assert np.array_equal(CovariancePlan(kernels, theta, X)(theta.to_vector())[0], K)
    for spec in effective_kernels(kernels, theta).components:
        base = kernel_matrix(spec, X)
        assert np.array_equal(base, _row_block_base(spec, X))
        assert np.array_equal(base, base.T)
        assert np.array_equal(cross_kernel_matrix(spec, X, X2), _row_block_base(spec, X, X2))
        assert np.array_equal(cross_kernel_matrix(spec, X2, X), _row_block_base(spec, X2, X))


CONTRACTION_CASES = {
    **TILED_CASES,
    "matern-learned-h": (MultiKernel.single(KernelSpec.matern(1.5, 1.0)),
                         HyperParams((2.0,), 0.5, (0.7,)), 2),
    "rbf+matern-learned": (MultiKernel((KernelSpec.rbf((1.0, 1.0)), KernelSpec.matern(0.5, 1.0))),
                           HyperParams((3.0, 1.0), 0.5, (0.4, 1.9, 1.3)), 2),
    # a nearby-style batch: points within 0.01 of a centre far from the origin
    "rbf-nearby-far": (MultiKernel.single(KernelSpec.rbf((1.0,) * 3)),
                       HyperParams((2.0,), 0.5, (0.3, 0.3, 0.3)), 3),
}
FAR_CENTRES = {"rbf-nearby-far": 1e3}


@pytest.mark.parametrize("n", [1, 16, 128, 129, 300])
@pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
def test_contraction_matches_derivative_matrices(case, n):
    kernels, theta, dim = CONTRACTION_CASES[case]
    rng = np.random.default_rng(n)
    if case in FAR_CENTRES:
        X = FAR_CENTRES[case] + rng.uniform(-0.01, 0.01, size=(n, dim))
    else:
        X = rng.normal(size=(n, dim)) * 3
    W = rng.normal(size=(n, n))
    W += W.T
    got = CovariancePlan(kernels, theta, X)(theta.to_vector())[1](W)
    want = [np.einsum("ab,ab->", W, kernel_matrix_grad(kernels, theta, X, l))
            for l in range(theta.n_params)]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # every output without learned lengthscales depends only on these
    # entries, so they must not move by a bit
    components = effective_kernels(kernels, theta).components
    for c, spec in enumerate(components):
        assert got[c] == np.einsum("ab,ab->", W, kernel_matrix(spec, X))
    assert got[len(components)] == np.trace(W)


# The parallel assembly. Patching the size gate down and the worker count sends
# small matrices through the thread pool; ragged last tile rows are included.
PARALLEL_KERNELS = MultiKernel((KernelSpec.rbf((0.5, 1.0, 2.0)), KernelSpec.matern(1.5, 1.3)))
PARALLEL_THETA = HyperParams((1.3, 0.7), 0.1, (0.5, 1.0, 2.0, 1.3))


def _large_builds(X, X2, y):
    """Every build that goes through the tiles: K, k*, each base matrix,
    the Matern distances and the full gradient."""
    v = PARALLEL_THETA.to_vector()
    builds = {
        "K": CovariancePlan(PARALLEL_KERNELS, PARALLEL_THETA, X).covariance(v),
        "k*": CovariancePlan(PARALLEL_KERNELS, PARALLEL_THETA, X, X2).covariance(
            v, cols=slice(None)),
        "sq_dists": kernels_module._sq_dists(X),
        "full_gradient": full_gradient(PARALLEL_THETA, PARALLEL_KERNELS, X, y),
    }
    for c, spec in enumerate(effective_kernels(PARALLEL_KERNELS, PARALLEL_THETA).components):
        builds[f"kernel_matrix {c}"] = kernel_matrix(spec, X)
    return builds


def _force_threads(monkeypatch, workers, pools=None):
    monkeypatch.setattr(kernels_module, "_PARALLEL_MIN", 1)
    monkeypatch.setattr(kernels_module, "_workers", lambda tile_rows: min(workers, tile_rows))
    if pools is not None:
        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(kernels_module, "ThreadPoolExecutor", CountingPool)


@pytest.mark.parametrize("n", [129, 300, 1100])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_assembly_bit_identical_to_serial(monkeypatch, workers, n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 3)) * 3
    X2 = rng.normal(size=(n // 2 + 131, 3)) * 3   # t != n, a ragged last tile column
    y = rng.normal(size=n)
    serial = _large_builds(X, X2, y)
    pools = []
    _force_threads(monkeypatch, workers, pools)
    parallel = _large_builds(X, X2, y)
    assert bool(pools) == (workers > 1)
    assert all(p == min(workers, -(-n // kernels_module._TILE)) for p in pools)
    for name, want in serial.items():
        assert np.array_equal(parallel[name], want), name


UPPER_CASES = ("rbf-d4", "rbf+matern", "learned-lengthscales")


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("n", [16, 128, 129, 300])
@pytest.mark.parametrize("case", UPPER_CASES)
def test_upper_only_covariance_is_the_upper_triangle_bit_for_bit(monkeypatch, case, n, threaded):
    kernels, theta, dim = TILED_CASES[case]
    X = np.random.default_rng(n).normal(size=(n, dim)) * 3
    rows = np.random.default_rng(n + 1).permutation(n)[: n - n // 5]   # a neighbourhood's rows
    plan = CovariancePlan(kernels, theta, X)
    v = theta.to_vector()
    mirrored = [plan.covariance(v), plan.covariance(v, rows)]
    if threaded:
        _force_threads(monkeypatch, 2)
    upper = [plan.covariance(v, upper_only=True), plan.covariance(v, rows, upper_only=True)]
    for got, want in zip(upper, mirrored):
        if got.shape[0] <= kernels_module._TILE:   # one tile: returned whole
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got, np.triu(want))
            assert not np.tril(got, -1).any()
        assert got.flags.c_contiguous


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7])
def test_per_dimension_fill_equals_broadcast_difference(dim):
    rng = np.random.default_rng(dim)
    Z = rng.normal(size=(kernels_module._TILE, dim)) * 3
    Z2 = rng.normal(size=(kernels_module._TILE, dim)) * 3
    buf = np.full((kernels_module._TILE, kernels_module._TILE, dim), np.nan)
    sq = kernels_module._tile_sq(Z, Z2, buf)
    assert np.array_equal(buf, Z[:, None, :] - Z2[None, :, :])
    assert np.array_equal(sq, kernels_module._tile_sq(Z, Z2))


def test_workers_follow_the_cpu_affinity():
    cpus = len(os.sched_getaffinity(0))
    assert kernels_module._workers(1) == 1
    assert kernels_module._workers(10_000) == cpus


def _send_kernel_matrix(conn, spec, X):
    conn.send(kernel_matrix(spec, X))
    conn.close()


def test_parallel_assembly_in_a_forked_child(monkeypatch):
    # A pool kept across calls would have no threads in a forked child (as
    # in `experiment --jobs`), and the child's build would hang.
    _force_threads(monkeypatch, 2)
    spec = KernelSpec.rbf((0.5, 1.0))
    X = np.random.default_rng(5).normal(size=(300, 2))
    K = kernel_matrix(spec, X)
    receive, send = multiprocessing.get_context("fork").Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_send_kernel_matrix, args=(send, spec, X))
    child.start()
    try:
        assert receive.poll(60), "the forked child's build did not finish within 60 s"
        assert np.array_equal(receive.recv(), K)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


def test_marginal_covariance_dimension_mismatch():
    mk = MultiKernel.single(KernelSpec.rbf(0.5))
    with pytest.raises(ValueError):
        marginal_covariance(mk, HyperParams((1.0, 1.0), 0.5), np.array([[0.0]]))


def test_noise_shifts_every_eigenvalue():
    mk = MultiKernel((KernelSpec.rbf(0.6), KernelSpec.matern(1.5, 1.0)))
    X = RNG.normal(size=(48, 1)) * 2
    base = HyperParams((2.0, 1.0), 1e-12)
    shifted = HyperParams((2.0, 1.0), 0.75)
    lam_base = sym_eigenvalues(marginal_covariance(mk, base, X))
    lam_shift = sym_eigenvalues(marginal_covariance(mk, shifted, X))
    assert np.allclose(lam_shift, lam_base - 1e-12 + 0.75, atol=1e-9)


def test_kernel_matrix_grad_variance_slots():
    specs = (KernelSpec.rbf(0.5), KernelSpec.rbf(2.0))
    mk = MultiKernel(specs)
    theta = HyperParams((1.5, 0.5), 0.25)
    X = RNG.normal(size=(8, 1))
    # d/dtheta_l is the base kernel matrix; d/dnoise is the identity
    assert np.array_equal(kernel_matrix_grad(mk, theta, X, 0), kernel_matrix(specs[0], X))
    assert np.array_equal(kernel_matrix_grad(mk, theta, X, 1), kernel_matrix(specs[1], X))
    assert np.array_equal(kernel_matrix_grad(mk, theta, X, 2), np.eye(8))
    with pytest.raises(ValueError):
        kernel_matrix_grad(mk, theta, X, 3)   # no lengthscale slots in theta


def central_difference_matrix(fn, value, h):
    return (fn(value + h) - fn(value - h)) / (2.0 * h)


def test_base_lengthscale_grad_matches_finite_difference():
    X = RNG.normal(size=(6, 2)) * 2
    for dim in (0, 1):
        grad = base_lengthscale_grad(KernelSpec.rbf((0.8, 1.3)), X, dim)
        def matrix_at(l):
            ls = [0.8, 1.3]
            ls[dim] = l
            return kernel_matrix(KernelSpec.rbf(tuple(ls)), X)
        fd = central_difference_matrix(matrix_at, [0.8, 1.3][dim], 1e-6)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5


def test_matern_scale_grad_matches_finite_difference():
    X = RNG.normal(size=(6, 2))
    for order in (0.5, 1.5, 2.5):
        grad = base_lengthscale_grad(KernelSpec.matern(order, 0.9), X, 0)
        fd = central_difference_matrix(
            lambda h: kernel_matrix(KernelSpec.matern(order, h), X), 0.9, 1e-6
        )
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_kernel_matrix_grad_lengthscale_slot_scales_with_signal_variance():
    spec = KernelSpec.rbf((0.8, 1.3))
    mk = MultiKernel.single(spec)
    X = RNG.normal(size=(6, 2))
    theta = HyperParams((1.0,), 0.3, lengthscales=(0.8, 1.3))
    # with unit signal variance the slot equals the base-matrix derivative
    assert np.allclose(
        kernel_matrix_grad(mk, theta, X, 2), base_lengthscale_grad(spec, X, 0), atol=1e-14
    )
    scaled = HyperParams((2.5,), 0.3, lengthscales=(0.8, 1.3))
    assert np.allclose(
        kernel_matrix_grad(mk, scaled, X, 3),
        2.5 * base_lengthscale_grad(spec, X, 1),
        atol=1e-14,
    )


def test_hyperparams_vector_round_trip():
    theta = HyperParams((1.0, 2.0), 0.5, lengthscales=(0.7, 0.9, 1.1))
    back = HyperParams.from_vector(theta.to_vector(), 2, True)
    assert back == theta
    with pytest.raises(ValueError):
        HyperParams((1.0,), 0.0)
    with pytest.raises(ValueError):
        HyperParams((-1.0,), 1.0)
