"""Posterior predictive mean and variance from learned hyperparameters.

    mean(x*) = k(X, x*)^T K^-1 y
    var(x*)  = k(x*, x*) - k(X, x*)^T K^-1 k(X, x*)

with k(., .) = sum_l theta_l k_l(., .) and K the marginal covariance of the
training responses (noise included). K and k* = k(X, x*) come from one
kernels.CovariancePlan over the training and test points, which checks
theta and both point sets once. Three strategies:

* exact: factor K = L L^T and make one triangular pass W = L^-1 [y | k*];
  the mean is W_k^T w_y and the variance k(x*, x*) - colsum(W_k^2);
* CG, for large n: solve K [alpha | V] = [y | k*] in blocks of at most
  CG_BLOCK_WIDTH columns, y in the first (a stopping test per column),
  preconditioned by noise I + L L^T with L a pivoted Cholesky factor of the
  signal part K - noise I, built once and shared by every block (see linalg
  for the rank rule); the mean is k*^T alpha and the variance
  k(x*, x*) - colsum(k* o V), taken block by block so that no n x t
  solution is held;
* nearest: condition each test point on its n_neighbors closest training
  points, taking K and k* over those rows from one plan per call and the
  exact strategy's moments from them.

Products with the n x n covariance and the n x t cross-covariance, and the
Woodbury products of the preconditioner, go through scipy's BLAS, like the
factorizations in linalg, so that consecutive stages run on one BLAS thread
pool (see the linalg docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.blas import dgemv, dsymv

from .kernels import CovariancePlan, HyperParams, MultiKernel
from .linalg import (CGBreakdownError, NotPositiveDefiniteError, cg_solve, cholesky,
                     forward_solve, pivoted_cholesky, woodbury_preconditioner)
from .sampling import SpatialIndex

EXACT_SIZE_LIMIT = 10_000
# Columns per CG block: the solver's work arrays are n x CG_BLOCK_WIDTH
# whatever the number of test points.
CG_BLOCK_WIDTH = 32


class PredictStrategy(str, Enum):
    EXACT = "exact"
    CG = "cg"
    NEAREST = "nearest"


class CGConvergenceError(Exception):
    """CG failed to reach the requested tolerance; message carries the
    residual actually achieved."""


@dataclass(frozen=True)
class PredictionResult:
    mean: np.ndarray
    variance: np.ndarray
    strategy: PredictStrategy
    # CG only: iterations for y, then for each test column; the rank of the
    # pivoted-Cholesky preconditioner; the largest final relative residual.
    cg_iterations: list[int] | None = None
    cg_preconditioner_rank: int | None = None
    cg_residual_max: float | None = None


def _as_inputs(X_train, y_train, X_test):
    """The training responses, which must be finite and one per training
    row, and the test inputs. A 1-D test array is one point when the
    training points have several dimensions; the covariance plan reads any
    other 1-D array as one-dimensional points."""
    y_train = np.asarray(y_train, dtype=np.float64)
    if y_train.shape != np.shape(X_train)[:1]:
        raise ValueError(f"y_train has shape {y_train.shape} for X_train of shape "
                         f"{np.shape(X_train)}: expected one response per training row")
    if not np.all(np.isfinite(y_train)):
        raise ValueError("y_train has non-finite entries")
    X_test = np.asarray(X_test, dtype=np.float64)
    if X_test.ndim == 1 and np.ndim(X_train) == 2 and np.shape(X_train)[1] > 1:
        X_test = X_test[None, :]
    return y_train, X_test


def predict(
    theta: HyperParams,
    kernels: MultiKernel,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    strategy: PredictStrategy | None = None,
    cg_tol: float = 1e-6,
    cg_max_iter: int = 1000,
) -> PredictionResult:
    """Predictive mean and variance at the test inputs.

    With no explicit strategy, Cholesky is used below 10^4 training points
    and CG above. Exact and CG agree within a small multiple of cg_tol.
    """
    y_train, X_test = _as_inputs(X_train, y_train, X_test)
    plan = CovariancePlan(kernels, theta, X_train, X_test)
    n = plan.X.shape[0]
    if strategy is None:
        strategy = PredictStrategy.EXACT if n < EXACT_SIZE_LIMIT else PredictStrategy.CG
    if strategy not in (PredictStrategy.EXACT, PredictStrategy.CG):
        raise ValueError("use predict_nn for nearest-neighbor prediction")
    vec = theta.to_vector()
    k_star = plan.covariance(vec, cols=slice(None))
    K = plan.covariance(vec, upper_only=strategy == PredictStrategy.EXACT)
    try:
        if strategy == PredictStrategy.EXACT:
            mean, quad = _exact_moments(K, y_train, k_star)
            cg = {}
        else:
            mean, quad, cg = _predict_cg(K, theta.noise_variance, y_train, k_star, cg_tol, cg_max_iter)
    except (NotPositiveDefiniteError, CGConvergenceError, CGBreakdownError) as exc:
        raise _naming_theta(exc, strategy, vec) from exc
    return PredictionResult(mean=mean, variance=_variance(theta, quad), strategy=strategy, **cg)


def _naming_theta(exc: Exception, strategy: PredictStrategy, vec: np.ndarray, point=None):
    """`exc` as its own type, its message led by the strategy, theta and any test point."""
    at = "" if point is None else f", test point {point}"
    return type(exc)(f"{strategy.value} prediction at theta {vec.tolist()}{at}: {exc}")


def _exact_moments(K, y, k_star):
    """Mean and k*^T K^-1 k* per test point from one forward pass
    W = L^-1 [y | k*]: k*^T K^-1 y = W_k^T w_y and k*^T K^-1 k* = W_k^T W_k.
    K is factored in its own buffer and must not be used again. Only its
    upper triangle is read, so callers pass the upper-only K of
    kernels.CovariancePlan.covariance (a mirrored K gives the same bits).
    Only the triangular pass reads the factor, so dpotrf's clean pass is
    skipped (linalg.cholesky's `clean`). BENCH_triangle.json splits what
    the two save on the exact predict at n=6000.
    Up to 512 training points (every nearest neighbourhood at the default
    k=256) the factor runs on one BLAS thread (linalg's rule). The wide
    triangular pass keeps every thread, so its means depend on the count:
    over 2000 test points at n=500 it took 41 against 30 ms on one thread."""
    factor = cholesky(K, overwrite=True, clean=False)
    W = forward_solve(factor, np.column_stack((y, k_star)))
    w_y, W_k = W[:, 0], W[:, 1:]
    return dgemv(1.0, W_k, w_y, trans=1), np.einsum("ij,ij->j", W_k, W_k)


def _variance(theta: HyperParams, quad: np.ndarray) -> np.ndarray:
    """k(x*, x*) - k*^T K^-1 k* for unit-diagonal kernels, floored at 0."""
    return np.maximum(float(sum(theta.signal_variances)) - quad, 0.0)


def _predict_cg(K, noise, y, k_star, tol, max_iter):
    """Mean, k*^T K^-1 k* per test point and the CG report, from
    preconditioned solves K [alpha | V] = [y | k*] in blocks of at most
    CG_BLOCK_WIDTH columns, y in the first. One pivoted-Cholesky factor
    serves every block, and each block's share of colsum(k* o V) is taken
    before the next block is solved."""
    factor = pivoted_cholesky(K, noise)
    product = _covariance_product(K)
    precondition = woodbury_preconditioner(factor, noise)
    t = k_star.shape[1]
    quad = np.empty(t)
    iterations, residuals = [], []
    for start in range(-1, t, CG_BLOCK_WIDTH):
        lo, hi = max(start, 0), min(start + CG_BLOCK_WIDTH, t)
        block = k_star[:, lo:hi]
        rhs = block if start >= 0 else np.column_stack((y, block))
        res = cg_solve(product, rhs, tol=tol, max_iter=max_iter, precondition=precondition)
        if not res.converged.all():
            j = int(np.argmax(res.residual))
            raise CGConvergenceError(f"CG stopped after {res.iterations[j]} iterations at "
                                     f"relative residual {res.residual[j]:.3e}")
        V = res.x
        if start < 0:
            alpha, V = V[:, 0], V[:, 1:]
        quad[lo:hi] = np.einsum("ij,ij->j", block, V)
        iterations += res.iterations.tolist()
        residuals.append(res.residual.max())
    mean = dgemv(1.0, k_star.T, alpha)
    return mean, quad, {"cg_iterations": iterations,
                        "cg_preconditioner_rank": factor.shape[1],
                        "cg_residual_max": float(max(residuals))}


def _covariance_product(K: np.ndarray):
    """V -> K V for a Fortran-ordered block V: one dsymv per column on
    scipy's BLAS. K.T is K's own buffer in Fortran order, so nothing is
    copied. dsymm handles a narrow block poorly: at n=6000 (2 cores,
    OpenBLAS 0.3.30) K times two columns took 62 ms as dsymm against
    5.8 ms per column as dsymv.
    """
    KF = K.T

    def product(V: np.ndarray) -> np.ndarray:
        out = np.empty_like(V, order="F")
        for j in range(V.shape[1]):
            out[:, j] = dsymv(1.0, KF, V[:, j])
        return out

    return product


def predict_nn(
    theta: HyperParams,
    kernels: MultiKernel,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    n_neighbors: int,
    index: SpatialIndex,
) -> PredictionResult:
    """Prediction conditioning each test point on only its n_neighbors
    nearest training points: one covariance plan and one batched neighbor
    query for all test points, then per point the exact moments from K and
    k* over its neighbors."""
    y_train, X_test = _as_inputs(X_train, y_train, X_test)
    plan = CovariancePlan(kernels, theta, X_train, X_test)
    n = plan.X.shape[0]
    if not 1 <= n_neighbors <= n:
        raise ValueError(f"n_neighbors must be in [1, {n}], got {n_neighbors}")
    if not np.array_equal(index.points, plan.X):
        raise ValueError(f"index covers other points than the {n} of X_train")
    vec = theta.to_vector()
    mean, quad = np.empty((2, plan.X2.shape[0]))
    for t, rows in enumerate(index.query_many(plan.X2, n_neighbors)):
        K = plan.covariance(vec, rows, upper_only=True)
        k_star = plan.covariance(vec, rows, slice(t, t + 1))
        try:
            mean[t:t + 1], quad[t:t + 1] = _exact_moments(K, y_train[rows], k_star)
        except NotPositiveDefiniteError as exc:
            raise _naming_theta(exc, PredictStrategy.NEAREST, vec, t) from exc
    return PredictionResult(mean=mean, variance=_variance(theta, quad),
                            strategy=PredictStrategy.NEAREST)


def rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared difference between paired vectors."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))
