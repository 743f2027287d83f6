"""Runnable oracles for the analysis quantities behind the optimizer.

* the conditional expectation of the minibatch gradient given the batch
  inputs (exact, via traces; eigenvalue form available when kernel matrices
  commute, which always holds for a single kernel),
* the noise-variance curvature gamma = (1/2m) sum_j (theta_1 lam_j +
  theta_2)^-2 of a realized minibatch and its population surrogate,
* the closed-form geometric spectrum of the Gaussian kernel under Gaussian
  inputs, and empirical eigendecay fits against it.

These let tests and experiments check the optimizer's convergence behavior
against quantities computed by an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernels import HyperParams, KernelSpec, MultiKernel, kernel_matrix, kernel_matrix_grad, marginal_covariance
from .linalg import cholesky, sym_eigenvalues, two_sided_solve
from .sampling import SamplingScheme, SpatialIndex, draw_batches
from .seeds import component_rng
from .training import GradientPlan, ScalingPolicy


class DecayFamily(str, Enum):
    EXPONENTIAL = "exponential"   # lam_j / n ~ C exp(-b j)
    POLYNOMIAL = "polynomial"     # lam_j / n ~ C j^(-2b)


@dataclass(frozen=True)
class CurvatureReport:
    """Noise-variance curvature values over replicate minibatches."""

    m: int
    scheme: SamplingScheme
    replicates: int
    values: np.ndarray
    mean: float
    sd: float


@dataclass(frozen=True)
class EigendecayFit:
    family: DecayFamily
    rate: float            # b
    scale: float           # C
    index_range: tuple[int, int]
    residual: float        # RMS residual of the log-linear regression


def conditional_expected_gradient(
    theta: HyperParams,
    theta_true: HyperParams,
    kernels: MultiKernel,
    batch_X: np.ndarray,
    scaling: ScalingPolicy = ScalingPolicy(),
) -> np.ndarray:
    """E[stochastic gradient | batch inputs] under y ~ N(0, K(theta_true)).

    Slot l equals (1/2 s_l) tr[K^-1 (I - K* K^-1) dK/dtheta_l] with K =
    K(theta) and K* = K(theta_true), both on the batch inputs. Exact for any
    number of kernels; zero in every slot at theta = theta_true.
    """
    divisors = scaling.divisors(np.shape(batch_X)[0], theta)

    K_true = marginal_covariance(kernels, theta_true, batch_X)
    factor = cholesky(marginal_covariance(kernels, theta, batch_X), overwrite=True)
    B_true = two_sided_solve(factor, K_true)
    out = np.empty(theta.n_params)
    for l in range(theta.n_params):
        D = kernel_matrix_grad(kernels, theta, batch_X, l)
        B_D = two_sided_solve(factor, D)
        out[l] = (np.trace(B_D) - np.sum(B_true * B_D)) / (2.0 * divisors[l])
    return out


def expected_gradient_from_eigenvalues(
    theta: HyperParams,
    theta_true: HyperParams,
    eigenvalues: np.ndarray,
    scaling: ScalingPolicy = ScalingPolicy(),
) -> np.ndarray:
    """Eigenvalue form of the conditional expected gradient for one kernel.

    With lam_j the eigenvalues of the base kernel matrix on the batch and the
    noise slot assigned constant eigenvalue 1,
        slot l = (1/2 s_l) sum_l' (theta_l' - theta*_l')
                 sum_j lam_lj lam_l'j / (theta_1 lam_j + theta_2)^2.
    """
    if theta.n_kernels != 1 or theta_true.n_kernels != 1:
        raise ValueError("eigenvalue form requires a single kernel")
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = lam.shape[0]
    divisors = scaling.divisors(m, theta)
    slot_eigs = (lam, np.ones(m))
    diff = (
        theta.signal_variances[0] - theta_true.signal_variances[0],
        theta.noise_variance - theta_true.noise_variance,
    )
    denom = (theta.signal_variances[0] * lam + theta.noise_variance) ** 2
    out = np.empty(2)
    for l in range(2):
        acc = sum(diff[lp] * np.sum(slot_eigs[lp] * slot_eigs[l] / denom) for lp in range(2))
        out[l] = acc / (2.0 * divisors[l])
    return out


def monte_carlo_expected_gradient(
    theta: HyperParams,
    theta_true: HyperParams,
    kernels: MultiKernel,
    batch_X: np.ndarray,
    scaling: ScalingPolicy = ScalingPolicy(),
    draws: int = 20000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo check of the conditional expected gradient.

    Draws y ~ N(0, K(theta_true)) via Cholesky of the true covariance, each
    from the next m standard normals, and averages the minibatch gradient
    that training uses over them; returns (mean, standard error) per slot.
    All draws share one factorization of K(theta), passed to the gradient
    as one m x draws block. Independent of the trace-formula route.
    """
    m = np.shape(batch_X)[0]
    factor_true = cholesky(marginal_covariance(kernels, theta_true, batch_X), overwrite=True)
    rng = component_rng(seed, "mc-expected-gradient")
    Y = factor_true.lower @ rng.standard_normal((draws, m)).T
    samples = GradientPlan(kernels, theta, batch_X, Y)(theta.to_vector(), scaling.divisors(m, theta))
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    return mean, stderr


def noise_curvature(theta: HyperParams, eigenvalues: np.ndarray) -> float:
    """Curvature of the expected noise-variance gradient at theta = theta*:
    (1/2m) sum_j (theta_1 lam_j + theta_2)^-2 for base-kernel eigenvalues
    lam_j of the minibatch."""
    if theta.n_kernels != 1:
        raise ValueError("curvature is defined for a single kernel")
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape[0] < 1:
        raise ValueError("at least one eigenvalue is required")
    if np.any(lam < -1e-10):
        raise ValueError("base-kernel eigenvalues must be nonnegative")
    lam = np.maximum(lam, 0.0)
    denom = (theta.signal_variances[0] * lam + theta.noise_variance) ** 2
    return float(np.sum(1.0 / denom) / (2.0 * lam.shape[0]))


def surrogate_curvature(theta: HyperParams, population_eigs: np.ndarray, m: int) -> float:
    """Population surrogate of the curvature: substitute m * lam*_j for the
    empirical eigenvalues, giving (1/m) sum_{j<=m} (theta_1 lam*_j m +
    theta_2)^-2."""
    if theta.n_kernels != 1:
        raise ValueError("curvature surrogate is defined for a single kernel")
    lam = np.asarray(population_eigs, dtype=np.float64)
    if lam.shape[0] < m:
        raise ValueError(f"need at least {m} population eigenvalues, got {lam.shape[0]}")
    if np.any(lam < 0) or np.any(np.diff(lam) > 1e-15):
        raise ValueError("population eigenvalues must be nonnegative and nonincreasing")
    lam = lam[:m]
    denom = (theta.signal_variances[0] * lam * m + theta.noise_variance) ** 2
    return float(np.mean(1.0 / denom))


def gaussian_kernel_beta(input_sd: float, lengthscale: float) -> float:
    """Geometric decay ratio of the RBF kernel operator's spectrum under
    N(0, input_sd^2) inputs:
        beta = 2 sigma^2 / (2 sigma^2 + l^2 + l sqrt(l^2 + 4 sigma^2)).
    Decreasing in the lengthscale."""
    if input_sd <= 0 or lengthscale <= 0:
        raise ValueError("input_sd and lengthscale must be positive")
    two_s2 = 2.0 * input_sd**2
    return two_s2 / (two_s2 + lengthscale**2 + lengthscale * math.sqrt(lengthscale**2 + 4.0 * input_sd**2))


def gaussian_kernel_eigenvalues(input_sd: float, lengthscale: float, count: int) -> np.ndarray:
    """Leading `count` population eigenvalues lam_j = (1 - beta) beta^(j-1)
    of the RBF kernel under Gaussian inputs; they sum to 1 over all j."""
    if count < 1:
        raise ValueError("count must be at least 1")
    beta = gaussian_kernel_beta(input_sd, lengthscale)
    return (1.0 - beta) * beta ** np.arange(count, dtype=np.float64)


EIG_FLOOR_RATIO = 1e-12
MIN_FIT_EIGENVALUES = 3   # a decay law is fitted to at least this many


def eigendecay_fit(
    eigenvalues: np.ndarray,
    n: int,
    family: DecayFamily,
    index_range: tuple[int, int] | None = None,
) -> EigendecayFit:
    """Least-squares fit of the normalized spectrum lam_j / n to a decay law.

    `eigenvalues` are in descending order, as `sym_eigenvalues` returns
    them. Exponential fits log(lam_j/n) against j (1-based); polynomial fits
    it against log j with slope -2b. Only eigenvalues above EIG_FLOOR_RATIO *
    lam_1 enter the fit (dense eigensolvers return noise below that); an
    explicit 1-based inclusive `index_range` restricts it further.
    """
    values = np.asarray(eigenvalues, dtype=np.float64) / float(n)
    j = np.arange(1, values.shape[0] + 1)
    usable = values > EIG_FLOOR_RATIO * values[0]
    if index_range is not None:
        lo, hi = index_range
        usable &= (j >= lo) & (j <= hi)
    count = int(usable.sum())
    if count < MIN_FIT_EIGENVALUES:
        raise ValueError(f"only {count} usable eigenvalues; need at least {MIN_FIT_EIGENVALUES}")
    jj = j[usable]
    log_vals = np.log(values[usable])
    predictor = jj.astype(np.float64) if family == DecayFamily.EXPONENTIAL else np.log(jj)
    slope, intercept = np.polyfit(predictor, log_vals, 1)
    residual = float(np.sqrt(np.mean((slope * predictor + intercept - log_vals) ** 2)))
    rate = -slope if family == DecayFamily.EXPONENTIAL else -slope / 2.0
    if rate <= 0:
        raise ValueError(f"fitted spectrum does not decay (rate {rate:g})")
    return EigendecayFit(
        family=family,
        rate=float(rate),
        scale=float(np.exp(intercept)),
        index_range=(int(jj[0]), int(jj[-1])),
        residual=residual,
    )


def curvature_experiment(
    pool_size: int,
    m_grid: list[int],
    replicates: int,
    theta: HyperParams,
    kernel: KernelSpec,
    input_dist,
    seed: int,
    input_dim: int = 1,
) -> list[CurvatureReport]:
    """Replicate-minibatch curvature under uniform and nearby sampling on a
    shared input pool; one report per (m, scheme).

    Replicate `rep` of a cell is the batch `draw_batches` draws from
    `component_rng(seed, cell, rep)`, one call per cell.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    pool_rng = component_rng(seed, "curvature-pool")
    X = input_dist.sample(pool_rng, pool_size, input_dim)
    index = SpatialIndex(X)
    reports = []
    for m in m_grid:
        for scheme in (SamplingScheme.UNIFORM, SamplingScheme.NEARBY):
            cell = f"curvature-{scheme.value}-m{m}"
            rngs = (component_rng(seed, cell, rep) for rep in range(replicates))
            batches = draw_batches(scheme, pool_size, m, rngs, index)
            values = np.array([noise_curvature(theta, sym_eigenvalues(kernel_matrix(kernel, X[b]),
                                                                      overwrite=True))
                               for b in batches])
            reports.append(
                CurvatureReport(
                    m=m,
                    scheme=scheme,
                    replicates=replicates,
                    values=values,
                    mean=float(values.mean()),
                    sd=float(values.std(ddof=0)),
                )
            )
    return reports
