"""Loss, gradients, and the minibatch optimizers.

The training loss is the scaled negative log marginal likelihood
    loss(theta) = (1/2n) [y^T K^-1 y + log|K| + n log 2pi]
whose gradient entries are
    (1/2n) tr[K^-1 (I - y y^T K^-1) dK/dtheta_l].

The minibatch stochastic gradient evaluates the same trace on the principal
submatrix indexed by the batch, dividing slot l by 2*s_l(m) instead of 2n.
With s_l(m) = m for every slot and the batch equal to the full index set it
reduces to the full gradient exactly.

Two optimizers run through one loop function: plain SGD with diminishing
step sizes alpha_k = alpha_1 / k, and Adam with a constant learning rate for
joint variance + lengthscale estimation. They differ only in the step they
pass it and in the lower bound they keep theta above.

Every gradient goes through a GradientPlan. A fit builds one before its
first iteration, which checks theta0's layout against the kernels and the
finiteness of X and y once; each iteration then maps the plain theta vector
and the batch's rows (or, for the `grad_norm_every` norms, all rows) to the
gradient. `stochastic_gradient` and `full_gradient` are the plan's one-call
forms, so a fit replays bit for bit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .kernels import CovariancePlan, HyperParams, MultiKernel, marginal_covariance, param_names
from .linalg import (ONE_THREAD_MAX_ORDER_INVERSE, NotPositiveDefiniteError, cholesky, inverse,
                     log_det, one_blas_thread, solve)
from .sampling import Minibatch, SamplingScheme, SpatialIndex, draw_batches
from .seeds import iteration_rng

LOG_2PI = math.log(2.0 * math.pi)

# Iterate bounds applied when clamping is requested without explicit bounds,
# and the positivity floor Adam always applies.
DEFAULT_CLAMP_BOUNDS = (1e-4, 1e4)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Log-scaled signal slots need at least this many points per minibatch.
MIN_LOG_SCALED_M = 3

# Batches a fit draws ahead at a time.
SCHEDULE_CHUNK = 1024


class ScalingMode(str, Enum):
    LINEAR = "linear"       # s_l(m) = m
    LOG_SCALED = "log"      # s_l(m) = tau * log(m)


@dataclass(frozen=True)
class ScalingPolicy:
    """Per-slot stochastic-gradient divisors s_l(m).

    Every slot is divided by m, except that under LOG_SCALED the signal
    variance slots are divided by tau * log(m), which needs m >= 3.
    """

    mode: ScalingMode = ScalingMode.LINEAR
    tau: float = 3.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def divisors(self, m: int, theta: HyperParams) -> np.ndarray:
        out = np.full(theta.n_params, float(m))
        if self.mode == ScalingMode.LOG_SCALED:
            if m < MIN_LOG_SCALED_M:
                raise ValueError(
                    f"log-scaled slots require minibatch size m >= {MIN_LOG_SCALED_M}")
            out[:theta.n_kernels] = self.tau * math.log(m)
        return out


@dataclass(frozen=True)
class SGDConfig:
    """Optimizer run configuration.

    Exactly one of `iterations` or `epochs` must be set; an epoch is
    ceil(n / m) iterations. `alpha1` is the SGD initial step (alpha_k =
    alpha1 / k); `learning_rate` is the Adam step. `clamp` bounds iterates to
    [theta_min, theta_max], 0 < theta_min; `clip` rescales stochastic
    gradients with norm above G. Both are off by default.
    """

    m: int
    iterations: int | None = None
    epochs: int | None = None
    alpha1: float = 1.0
    learning_rate: float = 0.01
    scheme: SamplingScheme = SamplingScheme.UNIFORM
    scaling: ScalingPolicy = ScalingPolicy()
    clamp: tuple[float, float] | None = None
    clip: float | None = None
    seed: int = 0
    grad_norm_every: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("minibatch size m must be at least 1")
        if (self.iterations is None) == (self.epochs is None):
            raise ValueError("set exactly one of iterations or epochs")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.alpha1 <= 0:
            raise ValueError("alpha1 must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.clamp is not None and not 0 < self.clamp[0] < self.clamp[1]:
            raise ValueError(
                f"clamp bounds must satisfy 0 < theta_min < theta_max, got {self.clamp}")
        if self.clip is not None and self.clip <= 0:
            raise ValueError("clip threshold must be positive")
        if self.grad_norm_every < 0:
            raise ValueError("grad_norm_every must be nonnegative")

    def resolve_iterations(self, n: int) -> int:
        if self.iterations is not None:
            return self.iterations
        return self.epochs * math.ceil(n / self.m)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    theta: np.ndarray
    step_size: float
    gradient: np.ndarray | None
    grad_norm_sq: float | None
    elapsed: float


class _Records(Sequence):
    """Read-only view of a FitTrace as one TraceRecord per iteration, each
    built on access. Supports indexing (negative too), slicing (a list),
    iteration and len()."""

    def __init__(self, trace: "FitTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.step_size.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        k = range(len(self))[index]   # counts negatives from the end; IndexError past it
        t = self._trace
        return TraceRecord(
            iteration=k,
            theta=t.theta[k],
            step_size=float(t.step_size[k]),
            gradient=None if k == 0 else t.gradient[k],
            grad_norm_sq=None if math.isnan(t.grad_norm_sq[k]) else float(t.grad_norm_sq[k]),
            elapsed=float(t.elapsed[k]),
        )


@dataclass
class FitTrace:
    """Per-iteration optimizer history, including the starting point.

    Row k of each array is iteration k. NaN marks a value that was not
    taken: row 0 of `gradient` (no gradient is taken at the start) and
    `grad_norm_sq` at every iteration `grad_norm_every` skips. `elapsed` is
    seconds since the fit started.
    """

    theta: np.ndarray               # (iterations + 1, params)
    gradient: np.ndarray            # (iterations + 1, params)
    step_size: np.ndarray           # (iterations + 1,)
    grad_norm_sq: np.ndarray        # (iterations + 1,)
    elapsed: np.ndarray             # (iterations + 1,)
    param_names: list[str]
    n_kernels: int
    has_lengthscales: bool
    clamp_events: int = 0
    clip_events: int = 0

    @property
    def records(self) -> Sequence[TraceRecord]:
        return _Records(self)

    @property
    def iterations(self) -> int:
        return self.step_size.shape[0] - 1

    @property
    def final_theta(self) -> HyperParams:
        return HyperParams.from_vector(self.theta[-1], self.n_kernels, self.has_lengthscales)


class FitDivergedError(Exception):
    """An optimizer run failed partway. The message names the iteration, the
    theta involved and the cause; `.trace` holds the history so far."""

    def __init__(self, message: str, trace: FitTrace):
        super().__init__(message)
        self.trace = trace


def nll_loss(theta: HyperParams, kernels: MultiKernel, X: np.ndarray, y: np.ndarray) -> float:
    """Scaled negative log marginal likelihood of y given X."""
    y = np.asarray(y, dtype=np.float64)
    factor = cholesky(marginal_covariance(kernels, theta, X), overwrite=True)
    n = y.shape[0]
    return float((y @ solve(factor, y) + log_det(factor) + n * LOG_2PI) / (2.0 * n))


class GradientPlan:
    """The trace-formula gradient over one data set, checked once.

    Building the plan checks what CovariancePlan checks, and the shape and
    finiteness of the responses Y, an n x r block (a vector is one column).
    A call maps a flat theta vector (positive, of the plan's layout), the
    per-slot divisors s_l and optionally a batch's row indices (default:
    every row) to the r x p block whose row j holds
    <K^-1 - a a^T, dK/dtheta_l> / (2 s_l) over those rows, a = K^-1 Y[:, j].

    One covariance build, one Cholesky, one inverse and one solve serve the
    whole block; each column then costs one contraction. The factor, solve
    and inverse of at most ONE_THREAD_MAX_ORDER_INVERSE rows run on one
    scipy BLAS thread (linalg.one_blas_thread), so a batch gradient has the
    same bits at any BLAS thread count. The last column subtracts a a^T
    from the inverse in place, so a one-column block makes no copy of it:
    the full gradient runs at n in the thousands.
    """

    def __init__(self, kernels: MultiKernel, theta: HyperParams, X: np.ndarray, Y: np.ndarray):
        self.covariance_plan = CovariancePlan(kernels, theta, X)
        n = len(self.covariance_plan.X)
        Y = np.asarray(Y, dtype=np.float64)
        Y = Y[:, None] if Y.ndim == 1 else Y
        if Y.ndim != 2 or Y.shape[0] != n:
            raise ValueError(f"responses of shape {Y.shape} for {n} inputs")
        if not np.all(np.isfinite(Y)):
            raise ValueError("non-finite responses")
        self.Y = Y

    def __call__(self, theta: np.ndarray, divisors: np.ndarray, rows=None) -> np.ndarray:
        K, contract = self.covariance_plan(theta, rows)
        with one_blas_thread(K.shape[0] <= ONE_THREAD_MAX_ORDER_INVERSE):
            factor = cholesky(K, overwrite=True)
            del K  # its buffer now holds the factor
            alpha = solve(factor, self.Y if rows is None else self.Y[rows])
            inv = inverse(factor)
            del factor  # its buffer now holds potri's output
        out = np.empty((alpha.shape[1], divisors.shape[0]))
        for j, a in enumerate(alpha.T):
            W = inv if j == len(out) - 1 else inv.copy()
            W -= a[:, None] * a
            out[j] = contract(W)
        return out / (2.0 * divisors)


def full_gradient(theta: HyperParams, kernels: MultiKernel, X: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Gradient of nll_loss over the full dataset, one entry per parameter
    slot (signal variances, noise, then lengthscales when present)."""
    plan = GradientPlan(kernels, theta, X, y)
    return plan(theta.to_vector(), ScalingPolicy().divisors(plan.Y.shape[0], theta))[0]


def stochastic_gradient(theta: HyperParams, kernels: MultiKernel, batch: Minibatch, X: np.ndarray,
                        y: np.ndarray, scaling: ScalingPolicy = ScalingPolicy()) -> np.ndarray:
    """Minibatch gradient estimate with per-slot scaling s_l(m): the
    GradientPlan of the batch's rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = batch.indices
    if idx.min() < 0 or idx.max() >= y.shape[0]:
        raise ValueError("batch indices out of range")
    plan = GradientPlan(kernels, theta, X[idx], y[idx])
    return plan(theta.to_vector(), scaling.divisors(idx.shape[0], theta))[0]


def _batch_stream(config: SGDConfig, n: int, iterations: int,
                  index: SpatialIndex | None) -> Iterator[np.ndarray]:
    """Batch rows of iterations 1..iterations, SCHEDULE_CHUNK per `draw_batches` call."""
    for start in range(1, iterations + 1, SCHEDULE_CHUNK):
        stop = min(start + SCHEDULE_CHUNK, iterations + 1)
        # a generator, so that one stream at a time is alive, not a chunk of them
        rngs = (iteration_rng(config.seed, k) for k in range(start, stop))
        yield from draw_batches(config.scheme, n, config.m, rngs, index)


def _fit(dataset: Dataset, kernels: MultiKernel, config: SGDConfig, theta0: HyperParams,
         step: Callable[[int, np.ndarray], tuple], floor: float | None) -> FitTrace:
    """The loop both optimizers run: row 0 is theta0, and row k is
    theta - delta kept within the bounds, where (delta, step size, gradient)
    = step(k, iteration k's batch gradient rescaled to norm `clip` above it).

    Iteration k's batch is the one `draw_batches` draws from
    `iteration_rng(seed, k)`. One GradientPlan, built (and so checked) before
    the first iteration, takes every gradient, batch or full, so iteration
    k's is `stochastic_gradient`'s at the same theta, bit for bit. The bounds
    are `clamp` if set, else [floor, inf), else a check that theta stays in
    (0, inf), so every iterate is positive.
    """
    plan = GradientPlan(kernels, theta0, dataset.X, dataset.y)
    iterations = config.resolve_iterations(dataset.n)
    # Fails fast on a batch size the scaling cannot take, before iterating.
    divisors = config.scaling.divisors(config.m, theta0)
    full_divisors = ScalingPolicy().divisors(dataset.n, theta0)
    index = SpatialIndex(dataset.X) if config.scheme == SamplingScheme.NEARBY else None
    batches = _batch_stream(config, dataset.n, iterations, index)
    bounds = config.clamp or (None if floor is None else (floor, np.inf))
    rows, params = iterations + 1, theta0.n_params
    theta, gradient = np.empty((rows, params)), np.full((rows, params), np.nan)
    step_size, norm_sq, elapsed = np.empty(rows), np.full(rows, np.nan), np.empty(rows)
    clamp_events = clip_events = 0
    start = time.perf_counter()

    def trace(done: int) -> FitTrace:
        columns = [a[:done] for a in (theta, gradient, step_size, norm_sq, elapsed)]
        for a in columns:
            a.flags.writeable = False
        return FitTrace(*columns, param_names=param_names(kernels, theta0),
                        n_kernels=kernels.n_kernels, has_lengthscales=theta0.lengthscales is not None,
                        clamp_events=clamp_events, clip_events=clip_events)

    def gradient_at(k: int, vec: np.ndarray, batch: np.ndarray | None) -> np.ndarray:
        """The batch gradient, or with no batch the full one, at theta = vec."""
        try:
            return plan(vec, full_divisors if batch is None else divisors, batch)[0]
        except NotPositiveDefiniteError as exc:
            which, done = "covariance", k
            if batch is None:   # theta_k is stored: keep its row, the norm left NaN
                which, done = "full-data covariance", k + 1
                elapsed[k] = time.perf_counter() - start
            raise FitDivergedError(f"{which} not positive definite at iteration {k}, theta "
                                   f"{vec.tolist()}: {exc}", trace(done)) from exc

    vec, alpha = theta0.to_vector(), 0.0
    for k in range(rows):
        if k:
            grad = gradient_at(k, vec, next(batches))
            if config.clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > config.clip:
                    grad = grad * (config.clip / norm)
                    clip_events += 1
            delta, alpha, gradient[k] = step(k, grad)
            vec = vec - delta
            if bounds is not None:
                clamped = np.minimum(np.maximum(vec, bounds[0]), bounds[1])
                clamp_events += np.count_nonzero(clamped != vec)
                vec = clamped
            elif np.any(vec <= 0):
                raise FitDivergedError(
                    f"parameter slot {int(np.argmax(vec <= 0))} left (0, inf) at iteration {k}, "
                    f"theta {vec.tolist()}; enable clamping or reduce the step size", trace(k))
        theta[k], step_size[k] = vec, alpha
        if config.grad_norm_every and (k % config.grad_norm_every == 0 or k == iterations):
            g = gradient_at(k, vec, None)
            norm_sq[k] = g @ g
        elapsed[k] = time.perf_counter() - start
    return trace(rows)


def sgd_fit(
    dataset: Dataset,
    kernels: MultiKernel,
    config: SGDConfig,
    theta0: HyperParams,
) -> FitTrace:
    """Minibatch SGD with diminishing step sizes alpha_k = alpha1 / k.

    Deterministic given (seed, config, data): the batch at iteration k is a
    pure function of the seed and k. With m at most
    linalg.ONE_THREAD_MAX_ORDER_INVERSE the iterates are also the same at
    any BLAS thread count; a larger m, and the `grad_norm_every` norms of
    more rows than that, are the same only for the same thread count.
    """
    def step(k: int, grad: np.ndarray):
        alpha_k = config.alpha1 / k
        return alpha_k * grad, alpha_k, grad

    return _fit(dataset, kernels, config, theta0, step, floor=None)


def adam_fit(
    dataset: Dataset,
    kernels: MultiKernel,
    config: SGDConfig,
    theta0: HyperParams,
    learn_lengthscales: bool = False,
) -> FitTrace:
    """Adam on the minibatch gradients with a constant learning rate.

    With `learn_lengthscales` the lengthscale slots are optimized alongside
    the variances; otherwise any lengthscale slots in theta0 stay untouched
    and their gradients are recorded as 0. Positivity is maintained by
    clamping below at theta_min (the configured clamp bound, or its default).
    """
    if learn_lengthscales and theta0.lengthscales is None:
        theta0 = HyperParams(theta0.signal_variances, theta0.noise_variance,
                             kernels.flat_lengthscales())
    n_active = theta0.n_params if learn_lengthscales else kernels.n_kernels + 1
    m_state = np.zeros(theta0.n_params)
    v_state = np.zeros(theta0.n_params)

    def step(k: int, grad: np.ndarray):
        nonlocal m_state, v_state
        grad[n_active:] = 0.0   # so an inactive slot's moments, and its update, stay 0
        m_state = ADAM_BETA1 * m_state + (1.0 - ADAM_BETA1) * grad
        v_state = ADAM_BETA2 * v_state + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m_state / (1.0 - ADAM_BETA1**k)
        v_hat = v_state / (1.0 - ADAM_BETA2**k)
        update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return update, config.learning_rate, grad

    return _fit(dataset, kernels, config, theta0, step, floor=DEFAULT_CLAMP_BOUNDS[0])
