"""Gaussian process hyperparameter estimation with minibatch SGD.

Public surface: kernel specifications and covariance assembly, the loss /
gradient / optimizer stack, minibatch sampling (uniform and nearest
neighbor), curvature and eigendecay diagnostics, posterior prediction, and
dataset utilities. The `gpsgd` console script drives end-to-end experiments.
"""

from .data import (
    Dataset,
    Gaussian,
    NormalizationMeta,
    Uniform,
    griewank,
    levy,
    load_csv,
    normalize,
    save_csv,
    simulate_function,
    simulate_gp,
    train_test_split,
)
from .diagnostics import (
    CurvatureReport,
    DecayFamily,
    EigendecayFit,
    conditional_expected_gradient,
    curvature_experiment,
    eigendecay_fit,
    expected_gradient_from_eigenvalues,
    gaussian_kernel_beta,
    gaussian_kernel_eigenvalues,
    monte_carlo_expected_gradient,
    noise_curvature,
    surrogate_curvature,
)
from .kernels import (
    HyperParams,
    KernelFamily,
    KernelSpec,
    MultiKernel,
    cross_kernel_matrix,
    eval_kernel,
    kernel_matrix,
    kernel_matrix_grad,
    marginal_covariance,
)
from .linalg import (
    CGResult,
    CholeskyFactor,
    NotPositiveDefiniteError,
    cg_solve,
    cholesky,
    log_det,
    solve,
    sym_eigenvalues,
)
from .prediction import PredictionResult, PredictStrategy, predict, predict_nn, rmse
from .sampling import (
    Minibatch,
    SamplingScheme,
    SpatialIndex,
    build_index,
)
from .training import (
    FitDivergedError,
    FitTrace,
    ScalingMode,
    ScalingPolicy,
    SGDConfig,
    adam_fit,
    full_gradient,
    nll_loss,
    sgd_fit,
    stochastic_gradient,
)

__version__ = "0.1.0"
