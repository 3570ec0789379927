"""Covariance operator estimation on gridded domains.

Kernels discretized on [0,1]^d, seeded Gaussian sampling, tapering and
thresholding estimators with data-driven tuning, operator diagnostics
(effective dimension, sparsity, capacity, tail truncation), lower-bound
family certificates, and a reproducible sweep harness with CSV/SVG output.
"""

from .errors import CovlabError, NumericError, UsageError
from .grid_kernel import (
    CovMatrix,
    Grid,
    KernelSpec,
    Matern,
    Periodic,
    PiecewiseConstant,
    SquaredExponential,
    build_grid,
    discretize,
    eval_kernel,
    fisher_yates_permutation,
    lift_matrix_norm_check,
    shuffle_cov,
    taper_weight,
    taper_weight_matrix,
    taper_weight_sumform,
)
from .sampling import CholFactor, cholesky_psd, draw_paths, sample_cov
from .diagnostics import (
    NuSequence,
    OperatorQuantities,
    TridiagonalForm,
    eps_star,
    gamma1,
    gamma2,
    kl_gaussian,
    kl_gaussian_both,
    lowrank_update_norm,
    m_star,
    operator_quantities,
    spectral_norm,
    tridiagonal_form,
)
from .estimators import (
    adaptive_threshold,
    choose_kappa,
    taper_estimate,
    threshold_estimate,
)
from .minimax import (
    AssouadReport,
    BandedFamilySpec,
    CertificateReport,
    SparseFamilySpec,
    SparseThetaIndex,
    ThetaIndex,
    assouad_terms,
    build_linked_banded,
    build_sparse_theta,
    certify_banded_membership,
    certify_sparse_membership,
    diagonal_separation,
    flip_bit,
    sample_banded_theta,
    sample_sparse_theta,
)
from .experiments import (
    ExperimentConfig,
    KernelTemplate,
    SummaryRow,
    SweepResult,
    TrialRecord,
    emit_csv,
    load_summaries,
    load_trials,
    n_for_lambda,
    run_sweep,
    run_trial,
    summarize,
    trial_seed,
)
from .matrixio import dump_matrix, load_matrix
from .svgplot import emit_svg

__version__ = "0.1.0"
