"""Asymptotic cloning of classical state families.

Numerical verification toolkit for the theory of (n, rn)-cloning: the
Gaussian-shift amplifier and its closed-form loss constant, the LAN-based
cloning pipeline that achieves it for smooth one-parameter families, and an
independent linear-programming oracle for the deficiency of discretized
experiments.

Every distance is reported in the L1 convention, twice the total-variation
distance, so it lies in [0, 2].
"""

from .amplifier import (
    AmplifierLossReport,
    amplifier_loss_mc,
    amplify,
    build_rotation,
    expand_to_clones,
    gaussian_clone,
)
from .cloner import (
    CloneLossReport,
    ClonerConfig,
    CloneRunRecord,
    MinimaxProbeReport,
    clone,
    clone_loss_discrete,
    estimate_theta,
    local_minimax_probe,
)
from .deficiency import (
    ConfigurationError,
    DeficiencyResult,
    FiniteExperiment,
    GridSpec,
    NumericalError,
    discretize_gaussian_pair,
    gaussian_cell_masses,
    identity_objective,
    kernel_objective,
    lp_deficiency,
)
from .families import (
    Bernoulli,
    Family,
    GaussianLocation,
    Poisson,
    get_family,
)
from .gaussian import (
    GaussianShift,
    TvResult,
    chi2_cdf,
    crossing_radius_sq,
    tv_ball_indicator,
    tv_isotropic,
    tv_numeric,
)
from .lan import (
    CouplingReport,
    DqmReport,
    ExceedanceReport,
    LanResidualReport,
    dqm_residual,
    lan_residual_rate,
    loglik_ratio,
    quantile_coupling,
    score_process,
    smoothed_score,
    wilson_interval,
)
from .lawdist import EmpiricalLaw, mixture_pmf, pmf_l1
from .streams import stream, stream_key

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
