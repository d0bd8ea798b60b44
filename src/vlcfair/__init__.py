"""Fair power allocation for two-user optical wireless NOMA links.

Core pieces: a Lambertian line-of-sight channel model with grid
enumeration, one two-user NOMA/orthogonal rate kernel with the Jain
fairness index, a bee-colony maximizer validated by a grid oracle,
two-term exponential curve fitting, the fitted-curve power allocator
with its baselines, and a deterministic CLI around all of it.
"""

__version__ = "0.1.0"

from .allocate import (
    EfopaModel,
    MuMode,
    TwoUserInstance,
    build_efopa_dataset,
    efopa_allocate,
    fairness_objective,
    grpa_allocate,
    ngdpa_allocate,
    oma_allocate,
    optimize_fair_two_user,
)
from .channel import (
    ChannelGrid,
    ChannelSet,
    LinkGeometry,
    Position,
    VlcParams,
    channel_gain,
    concentrator_gain,
    enumerate_channels,
    geometry_from_positions,
    lambertian_order,
    radiant_intensity,
)
from .expfit import ExpFitCoefficients, FitReport, eval_two_term_exp, fit_two_term_exp
from .optimize import AbcConfig, OptimizationResult, SearchSpace, abc_maximize, grid_maximize
from .rates import (
    AllocationVector,
    NoiseModel,
    RateReport,
    UserLink,
    evaluate,
    jain_index,
    paper_repro_models,
    rate_oma,
)
from .reference import reference_model
