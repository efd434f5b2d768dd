"""Degrees-of-freedom analysis of the two-user MIMO interference channel
with cognitive message sharing and full-duplex cooperation.

Exact integer-arithmetic DOF regions, closed-form DOF values, zero-forcing
achievability on random channels, and high-SNR sum-rate slope estimation.
"""

from .channel import (
    AntennaConfig,
    ChannelRealization,
    CognitionScenario,
    DegenerateChannelError,
    RANK_RTOL,
    sample_channel,
    sample_channels,
)
from .regions import (
    AchievableSet,
    Caps,
    DofPoint,
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_points,
    inner_region,
    lemma5_holds,
    outer_region,
    regions_equal,  # read by perfbench only; not in __all__
    scenario_ordering_holds,
    sum_dof_lp,  # read by perfbench only; not in __all__
)
from .zf import (
    AchievabilityError,
    SweepReport,
    TrialVerdict,
    ZfScheme,
    achievability_sweep,
    build_scheme,
    verify_scheme,
)
from .rates import (
    CooperationBoundProbe,  # read by perfbench only; not in __all__
    CooperationGapReport,
    RateSweep,
    UndecodableSchemeError,
    achievable_rates,  # read by perfbench only; not in __all__
    cooperation_bound_term,  # read by perfbench only; not in __all__
    cooperation_dof_gap_check,
    simulate_point,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig",
    "ChannelRealization",
    "CognitionScenario",
    "DegenerateChannelError",
    "RANK_RTOL",
    "sample_channel",
    "sample_channels",
    "AchievableSet",
    "Caps",
    "DofPoint",
    "dof_cooperation",
    "dof_cooperation_upper_bounds",
    "dof_formula",
    "inner_points",
    "inner_region",
    "lemma5_holds",
    "outer_region",
    "scenario_ordering_holds",
    "AchievabilityError",
    "SweepReport",
    "TrialVerdict",
    "ZfScheme",
    "achievability_sweep",
    "build_scheme",
    "verify_scheme",
    "CooperationGapReport",
    "RateSweep",
    "UndecodableSchemeError",
    "cooperation_dof_gap_check",
    "simulate_point",
]
