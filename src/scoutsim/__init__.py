"""Simulation and exact analysis of finite-memory multi-scout grid exploration."""

from .protocol import (
    Configuration,
    EnvPattern,
    Outcome,
    ProtocolError,
    ProtocolSyntaxError,
    ProtocolValidationError,
    ScoutProtocol,
    TransitionRule,
    Violation,
    builtin,
    environment_of,
    parse_protocol,
    protocol_hash,
    serialize,
    validate,
)
from .engine import (
    DEFAULT_CAP,
    HittingResult,
    HittingSummary,
    ResourceLimitError,
    SeedSpec,
    Trace,
    VectorSim,
    hitting_time,
    iter_run,
    meeting_times,
    monte_carlo_hitting,
    monte_carlo_hitting_multi,
    run,
    step,
)
from .tails import (
    InsufficientDataError,
    SurvivalCurve,
    TailFit,
    fit_tail,
    wilson_interval,
)
from .errors import BudgetExceededError, PreconditionError
from .analysis import (
    ClassReport,
    DegeneracyVerdict,
    RayDomain,
    ReducedKernel,
    ThickRay,
    analyze_protocol,
    classes,
    degeneracy_check,
    difference_drift,
    effective_drift,
    joint_product_chain,
    ray_domain,
    reduce_kernel,
    renewal_samples,
)
from .walks import (
    LawOutcome,
    LookAroundWalk,
    StepLaw,
    exact_dp_oracle,
    make_law,
    parse_law,
    sample_walk,
)
from .renewal import (
    MeetingRenewal,
    TrapReport,
    divergence_flag,
    explorer_cover_time,
    extract_renewal,
    meeting_tail,
    trap_detect,
)

__version__ = "0.1.0"
