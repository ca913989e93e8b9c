"""Simulation and exact analysis of finite-memory multi-scout grid exploration."""

from .protocol import (
    EnvPattern,
    Outcome,
    ProtocolError,
    ProtocolSyntaxError,
    ProtocolValidationError,
    ScoutProtocol,
    TransitionRule,
    Violation,
    builtin,
    parse_protocol,
    protocol_hash,
    serialize,
    validate,
)
from .engine import (
    DEFAULT_CAP,
    HittingSummary,
    ResourceLimitError,
    SeedSpec,
    Trace,
    VectorSim,
    monte_carlo_hitting_multi,
    run,
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
    ray_domain,
    reduce_kernel,
)
from .walks import (
    LawOutcome,
    LookAroundWalk,
    StepLaw,
    exact_dp_oracle,
    make_law,
    parse_law,
)
from .renewal import (
    MeetingRenewal,
    divergence_flag,
    extract_renewal,
    meeting_tail,
)

__version__ = "0.1.0"
