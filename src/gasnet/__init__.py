"""Gas-network junction solvers: exact Riemann solutions for a three-model
hierarchy, entropy-preserving junction and compressor coupling, and a
wave-front-tracking simulator with Glimm-functional diagnostics."""

from .errors import (
    EventBudgetExhausted,
    FlowReversal,
    GasnetError,
    NoConvergence,
    NonPositiveDensity,
    NonPositiveFlux,
    NonPositivePressure,
    NotSubsonic,
    OneSidedJunction,
    ScenarioParseError,
    ScenarioValidationError,
    SingularEntropyMix,
    SingularJacobian,
    SubsonicViolation,
    VacuumFormation,
)
from .thermo import (
    FlowRegime,
    GasConstants,
    Model,
    PipeState,
    classify_subsonic,
    eigenvalues,
    iso_state,
    m1_state,
    pressure,
    sound_speed,
    temperature,
    thermo_quantities,
    total_energy,
)

__version__ = "0.1.0"
