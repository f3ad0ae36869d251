"""Gas constants, model-tagged states, and derived thermodynamic quantities.

Three one-dimensional transport models are supported, in decreasing
fidelity:

* ``M1``   full polytropic Euler equations in (rho, q, E),
* ``M2``   isentropic Euler equations in (rho, q) with p = kappa*rho^gamma,
* ``M3``   the low-velocity simplification of M2 whose momentum flux keeps
           only the pressure term.

For the isentropic models the coefficient kappa acts as the equation of
state; we report their specific entropy as s = cv*ln(kappa) + s0, which
inverts kappa = exp((s - s0)/cv) exactly and makes entropy comparisons
uniform across the hierarchy.
"""

from enum import Enum
from math import inf, log, sqrt
from typing import NamedTuple

from .errors import NonPositivePressure


class Model(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


# the members as module constants: on Python 3.11 ``EnumType.__getattr__``
# sends every ``Model.M1`` through the metaclass's slow attribute path
M1, M2, M3 = Model.M1, Model.M2, Model.M3


class FlowRegime(Enum):
    """Subsonic classification: strictly positive, strictly negative, or neither."""

    D_PLUS = "D+"
    D_MINUS = "D-"
    NOT_SUBSONIC = "not-subsonic"


class _Checked:
    """First base of a named tuple whose ``__new__`` checks its fields:
    ``_make``, and ``_replace``, which copies through it, check too."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class _GasConstantsFields(NamedTuple):
    gamma: float
    R: float
    s0: float


class GasConstants(_Checked, _GasConstantsFields):
    """Adiabatic exponent, specific gas constant, and reference entropy.

    The specific heats follow from gamma and R:  cv = R/(gamma-1),
    cp = gamma*cv, so R = cp - cv and gamma = cp/cv hold by construction.
    """

    __slots__ = ()

    def __new__(cls, gamma=1.4, R=287.0, s0=0.0):
        if not gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        if not R > 0.0:
            raise ValueError(f"R must be positive, got {R}")
        if not s0 >= 0.0:
            raise ValueError(f"s0 must be non-negative, got {s0}")
        if inf in (gamma, R, s0):
            raise ValueError(f"gas constants must be finite, got gamma={gamma}, R={R}, s0={s0}")
        return tuple.__new__(cls, (gamma, R, s0))

    @property
    def cv(self):
        return self.R / (self.gamma - 1.0)

    @property
    def cp(self):
        return self.gamma * self.R / (self.gamma - 1.0)

    def entropy_from_kappa(self, kappa):
        return self.cv * log(kappa) + self.s0


class _PipeStateFields(NamedTuple):
    model: Model
    rho: float
    q: float
    E: float
    kappa: float


class PipeState(_Checked, _PipeStateFields):
    """Conservative state of one pipe cross-section.

    ``E`` is required for M1 and must be absent otherwise; ``kappa`` is
    required for M2/M3 and must be absent for M1.  Positivity of the M1
    internal energy is *not* enforced here but at evaluation time, where
    :func:`pressure` raises :class:`NonPositivePressure`.
    """

    __slots__ = ()

    def __new__(cls, model, rho, q, E=None, kappa=None):
        if not rho > 0.0:
            raise ValueError(f"density must be positive, got {rho}")
        if model is M1:
            if E is None:
                raise ValueError("M1 states carry a total energy density E")
            if kappa is not None:
                raise ValueError("M1 states do not carry kappa")
        else:
            if kappa is None:
                raise ValueError(f"{model.value} states carry kappa")
            if not kappa > 0.0:
                raise ValueError(f"kappa must be positive, got {kappa}")
            if E is not None:
                raise ValueError(f"{model.value} states do not carry E")
        return tuple.__new__(cls, (model, rho, q, E, kappa))

    @property
    def u(self):
        return self.q / self.rho


def m1_state(rho, u, p, g: GasConstants):
    """Build an M1 state from primitive variables."""
    if not p > 0.0:
        raise NonPositivePressure(f"pressure must be positive, got {p}")
    E = p / (g.gamma - 1.0) + 0.5 * rho * u * u
    return PipeState(M1, rho, rho * u, E=E)


def iso_state(model, rho, u, kappa):
    """Build an M2 or M3 state from primitive variables."""
    if model is M1:
        raise ValueError("use m1_state for the full Euler model")
    return PipeState(model, rho, rho * u, kappa=kappa)


def pressure(state: PipeState, g: GasConstants):
    """Pressure from the model's equation of state."""
    if state.model is M1:
        p = (g.gamma - 1.0) * (state.E - 0.5 * state.q * state.q / state.rho)
        if p <= 0.0:
            raise NonPositivePressure(
                f"state (rho={state.rho}, q={state.q}, E={state.E}) has p={p}"
            )
        return p
    return state.kappa * state.rho**g.gamma


class ThermoQuantities(NamedTuple):
    s: float
    h: float
    c: float


def thermo_quantities(state: PipeState, g: GasConstants) -> ThermoQuantities:
    """Specific entropy, total enthalpy, and sound speed of a state."""
    gamma = g.gamma
    if state.model is M1:
        p = pressure(state, g)
        s = g.cv * log(p / state.rho**gamma) + g.s0
        h = (state.E + p) / state.rho
        c = sqrt(gamma * p / state.rho)
        return ThermoQuantities(s, h, c)
    s = g.entropy_from_kappa(state.kappa)
    c = sqrt(state.kappa * gamma * state.rho ** (gamma - 1.0))
    h = state.kappa * gamma * state.rho ** (gamma - 1.0) / (gamma - 1.0)
    if state.model is M2:
        h += 0.5 * state.u**2
    return ThermoQuantities(s, h, c)


def sound_speed(state: PipeState, g: GasConstants):
    if state.model is M1:
        return sqrt(g.gamma * pressure(state, g) / state.rho)
    return sqrt(state.kappa * g.gamma * state.rho ** (g.gamma - 1.0))


def total_energy(state: PipeState, g: GasConstants):
    """Total energy density; for M2 the kinetic part is kept, for M3 dropped."""
    if state.model is M1:
        return state.E
    E = state.kappa * state.rho**g.gamma / (g.gamma - 1.0)
    if state.model is M2:
        E += 0.5 * state.q * state.u
    return E


def temperature(state: PipeState, g: GasConstants):
    return pressure(state, g) / (g.R * state.rho)


def edge_eigenvalue(state: PipeState, g: GasConstants, fastest):
    """The fastest characteristic speed if ``fastest``, else the slowest:
    u + c or u - c, and c or -c for M3, whose waves are not carried by
    the flow."""
    c = sound_speed(state, g)
    if state.model is M3:
        return c if fastest else -c
    return state.u + c if fastest else state.u - c


def eigenvalues(state: PipeState, g: GasConstants):
    """Characteristic speeds, ordered; a 3-tuple for M1, a 2-tuple
    otherwise: the two edge eigenvalues, with the M1 contact speed u
    between them."""
    slowest, fastest = edge_eigenvalue(state, g, False), edge_eigenvalue(state, g, True)
    if state.model is M1:
        return (slowest, state.u, fastest)
    return (slowest, fastest)


def classify_subsonic(state: PipeState, g: GasConstants) -> FlowRegime:
    """Strict subsonic classification; u = 0 and |u| >= c are excluded."""
    c = sound_speed(state, g)
    u = state.u
    if 0.0 < u < c:
        return FlowRegime.D_PLUS
    if -c < u < 0.0:
        return FlowRegime.D_MINUS
    return FlowRegime.NOT_SUBSONIC
