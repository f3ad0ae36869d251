"""Exception types raised by the solvers and the scenario front end."""


class GasnetError(Exception):
    """Base class for all errors raised by this package."""


class NonPositivePressure(GasnetError):
    """The equation of state produced a pressure <= 0."""


class NonPositiveDensity(GasnetError):
    """A curve evaluation or state update drove the density to <= 0."""


class NonPositiveFlux(GasnetError):
    """A compressor power balance was evaluated at mass flux <= 0."""


class NotSubsonic(GasnetError):
    """A state required to lie in the subsonic region does not."""


class VacuumFormation(GasnetError):
    """The Riemann data admit no positive-density solution."""


class NoConvergence(GasnetError):
    """An iterative solve exhausted its budget above tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularEntropyMix(GasnetError):
    """The incoming mass flux sum in the entropy mix is numerically zero."""


class SingularJacobian(GasnetError):
    """A coupling Newton step met an exact zero divisor: the Jacobian is singular."""


class OneSidedJunction(GasnetError, ValueError):
    """Every pipe at a junction flows into it, or every pipe out of it:
    the data form no coupling problem.  It is a ValueError too, for
    callers that pass such data directly."""


class FlowReversal(GasnetError):
    """A pipe's flow at the junction runs against the side it had when the
    coupling problem was built: an incoming pipe now flows out, or an
    outgoing one in, while both sides keep a pipe.  A tracked run fixes
    every pipe's side at t = 0, where the coupling conditions (equal total
    enthalpy, the entropy mix of the incoming pipes) and K_J rest on it;
    the paper's well-posedness holds near stationary subsonic states,
    where the sides do not change.  The message names the pipe and its
    side."""


class SubsonicViolation(GasnetError):
    """A solver produced a state outside the admissible subsonic sets."""


class EventBudgetExhausted(GasnetError):
    """The event loop used up its max_events budget before the horizon."""

    def __init__(self, message, time=None, events=None, live_fronts=None):
        super().__init__(message)
        self.time = time
        self.events = events
        self.live_fronts = live_fronts


class ScenarioParseError(GasnetError):
    """The scenario document is not well-formed."""


class ScenarioValidationError(GasnetError):
    """One or more scenario fields violate the schema invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
