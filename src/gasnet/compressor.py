"""Two-pipe compressor coupling for adiabatic-head and power control.

The residual stacks mass conservation, the adiabatic pressure-rise balance
(head control) or its power form, and, when the outlet runs the full Euler
model, equality of specific entropy across the machine.  For isentropic
outlets the entropy condition is absorbed by assigning the inlet entropy
to the outlet region, and the system reduces to two equations.

The determinant-sign diagnostics of :func:`proof_determinant` are computed
with the pressure-rise and entropy rows oriented as (control - balance)
and (s_outlet - s_inlet); the residual itself is reported with the
conventional orientation (balance - control, s_inlet - s_outlet).  Row
signs do not affect the solution, only the determinant's sign.

:class:`CompressorProblem` implements the coupling-problem protocol of
:mod:`gasnet.junction` (``traces``, unscaled ``residual`` and
``jacobian``, ``row_scales``, ``fd_floor``) on x = (sigma1, sigma2[, tau2]),
so the junction's Newton, ``coupling_residual``, ``coupling_jacobian``
and ``fd_jacobian`` serve it unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositiveDensity,
    NonPositiveFlux,
    NonPositivePressure,
    NotSubsonic,
    SubsonicViolation,
)
from .junction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Orientation,
    PipeSpec,
    StarSolution,
    _newton,
    coupling_jacobian,
)
from .laxcurves import M1_OUT, base_parameter, role_of, trace_eval
from .thermo import FlowRegime, GasConstants, classify_subsonic, sound_speed

ADIABATIC_HEAD = "CP1"
POWER = "CP2"


@dataclass(frozen=True)
class CompressorControl:
    """Either a prescribed adiabatic head H* (J/kg) or power P* (W).

    Power control carries the proportionality coefficient relating power
    to mass flux times head (P = cp_coeff * q * H).
    """

    kind: str
    value: float
    cp_coeff: float = None

    def __post_init__(self):
        if self.kind not in (ADIABATIC_HEAD, POWER):
            raise ValueError(f"control kind must be CP1 or CP2, got {self.kind!r}")
        if self.value < 0.0:
            raise ValueError("control value must be non-negative")
        if self.kind == POWER:
            if self.cp_coeff is None or not self.cp_coeff > 0.0:
                raise ValueError("power control needs a positive cp_coeff")


class CompressorProblem:
    """Compressor between an incoming and an outgoing pipe of equal area.

    Rows are mass, the pressure-rise balance minus the control and, for a
    full-Euler outlet, inlet-minus-outlet entropy.
    """

    def __init__(self, inlet, outlet, control: CompressorControl,
                 constants: GasConstants = None):
        g = constants if constants is not None else GasConstants()
        in_spec, in_state = inlet
        out_spec, out_state = outlet
        if in_spec.area != out_spec.area:
            raise ValueError("compressor pipes must have equal surface sections")
        if classify_subsonic(in_state, g) is not FlowRegime.D_MINUS:
            raise NotSubsonic("inlet state must have strictly negative subsonic velocity")
        if classify_subsonic(out_state, g) is not FlowRegime.D_PLUS:
            raise NotSubsonic("outlet state must have strictly positive subsonic velocity")
        if in_spec.orientation is Orientation.OUTGOING:
            raise ValueError("inlet pipe is oriented incoming")
        if out_spec.orientation is Orientation.INCOMING:
            raise ValueError("outlet pipe is oriented outgoing")
        self.constants = g
        self.inlet = (in_spec, in_state)
        self.outlet = (out_spec, out_state)
        self.control = control
        self.roles = (role_of(in_state.model, False), role_of(out_state.model, True))
        self.m1_outlet = self.roles[1] == M1_OUT
        self.dim = 3 if self.m1_outlet else 2
        self.idle = control.value == 0.0

        a = in_spec.area
        mass = a * (in_state.rho * sound_speed(in_state, g)
                    + out_state.rho * sound_speed(out_state, g))
        gamma = g.gamma
        C = gamma * g.R / (gamma - 1.0)
        T1 = trace_eval(self.roles[0], in_state, g,
                        base_parameter(self.roles[0], in_state, g)).T
        rise = C * T1
        if control.kind == POWER:
            rise *= control.cp_coeff * abs(in_state.q)
            C *= control.cp_coeff
        self._rise_coeff = C
        self.row_scales = np.array(
            (mass, max(abs(control.value), rise), gamma * g.cv)[:self.dim])
        self.fd_floor = np.array((1e-6, 1e-6, out_state.rho)[:self.dim])

    def base_parameters(self):
        g = self.constants
        return np.array([
            base_parameter(self.roles[0], self.inlet[1], g),
            base_parameter(self.roles[1], self.outlet[1], g),
        ]), (np.zeros(1) if self.m1_outlet else np.zeros(0))

    def traces(self, x):
        g = self.constants
        tau2 = x[2] if self.m1_outlet else 0.0
        return (trace_eval(self.roles[0], self.inlet[1], g, x[0]),
                trace_eval(self.roles[1], self.outlet[1], g, x[1], tau2))

    def residual(self, traces):
        """Mass, pressure-rise balance minus control, and (full-Euler
        outlets only) inlet-minus-outlet entropy."""
        t1, t2 = traces
        g = self.constants
        e = (g.gamma - 1.0) / g.gamma
        rise = self._rise_coeff * t1.T * ((t2.p / t1.p)**e - 1.0)
        if self.control.kind == POWER:
            if t2.q <= 0.0:
                raise NonPositiveFlux(f"power balance evaluated at outlet flux {t2.q:g}")
            rise *= t2.q
        out = np.empty(self.dim)
        out[0] = t1.q + t2.q
        out[1] = rise - self.control.value
        if self.m1_outlet:
            out[2] = t1.s - t2.s
        return out

    def jacobian(self, traces):
        """Closed-form derivative w.r.t. (sigma1, sigma2[, tau2])."""
        t1, t2 = traces
        g = self.constants
        e = (g.gamma - 1.0) / g.gamma
        C = self._rise_coeff
        re = (t2.p / t1.p)**e
        power = self.control.kind == POWER
        J = np.zeros((self.dim, self.dim))
        J[0, 0] = t1.dq_dsigma
        J[0, 1] = t2.dq_dsigma

        # d/dsigma1 of T1*((p2/p1)^e - 1); the ratio term pulls in -dp1/p1
        base2 = C * (t1.dT_dsigma * (re - 1.0)
                     - t1.T * e * re * t1.dp_dsigma / t1.p)
        dsig2 = C * t1.T * e * re * t2.dp_dsigma / t2.p
        rise = C * t1.T * (re - 1.0)
        if power:
            J[1, 0] = t2.q * base2
            J[1, 1] = t2.dq_dsigma * rise + t2.q * dsig2
        else:
            J[1, 0] = base2
            J[1, 1] = dsig2
        if self.m1_outlet:
            J[0, 2] = t2.dq_dtau
            dtau2 = C * t1.T * e * re * t2.dp_dtau / t2.p
            J[1, 2] = t2.dq_dtau * rise + t2.q * dtau2 if power else dtau2
            J[2, 0] = t1.ds_dsigma
            J[2, 1] = -t2.ds_dsigma
            J[2, 2] = -t2.ds_dtau
        return J


def proof_determinant(problem: CompressorProblem, params=None):
    """Base-point Jacobian determinant in the orientation used by the
    regularity argument: rows (mass, control - balance, s2 - s1)."""
    if params is None:
        params = np.concatenate(problem.base_parameters())
    J = coupling_jacobian(problem, params)
    J[1] = -J[1]
    if problem.m1_outlet:
        J[2] = -J[2]
    return float(np.linalg.det(J))


def solve_compressor(problem: CompressorProblem, tol=DEFAULT_TOL,
                     max_iter=DEFAULT_MAX_ITER) -> StarSolution:
    """Solve the compressor coupling for both trace star states.

    For isentropic outlets the realized inlet entropy is recorded as the
    outlet's entropy assignment (``extras['assigned_kappa']``).  Idle
    controls (value 0) are accepted and flagged in
    ``extras['idle_control']``.
    """
    g = problem.constants
    x, (t1, t2), res, it = _newton(problem, tol, max_iter,
                                   (NonPositiveDensity, NonPositivePressure, NonPositiveFlux))

    if classify_subsonic(t1.state, g) is not FlowRegime.D_MINUS:
        raise SubsonicViolation("inlet star state left the incoming subsonic set")
    if classify_subsonic(t2.state, g) is not FlowRegime.D_PLUS:
        raise SubsonicViolation("outlet star state left the outgoing subsonic set")

    e = (g.gamma - 1.0) / g.gamma
    head = g.gamma * g.R / (g.gamma - 1.0) * t1.T * ((t2.p / t1.p) ** e - 1.0)
    extras = {
        "pressure_ratio": t2.p / t1.p,
        "head": head,
        "idle_control": problem.idle,
        "assigned_kappa": {},
    }
    if problem.control.kind == POWER:
        extras["power"] = problem.control.cp_coeff * t2.q * head
    s_star = t1.s
    if not problem.m1_outlet:
        extras["assigned_kappa"][problem.outlet[0].id] = g.kappa_from_entropy(s_star)

    tau2 = float(x[2]) if problem.m1_outlet else None
    return StarSolution(
        star_states=(t1.state, t2.state),
        sigma=(float(x[0]), float(x[1])),
        tau=(None, tau2),
        h_star=None,
        s_star=s_star,
        residual_norm=float(res),
        iterations=it,
        extras=extras,
    )
