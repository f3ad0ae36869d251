"""Wave curves of M1/M2/M3 and the junction traces on them.

One rule per model: :func:`curve_parameter` is pressure for the full
Euler acoustic families and density for the isentropic ones (the M1
contact is parameterized by the density shift tau), :func:`curve_point`
is the state at a parameter and :func:`fan_edge_speed` the speed that
bounds a rarefaction fan.  Riemann solves and fan samples, the tracker's
steps and the coupling solvers all read their waves off these curves.

The coupling solvers express every junction trace as a point on a wave
curve through the pipe's initial state:

* incoming full-Euler pipes:   U*(sigma)      on the fast acoustic curve,
* outgoing full-Euler pipes:   U*(sigma, tau) fast acoustic curve followed
                               by the contact shift tau,
* isentropic pipes (both):     U*(sigma)      on the outbound curve.

:func:`trace_eval` gives the trace quantities (q, h, s, p, T) and their
exact parameter derivatives on both the shock and rarefaction branches.
"""

from math import log
from typing import NamedTuple

from . import kernels
from .errors import NonPositiveDensity
from .thermo import M1, M2, M3, GasConstants, Model, PipeState, edge_eigenvalue, m1_state, pressure

# Roles a pipe can play in the coupling parameterization.
M1_OUT = "M1_out"
M1_IN = "M1_in"
ISO = "iso_in_or_out"


def role_of(model: Model, outgoing: bool):
    if model is M1:
        return M1_OUT if outgoing else M1_IN
    return ISO


def lax_m1(family, param, base: PipeState, g: GasConstants):
    """Point on the family-1/2/3 wave curve through an M1 base state.

    Families 1 and 3 are parameterized by the pressure ``sigma`` of the
    connected state; family 2 by the density shift ``tau`` along the
    contact.
    """
    gamma = g.gamma
    if family == 2:
        tau = param
        rho = base.rho + tau
        if rho <= 0.0:
            raise NonPositiveDensity(f"contact shift tau={tau} from rho={base.rho}")
        u = base.u
        return PipeState(M1, rho, base.q + tau * u, E=base.E + 0.5 * tau * u * u)
    sigma = param
    p_k = pressure(base, g)
    rho = kernels.phi(sigma, p_k, base.rho, gamma)
    dpsi = kernels.psi(sigma, p_k, base.rho, gamma)
    return m1_state(rho, base.u - dpsi if family == 1 else base.u + dpsi, sigma, g)


def lax_iso(family, sigma, base: PipeState, g: GasConstants):
    """Point on the family-1/2 wave curve through an M2 or M3 base state, in its model."""
    gamma = g.gamma
    if base.model is M2:
        inc = kernels.theta2(sigma, base.rho, base.kappa, gamma)
        q = base.u * sigma - inc if family == 1 else base.u * sigma + inc
    elif base.model is M3:
        inc = kernels.theta3(sigma, base.rho, base.kappa, gamma)
        q = base.q - inc if family == 1 else base.q + inc
    else:
        raise ValueError("lax_iso handles M2/M3 only")
    return PipeState(base.model, sigma, q, kappa=base.kappa)


def curve_parameter(family, state: PipeState, g: GasConstants):
    """Parameter of ``state`` on a family's wave curve: pressure for the
    full Euler acoustic families, density otherwise."""
    if state.model is M1 and family != 2:
        return pressure(state, g)
    return state.rho


def curve_point(family, param, data: PipeState, g: GasConstants):
    """Point at ``param`` on the family's wave curve through ``data``
    (:func:`lax_m1` or :func:`lax_iso`)."""
    return (lax_m1 if data.model is M1 else lax_iso)(family, param, data, g)


def fan_edge_speed(family, state: PipeState, g: GasConstants):
    """Characteristic speed of an acoustic family at ``state``: the
    slowest for family 1, the fastest for the right-going family."""
    return edge_eigenvalue(state, g, family != 1)


class TraceEval(NamedTuple):
    """Trace quantities and exact parameter derivatives at (sigma, tau)."""

    state: PipeState
    q: float
    h: float
    s: float
    p: float
    T: float
    dq_dsigma: float
    dh_dsigma: float
    ds_dsigma: float
    dp_dsigma: float
    dT_dsigma: float
    dq_dtau: float = 0.0
    dh_dtau: float = 0.0
    ds_dtau: float = 0.0
    dp_dtau: float = 0.0


def trace_eval(role, base: PipeState, g: GasConstants, sigma, tau=0.0) -> TraceEval:
    """Evaluate the junction trace of one pipe and its derivatives.

    Derivatives are exact on both branches (the chain rule applied to
    phi/psi/theta), not just the base-point forms.
    """
    gamma = g.gamma
    cv = g.cv
    if sigma <= 0.0:
        raise NonPositiveDensity(f"curve parameter sigma={sigma}")

    if role == ISO:
        kappa = base.kappa
        state = lax_iso(2, sigma, base, g)
        q = state.q
        p = kappa * sigma**gamma
        dp = kappa * gamma * sigma ** (gamma - 1.0)
        T = p / (g.R * sigma)
        dT = (gamma - 1.0) * kappa * sigma ** (gamma - 2.0) / g.R
        s = g.entropy_from_kappa(kappa)
        h = kappa * gamma * sigma ** (gamma - 1.0) / (gamma - 1.0)
        dh = kappa * gamma * sigma ** (gamma - 2.0)
        if base.model is M2:
            dq = base.u + kernels.dtheta2(sigma, base.rho, kappa, gamma)
            u = q / sigma
            du = (dq * sigma - q) / sigma**2
            h += 0.5 * u * u
            dh += u * du
        else:
            dq = kernels.dtheta3(sigma, base.rho, kappa, gamma)
        return TraceEval(state, q, h, s, p, T, dq, dh, 0.0, dp, dT)

    # Full Euler: fast acoustic curve from the data, then (outgoing only)
    # the contact shift.  Pressure after the contact equals sigma.
    p_k = pressure(base, g)
    rho_v = kernels.phi(sigma, p_k, base.rho, gamma)
    drho_v = kernels.dphi(sigma, p_k, base.rho, gamma)
    psi_v = kernels.psi(sigma, p_k, base.rho, gamma)
    dpsi_v = kernels.dpsi(sigma, p_k, base.rho, gamma)
    u = base.u + psi_v

    if role == M1_IN:
        rho = rho_v
        drho = drho_v
        dq_dtau = dh_dtau = ds_dtau = 0.0
        tau = 0.0
    elif role == M1_OUT:
        rho = rho_v + tau
        if rho <= 0.0:
            raise NonPositiveDensity(f"contact shift tau={tau} from rho={rho_v}")
        drho = drho_v
        dq_dtau = u
        dh_dtau = -gamma * sigma / ((gamma - 1.0) * rho**2)
        ds_dtau = -gamma * cv / rho
    else:
        raise ValueError(f"unknown pipe role {role!r}")

    q = rho * u
    dq = drho * u + rho * dpsi_v
    h = gamma * sigma / ((gamma - 1.0) * rho) + 0.5 * u * u
    dh = gamma / (gamma - 1.0) * (rho - sigma * drho) / rho**2 + u * dpsi_v
    s = cv * log(sigma / rho**gamma) + g.s0
    ds = cv * (1.0 / sigma - gamma * drho / rho)
    T = sigma / (g.R * rho)
    dT = (rho - sigma * drho) / (g.R * rho**2)
    state = m1_state(rho, u, sigma, g)
    return TraceEval(state, q, h, s, sigma, T, dq, dh, ds, 1.0, dT, dq_dtau, dh_dtau, ds_dtau)
