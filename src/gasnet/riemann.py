"""Exact single-pipe Riemann solvers and self-similar sampling.

The star parameter is found by a bracket-guarded Newton iteration on the
scalar wave-curve equation of each model (pressure for full Euler, density
for the isentropic pair).  Solutions carry the elementary waves as
explicit records so that callers can sample the self-similar profile or
slice rarefaction fans into fronts.

Tie-breaking: a similarity coordinate xi that falls exactly on a shock,
contact, or fan edge resolves to the right-limit state.
"""

from bisect import bisect_left
from dataclasses import dataclass

from . import kernels
from .laxcurves import curve_parameter, curve_point, fan_edge_speed
from .thermo import GasConstants, Model, PipeState, iso_state, m1_state, pressure, sound_speed

SHOCK = "shock"
RAREFACTION = "rarefaction"
CONTACT = "contact"


@dataclass(frozen=True)
class Wave:
    """One elementary wave: family, type, adjacent states, and speeds.

    ``speeds`` is (s,) for shocks and contacts and (head, tail) for
    rarefaction fans, ordered left edge first.  ``strength`` is the signed
    jump of the curve parameter; positive values are shocks.
    """

    family: int
    kind: str
    left: PipeState
    right: PipeState
    speeds: tuple
    strength: float

    @property
    def leftmost_speed(self):
        return self.speeds[0]

    @property
    def rightmost_speed(self):
        return self.speeds[-1]


@dataclass(frozen=True)
class RiemannSolutionM1:
    p_star: float
    u_star: float
    rho_l_star: float
    rho_r_star: float
    waves: tuple
    residual: float
    iterations: int


@dataclass(frozen=True)
class RiemannSolutionIso:
    rho_star: float
    q_star: float
    waves: tuple
    residual: float
    iterations: int


def _shock(strength, data: PipeState, star: PipeState):
    """Whether an acoustic jump from ``data`` to ``star`` of signed
    ``strength`` (positive on the compressive side) is a shock.  A
    pressure rise of a few ulps can leave the star density equal to the
    data density; that jump has no shock speed and is taken as a
    (vanishing) rarefaction."""
    return strength > 0.0 and star.rho != data.rho


def _acoustic_wave(family, data: PipeState, star: PipeState, param_star, g):
    """The family-1 wave from pipe data to its star state, or the
    right-going wave (family 3 of M1, family 2 of M2/M3) from the star
    state to the data.  ``param_star`` is the star's curve parameter,
    pressure for M1 and density otherwise; the strength is its jump over
    the data's."""
    strength = param_star - curve_parameter(family, data, g)
    shock = _shock(strength, data, star)
    left, right = (data, star) if family == 1 else (star, data)
    if shock:
        speeds = ((right.q - left.q) / (right.rho - left.rho),)
    else:
        speeds = (fan_edge_speed(family, left, g), fan_edge_speed(family, right, g))
    return Wave(family, SHOCK if shock else RAREFACTION, left, right, speeds, strength)


def solve_riemann_m1(UL: PipeState, UR: PipeState, g: GasConstants) -> RiemannSolutionM1:
    """Exact solution of the full Euler Riemann problem.

    Raises ``VacuumFormation`` for data that admit no positive-density
    solution and ``NoConvergence`` when the star solve fails.
    """
    gamma = g.gamma
    p_l, p_r = pressure(UL, g), pressure(UR, g)
    p_star, res, it = kernels.solve_p_star_m1(UL.rho, UL.u, p_l, UR.rho, UR.u, p_r, gamma)
    u_star = UL.u - kernels.psi(p_star, p_l, UL.rho, gamma)
    rho_l_star = kernels.phi(p_star, p_l, UL.rho, gamma)
    rho_r_star = kernels.phi(p_star, p_r, UR.rho, gamma)
    left_star = PipeState(Model.M1, rho_l_star, rho_l_star * u_star,
                          E=p_star / (gamma - 1.0) + 0.5 * rho_l_star * u_star**2)
    right_star = PipeState(Model.M1, rho_r_star, rho_r_star * u_star,
                           E=p_star / (gamma - 1.0) + 0.5 * rho_r_star * u_star**2)
    waves = (
        _acoustic_wave(1, UL, left_star, p_star, g),
        Wave(2, CONTACT, left_star, right_star, (u_star,), rho_r_star - rho_l_star),
        _acoustic_wave(3, UR, right_star, p_star, g),
    )
    return RiemannSolutionM1(p_star, u_star, rho_l_star, rho_r_star, waves, res, it)


def solve_riemann_iso(UL: PipeState, UR: PipeState, g: GasConstants) -> RiemannSolutionIso:
    """Exact solution of the isentropic Riemann problem, in the model
    (M2 or M3) that both states carry.

    Raises ``ValueError`` for full Euler or mixed-model data or unequal
    kappa, ``VacuumFormation`` and ``NoConvergence`` as solve_riemann_m1.
    """
    model = UL.model
    if UR.model is not model:
        raise ValueError(f"Riemann data mix models {model.value} and {UR.model.value}")
    if model is Model.M1:
        raise ValueError("use solve_riemann_m1 for the full Euler model")
    if UL.kappa != UR.kappa:
        raise ValueError("isentropic Riemann data must share kappa")
    gamma, kappa = g.gamma, UL.kappa
    if model is Model.M2:
        rho_star, res, it = kernels.solve_rho_star_m2(UL.rho, UL.u, UR.rho, UR.u, kappa, gamma)
    else:
        rho_star, res, it = kernels.solve_rho_star_m3(UL.rho, UL.q, UR.rho, UR.q, kappa, gamma)
    star = curve_point(1, rho_star, UL, g)
    waves = (
        _acoustic_wave(1, UL, star, rho_star, g),
        _acoustic_wave(2, UR, star, rho_star, g),
    )
    return RiemannSolutionIso(rho_star, star.q, waves, res, it)


def fan_state(wave: Wave, xi, g: GasConstants) -> PipeState:
    """State inside a rarefaction fan at similarity coordinate xi.

    The Riemann invariant of the crossing family and (M1) the entropy of
    the data-side state are constant through the fan, which gives closed
    forms for c and u in terms of xi.
    """
    if wave.kind != RAREFACTION:
        raise ValueError("fan_state needs a rarefaction wave")
    gamma = g.gamma
    model = wave.left.model
    kappa = wave.left.kappa
    anchor = wave.left if wave.family == 1 else wave.right
    if model is Model.M3:
        # the characteristic speed is +-c, so xi pins the density directly
        c = -xi if wave.family == 1 else xi
        rho = (c * c / (kappa * gamma)) ** (1.0 / (gamma - 1.0))
        theta = kernels.theta3(rho, anchor.rho, kappa, gamma)
        q = anchor.q - theta if wave.family == 1 else anchor.q + theta
        return PipeState(Model.M3, rho, q, kappa=kappa)
    c_a = sound_speed(anchor, g)
    if wave.family == 1:
        c = ((gamma - 1.0) * (anchor.u - xi) + 2.0 * c_a) / (gamma + 1.0)
        u = xi + c
    else:
        c = ((gamma - 1.0) * (xi - anchor.u) + 2.0 * c_a) / (gamma + 1.0)
        u = xi - c
    if model is Model.M2:
        rho = (c * c / (kappa * gamma)) ** (1.0 / (gamma - 1.0))
        return iso_state(Model.M2, rho, u, kappa)
    rho = anchor.rho * (c / c_a) ** (2.0 / (gamma - 1.0))
    p = pressure(anchor, g) * (c / c_a) ** (2.0 * gamma / (gamma - 1.0))
    return m1_state(rho, u, p, g)


def sample_waves(waves, left_data: PipeState, right_data: PipeState, xis, g: GasConstants):
    """Sample a left-to-right list of waves at the ascending x/t values
    ``xis``, as runs ``[(state, count), ...]`` that expand to one state
    per point.

    A point at a wave's leftmost speed lies right of it, past a shock or
    contact and inside a fan.  Each constant region is one run of the
    ``left_data``, ``wave.right`` or ``right_data`` object itself, found
    by bisecting the wave speeds; each point inside a fan is a run of 1.
    """
    runs = []
    start = 0
    state = left_data
    for wave in waves:
        lo = max(start, bisect_left(xis, wave.leftmost_speed))
        hi = lo
        if wave.kind == RAREFACTION:
            hi = max(lo, bisect_left(xis, wave.rightmost_speed))
        if lo > start:
            runs.append((state, lo - start))
        runs += [(fan_state(wave, xis[i], g), 1) for i in range(lo, hi)]
        start = hi
        state = wave.right
    if len(xis) > start:
        runs.append((right_data, len(xis) - start))
    return runs
