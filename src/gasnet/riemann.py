"""Exact single-pipe Riemann solvers and self-similar sampling.

The star parameter is found by a bracket-guarded Newton iteration on the
scalar wave-curve equation of each model (pressure for full Euler, density
for the isentropic pair).  Solutions carry the elementary waves as
explicit records so that callers can sample the self-similar profile or
slice rarefaction fans into fronts.

Tie-breaking: a similarity coordinate xi that falls exactly on a shock,
contact, or fan edge resolves to the right-limit state.
"""

from dataclasses import dataclass

from . import kernels
from .errors import NoConvergence, VacuumFormation
from .thermo import GasConstants, Model, PipeState, pressure, sound_speed

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

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
    E_l_star: float
    E_r_star: float
    waves: tuple
    residual: float
    iterations: int

    @property
    def left_star(self):
        return self.waves[0].right

    @property
    def right_star(self):
        return self.waves[2].left


@dataclass(frozen=True)
class RiemannSolutionIso:
    rho_star: float
    q_star: float
    waves: tuple
    residual: float
    iterations: int

    @property
    def star(self):
        return self.waves[0].right


def _finish(value, it, residual_fn, tol, what):
    if it == -2:
        raise VacuumFormation(f"{what}: data admit no positive-density solution")
    res = abs(residual_fn(value))
    if it == -1 and res > tol:
        raise NoConvergence(f"{what}: residual {res:g} above tol {tol:g}",
                            residual=res, iterations=it)
    return value, res


def _acoustic_wave_m1(family, data: PipeState, star: PipeState, p_star, g):
    """Family-1 or family-3 wave between pipe data and its star state."""
    p_data = pressure(data, g)
    c_data = sound_speed(data, g)
    c_star = sound_speed(star, g)
    if family == 1:
        left, right = data, star
        strength = p_star - p_data
        if p_star > p_data:
            speeds = ((star.q - data.q) / (star.rho - data.rho),)
        else:
            speeds = (data.u - c_data, star.u - c_star)
    else:
        left, right = star, data
        strength = p_star - p_data
        if p_star > p_data:
            speeds = ((data.q - star.q) / (data.rho - star.rho),)
        else:
            speeds = (star.u + c_star, data.u + c_data)
    kind = SHOCK if p_star > p_data else RAREFACTION
    return Wave(family, kind, left, right, speeds, strength)


def solve_riemann_m1(UL: PipeState, UR: PipeState, g: GasConstants,
                     tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> RiemannSolutionM1:
    """Exact solution of the full Euler Riemann problem."""
    gamma = g.gamma
    p_l, p_r = pressure(UL, g), pressure(UR, g)
    u_l, u_r = UL.u, UR.u
    p_star, it = kernels.solve_p_star_m1(
        UL.rho, u_l, p_l, UR.rho, u_r, p_r, gamma, tol, max_iter)

    def residual(p):
        return (kernels.psi(p, p_l, UL.rho, gamma)
                + kernels.psi(p, p_r, UR.rho, gamma) + (u_r - u_l))

    p_star, res = _finish(p_star, it, residual, tol, "full Euler Riemann solve")
    u_star = u_l - kernels.psi(p_star, p_l, UL.rho, gamma)
    rho_l_star = kernels.phi(p_star, p_l, UL.rho, gamma)
    rho_r_star = kernels.phi(p_star, p_r, UR.rho, gamma)
    E_l_star = p_star / (gamma - 1.0) + 0.5 * rho_l_star * u_star**2
    E_r_star = p_star / (gamma - 1.0) + 0.5 * rho_r_star * u_star**2
    left_star = PipeState(Model.M1, rho_l_star, rho_l_star * u_star, E=E_l_star)
    right_star = PipeState(Model.M1, rho_r_star, rho_r_star * u_star, E=E_r_star)
    waves = (
        _acoustic_wave_m1(1, UL, left_star, p_star, g),
        Wave(2, CONTACT, left_star, right_star, (u_star,), rho_r_star - rho_l_star),
        _acoustic_wave_m1(3, UR, right_star, p_star, g),
    )
    return RiemannSolutionM1(p_star, u_star, rho_l_star, rho_r_star,
                             E_l_star, E_r_star, waves, res, max(it, 0))


def _acoustic_wave_iso(family, data: PipeState, star: PipeState, g):
    c_data = sound_speed(data, g)
    c_star = sound_speed(star, g)
    shock = star.rho > data.rho
    if family == 1:
        left, right = data, star
        lam_d = data.u - c_data if data.model is Model.M2 else -c_data
        lam_s = star.u - c_star if star.model is Model.M2 else -c_star
        speeds = ((star.q - data.q) / (star.rho - data.rho),) if shock else (lam_d, lam_s)
    else:
        left, right = star, data
        lam_d = data.u + c_data if data.model is Model.M2 else c_data
        lam_s = star.u + c_star if star.model is Model.M2 else c_star
        speeds = ((data.q - star.q) / (data.rho - star.rho),) if shock else (lam_s, lam_d)
    return Wave(family, SHOCK if shock else RAREFACTION, left, right,
                speeds, star.rho - data.rho)


def solve_riemann_iso(UL: PipeState, UR: PipeState, model: Model, g: GasConstants,
                      tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> RiemannSolutionIso:
    """Exact solution of the isentropic Riemann problem (M2 or M3)."""
    if model is Model.M1:
        raise ValueError("use solve_riemann_m1 for the full Euler model")
    if UL.kappa != UR.kappa:
        raise ValueError("isentropic Riemann data must share kappa")
    gamma = g.gamma
    kappa = UL.kappa
    if model is Model.M2:
        rho_star, it = kernels.solve_rho_star_m2(
            UL.rho, UL.u, UR.rho, UR.u, kappa, gamma, tol, max_iter)

        def residual(rho):
            return ((UL.u - UR.u) * rho
                    - kernels.theta2(rho, UL.rho, kappa, gamma)
                    - kernels.theta2(rho, UR.rho, kappa, gamma))

        rho_star, res = _finish(rho_star, it, residual, tol, "isentropic Riemann solve")
        q_star = UL.u * rho_star - kernels.theta2(rho_star, UL.rho, kappa, gamma)
    else:
        rho_star, it = kernels.solve_rho_star_m3(
            UL.rho, UL.q, UR.rho, UR.q, kappa, gamma, tol, max_iter)

        def residual(rho):
            return ((UL.q - UR.q)
                    - kernels.theta3(rho, UL.rho, kappa, gamma)
                    - kernels.theta3(rho, UR.rho, kappa, gamma))

        rho_star, res = _finish(rho_star, it, residual, tol, "low-velocity Riemann solve")
        q_star = UL.q - kernels.theta3(rho_star, UL.rho, kappa, gamma)
    star = PipeState(model, rho_star, q_star, kappa=kappa)
    waves = (
        _acoustic_wave_iso(1, UL, star, g),
        _acoustic_wave_iso(2, UR, star, g),
    )
    return RiemannSolutionIso(rho_star, q_star, waves, res, max(it, 0))


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
    if model is Model.M1:
        anchor = wave.left if wave.family == 1 else wave.right
        c_a = sound_speed(anchor, g)
        p_a = pressure(anchor, g)
        if wave.family == 1:
            c = ((gamma - 1.0) * (anchor.u - xi) + 2.0 * c_a) / (gamma + 1.0)
            u = xi + c
        else:
            c = ((gamma - 1.0) * (xi - anchor.u) + 2.0 * c_a) / (gamma + 1.0)
            u = xi - c
        rho = anchor.rho * (c / c_a) ** (2.0 / (gamma - 1.0))
        p = p_a * (c / c_a) ** (2.0 * gamma / (gamma - 1.0))
        return PipeState(Model.M1, rho, rho * u, E=p / (gamma - 1.0) + 0.5 * rho * u * u)
    kappa = wave.left.kappa
    if model is Model.M2:
        anchor = wave.left if wave.family == 1 else wave.right
        c_a = sound_speed(anchor, g)
        if wave.family == 1:
            c = ((gamma - 1.0) * (anchor.u - xi) + 2.0 * c_a) / (gamma + 1.0)
            u = xi + c
        else:
            c = ((gamma - 1.0) * (xi - anchor.u) + 2.0 * c_a) / (gamma + 1.0)
            u = xi - c
        rho = (c * c / (kappa * gamma)) ** (1.0 / (gamma - 1.0))
        return PipeState(Model.M2, rho, rho * u, kappa=kappa)
    # M3: the characteristic speed is +-c, so xi pins the density directly.
    c = -xi if wave.family == 1 else xi
    rho = (c * c / (kappa * gamma)) ** (1.0 / (gamma - 1.0))
    if wave.family == 1:
        anchor = wave.left
        q = anchor.q - kernels.theta3(rho, anchor.rho, kappa, gamma)
    else:
        anchor = wave.right
        q = anchor.q + kernels.theta3(rho, anchor.rho, kappa, gamma)
    return PipeState(Model.M3, rho, q, kappa=kappa)


def sample_waves(waves, left_data: PipeState, right_data: PipeState, xi, g: GasConstants):
    """Sample a left-to-right list of waves at x/t = xi."""
    state = left_data
    for wave in waves:
        if xi < wave.leftmost_speed:
            return state
        if wave.kind == RAREFACTION and xi < wave.rightmost_speed:
            return fan_state(wave, xi, g)
        state = wave.right
    return right_data


def sample_solution(sol, UL: PipeState, UR: PipeState, xi, g: GasConstants) -> PipeState:
    """State of the self-similar solution at x/t = xi."""
    return sample_waves(sol.waves, UL, UR, xi, g)
