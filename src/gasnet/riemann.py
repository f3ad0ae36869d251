"""Exact single-pipe Riemann solvers and self-similar sampling.

The star parameter is found by a bracket-guarded Newton iteration on the
scalar wave-curve equation of each model (pressure for full Euler, density
for the isentropic pair).  A solution is its elementary waves, a chain
left to right from the left data to the right data: ``sample_waves``
reads every region off them.  Each is a ``Front`` born at the origin;
the tracker and the coupling solve build the same type.  A shock or
contact travels at ``speed``; a fan's ``speed`` is its tail, its head is
``fan_edge_speed(w.family, w.left, g)``, and ``fan_state`` reads its
inside off the data side's ``curve_point``.  ``_acoustic_wave`` alone
builds every acoustic wave.  ``solve_riemann_iso``, the tracker's
accurate step on M2/M3 pipes, has one star state that both waves share.

Tie-breaking: a similarity coordinate xi that falls exactly on a shock,
contact, or fan edge resolves to the right-limit state.
"""

from bisect import bisect_left
from typing import NamedTuple

from . import kernels
from .laxcurves import curve_point, fan_edge_speed
from .thermo import M1, M2, M3, GasConstants, PipeState, m1_state, pressure, sound_speed

SHOCK = "shock"
RAREFACTION = "rarefaction"
CONTACT = "contact"


class Front:
    """An elementary wave in one pipe: a shock, a contact or a rarefaction
    (a whole fan in a Riemann solution, one slice of it in the tracker),
    or the tracker's non-physical front.  ``strength`` is the signed jump
    of the curve parameter; positive values are shocks."""

    __slots__ = ("family", "kind", "speed", "strength",
                 "left", "right", "born_t", "born_x")

    def __init__(self, family, kind, speed, strength, left, right):
        self.family = family
        self.kind = kind
        self.speed = speed
        self.strength = strength
        self.left = left
        self.right = right
        self.born_t = 0.0   # the origin, until the tracker places it
        self.born_x = 0.0

    def at(self, t):
        """Position at time t."""
        return self.born_x + self.speed * (t - self.born_t)

    def __repr__(self):
        return (f"Front(fam={self.family}, {self.kind}, x0={self.born_x:.6g}, "
                f"t0={self.born_t:.6g}, s={self.speed:.6g}, v={self.strength:.6g})")


class RiemannSolution(NamedTuple):
    """The star parameter (p* for M1, rho* for M2/M3), the waves left to
    right, and the star solve's residual and iteration count."""

    star: float
    waves: tuple
    residual: float
    iterations: int


def _acoustic_wave(family, data: PipeState, star: PipeState, param_data, param_star, g):
    """The family-1 wave from pipe data to its star state, or the
    right-going wave (family 3 of M1, family 2 of M2/M3) from the star
    state to the data.  ``param_data`` and ``param_star`` are the curve
    parameters of data and star, pressure for M1 and density otherwise,
    which every caller already holds; the strength is their difference.
    A positive strength is a shock at its exact speed, except that a
    pressure rise of a few ulps can leave the star density equal to the
    data density: that jump has no shock speed and is taken as a
    (vanishing) rarefaction, which travels at the speed of its right
    state."""
    strength = param_star - param_data
    left, right = (data, star) if family == 1 else (star, data)
    if strength > 0.0 and star.rho != data.rho:
        speed = (right.q - left.q) / (right.rho - left.rho)
        return Front(family, SHOCK, speed, strength, left, right)
    return Front(family, RAREFACTION, fan_edge_speed(family, right, g), strength, left, right)


def solve_riemann_m1(UL: PipeState, UR: PipeState, g: GasConstants) -> RiemannSolution:
    """Exact solution of the full Euler Riemann problem.

    Raises ``VacuumFormation`` for data that admit no positive-density
    solution and ``NoConvergence`` when the star solve fails.
    """
    gamma = g.gamma
    p_l, p_r = pressure(UL, g), pressure(UR, g)
    p_star, res, it = kernels.solve_p_star_m1(UL.rho, UL.u, p_l, UR.rho, UR.u, p_r, gamma)
    u_star = UL.u - kernels.psi(p_star, p_l, UL.rho, gamma)
    left_star = m1_state(kernels.phi(p_star, p_l, UL.rho, gamma), u_star, p_star, g)
    right_star = m1_state(kernels.phi(p_star, p_r, UR.rho, gamma), u_star, p_star, g)
    waves = (
        _acoustic_wave(1, UL, left_star, p_l, p_star, g),
        Front(2, CONTACT, u_star, right_star.rho - left_star.rho, left_star, right_star),
        _acoustic_wave(3, UR, right_star, p_r, p_star, g),
    )
    return RiemannSolution(p_star, waves, res, it)


def solve_riemann_iso(UL: PipeState, UR: PipeState, g: GasConstants) -> RiemannSolution:
    """Exact solution of the isentropic Riemann problem, in the model
    (M2 or M3) that both states carry.

    Raises ``ValueError`` for full Euler or mixed-model data or unequal
    kappa, ``VacuumFormation`` and ``NoConvergence`` as solve_riemann_m1.
    """
    model = UL.model
    if UR.model is not model:
        raise ValueError(f"Riemann data mix models {model.value} and {UR.model.value}")
    if model is M1:
        raise ValueError("use solve_riemann_m1 for the full Euler model")
    if UL.kappa != UR.kappa:
        raise ValueError("isentropic Riemann data must share kappa")
    gamma, kappa = g.gamma, UL.kappa
    if model is M2:
        rho_star, res, it = kernels.solve_rho_star_m2(UL.rho, UL.u, UR.rho, UR.u, kappa, gamma)
    else:
        rho_star, res, it = kernels.solve_rho_star_m3(UL.rho, UL.q, UR.rho, UR.q, kappa, gamma)
    star = curve_point(1, rho_star, UL, g)
    waves = (_acoustic_wave(1, UL, star, UL.rho, rho_star, g),
             _acoustic_wave(2, UR, star, UR.rho, rho_star, g))
    return RiemannSolution(rho_star, waves, res, it)


def fan_state(wave: Front, xi, g: GasConstants) -> PipeState:
    """State inside a rarefaction fan at similarity coordinate xi: the
    point on the data side's wave curve whose edge speed is xi.  (1) Its
    sound speed c is -xi or xi on M3, else from the crossing family's
    Riemann invariant, constant through the fan; (2) its curve parameter
    is the density (c^2 / kappa gamma)^(1/(gamma-1)), or on M1 the pressure
    p_data (c / c_data)^(2 gamma/(gamma-1)); (3) ``curve_point`` gives it."""
    if wave.kind != RAREFACTION:
        raise ValueError("fan_state needs a rarefaction wave")
    gamma, family = g.gamma, wave.family
    data = wave.left if family == 1 else wave.right
    sign = -1.0 if family == 1 else 1.0
    if data.model is M3:
        c = sign * xi
    else:
        c_data = sound_speed(data, g)
        c = ((gamma - 1.0) * sign * (xi - data.u) + 2.0 * c_data) / (gamma + 1.0)
    if data.model is M1:
        param = pressure(data, g) * (c / c_data) ** (2.0 * gamma / (gamma - 1.0))
    else:
        param = (c * c / (data.kappa * gamma)) ** (1.0 / (gamma - 1.0))
    return curve_point(family, param, data, g)


def sample_waves(waves, xis, g: GasConstants):
    """Sample a left-to-right chain of waves, at least one, at the
    ascending x/t values ``xis``, as runs ``[(state, count), ...]`` that
    expand to one state per point.

    A point at a wave's left edge lies right of it, past a shock or
    contact and inside a fan; a fan's left edge is its head.  Each
    constant region is one run of the ``waves[0].left`` or a ``wave.right``
    object itself, found by bisecting the wave speeds; each point inside a
    fan is a run of 1.
    """
    runs = []
    start = 0
    state = waves[0].left
    for wave in waves:
        fan = wave.kind == RAREFACTION
        head = fan_edge_speed(wave.family, wave.left, g) if fan else wave.speed
        lo = max(start, bisect_left(xis, head))
        hi = max(lo, bisect_left(xis, wave.speed)) if fan else lo
        if lo > start:
            runs.append((state, lo - start))
        runs += [(fan_state(wave, xis[i], g), 1) for i in range(lo, hi)]
        start = hi
        state = wave.right
    if len(xis) > start:
        runs.append((state, len(xis) - start))
    return runs
