"""Wave-function kernels: frozen values, smoothness, monotonicity, star
solves against the earlier return-code protocol, and a single kernel
module shared by every solver."""

from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import gasnet.fronttracking
import gasnet.laxcurves
import gasnet.riemann
from gasnet import (
    GasConstants,
    Model,
    NoConvergence,
    VacuumFormation,
    iso_state,
    kernels,
    m1_state,
    pressure,
)
from gasnet.riemann import solve_riemann_iso, solve_riemann_m1

GAMMA = 1.4
G = GasConstants(gamma=GAMMA, R=1.0)

# Frozen expected values, computed from the branch formulas at 30-digit
# precision (kappa=1, gamma=1.4, base state rho=1 resp. p=rho=1).
THETA2_SHOCK_AT_2 = 1.810533524431839
THETA2_RARE_AT_HALF = -0.3829165977087167
THETA3_SHOCK_AT_2 = 1.2802405326913332
THETA3_RARE_AT_HALF = -0.5568260815430875
PSI_SHOCK_AT_2 = 0.6201736729460423
PSI_RARE_AT_HALF = -0.5577463238730136
PHI_SHOCK_AT_2 = 1.625
PHI_RARE_AT_HALF = 0.6095068271022377


def test_theta2_values():
    assert kernels.theta2(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.theta2(2.0, 1.0, 1.0, GAMMA) == pytest.approx(THETA2_SHOCK_AT_2, rel=1e-14)
    assert kernels.theta2(0.5, 1.0, 1.0, GAMMA) == pytest.approx(THETA2_RARE_AT_HALF, rel=1e-14)


def test_theta3_values():
    assert kernels.theta3(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.theta3(2.0, 1.0, 1.0, GAMMA) == pytest.approx(THETA3_SHOCK_AT_2, rel=1e-14)
    assert kernels.theta3(0.5, 1.0, 1.0, GAMMA) == pytest.approx(THETA3_RARE_AT_HALF, rel=1e-14)


def test_psi_phi_values():
    assert kernels.psi(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.psi(2.0, 1.0, 1.0, GAMMA) == pytest.approx(PSI_SHOCK_AT_2, rel=1e-14)
    assert kernels.psi(0.5, 1.0, 1.0, GAMMA) == pytest.approx(PSI_RARE_AT_HALF, rel=1e-14)
    assert kernels.phi(1.0, 1.0, 1.0, GAMMA) == 1.0
    assert kernels.phi(2.0, 1.0, 1.0, GAMMA) == pytest.approx(PHI_SHOCK_AT_2, rel=1e-14)
    assert kernels.phi(0.5, 1.0, 1.0, GAMMA) == pytest.approx(PHI_RARE_AT_HALF, rel=1e-14)


def _one_sided_derivatives(f, x0, args, h):
    # second-order one-sided stencils so the O(h) truncation term does not
    # mask a genuine kink at the branch point
    left = (3 * f(x0, *args) - 4 * f(x0 - h, *args) + f(x0 - 2 * h, *args)) / (2 * h)
    right = (-3 * f(x0, *args) + 4 * f(x0 + h, *args) - f(x0 + 2 * h, *args)) / (2 * h)
    return left, right


@pytest.mark.parametrize("f", [kernels.theta2, kernels.theta3])
def test_theta_c1_at_branch_point(f, rng):
    # one-sided difference quotients agree across the branch point
    for _ in range(20):
        rho_bar = rng.uniform(0.3, 3.0)
        kappa = rng.uniform(0.5, 2.0)
        h = 1e-5 * rho_bar
        left, right = _one_sided_derivatives(f, rho_bar, (rho_bar, kappa, GAMMA), h)
        assert right == pytest.approx(left, rel=1e-4)
        c_bar = sqrt(kappa * GAMMA * rho_bar ** (GAMMA - 1.0))
        assert left == pytest.approx(c_bar, rel=1e-4)


def test_psi_phi_c2_at_branch_point(rng):
    # first derivatives match to O(h); second differences stay bounded and
    # agree across the joint, the C^2 property of the parameterization
    for _ in range(20):
        p_k = rng.uniform(0.3, 3.0)
        rho_k = rng.uniform(0.3, 3.0)
        h = 1e-5 * p_k
        for f in (kernels.psi, kernels.phi):
            left, right = _one_sided_derivatives(f, p_k, (p_k, rho_k, GAMMA), h)
            assert right == pytest.approx(left, rel=1e-6)
            dd_left = (f(p_k, p_k, rho_k, GAMMA) - 2 * f(p_k - h, p_k, rho_k, GAMMA)
                       + f(p_k - 2 * h, p_k, rho_k, GAMMA)) / h**2
            dd_right = (f(p_k + 2 * h, p_k, rho_k, GAMMA) - 2 * f(p_k + h, p_k, rho_k, GAMMA)
                        + f(p_k, p_k, rho_k, GAMMA)) / h**2
            assert dd_right == pytest.approx(dd_left, rel=2e-3, abs=1e-6)


@pytest.mark.parametrize("f,df", [
    (kernels.theta2, kernels.dtheta2),
    (kernels.theta3, kernels.dtheta3),
    (kernels.psi, kernels.dpsi),
    (kernels.phi, kernels.dphi),
])
def test_analytic_derivatives_match_central_differences(f, df, rng):
    for _ in range(200):
        base = rng.uniform(0.3, 3.0)
        aux = rng.uniform(0.3, 3.0)
        x = base * rng.uniform(0.55, 1.8)
        if abs(x - base) < 1e-3 * base:
            continue
        h = 1e-6 * x
        fd = (f(x + h, base, aux, GAMMA) - f(x - h, base, aux, GAMMA)) / (2 * h)
        assert df(x, base, aux, GAMMA) == pytest.approx(fd, rel=5e-6)


def test_monotonicity_on_subsonic_domain(rng):
    # psi and theta3 increase globally; theta2 increases above the sonic
    # density of its curve, which contains the subsonic range sampled here
    for _ in range(300):
        base = rng.uniform(0.3, 3.0)
        aux = rng.uniform(0.3, 3.0)
        xs = np.sort(rng.uniform(0.6 * base, 1.8 * base, size=8))
        v_psi = [kernels.psi(x, base, aux, GAMMA) for x in xs]
        v_t2 = [kernels.theta2(x, base, aux, GAMMA) for x in xs]
        v_t3 = [kernels.theta3(x, base, aux, GAMMA) for x in xs]
        assert all(a < b for a, b in zip(v_psi, v_psi[1:]))
        assert all(a < b for a, b in zip(v_t2, v_t2[1:]))
        assert all(a < b for a, b in zip(v_t3, v_t3[1:]))


def test_star_solver_roundtrip(rng):
    for _ in range(100):
        p_l, p_r = rng.uniform(0.3, 3.0, size=2)
        rho_l, rho_r = rng.uniform(0.3, 3.0, size=2)
        u_l, u_r = rng.uniform(-0.5, 0.5, size=2)
        p, res, it = kernels.solve_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r,
                                             GAMMA, 1e-12, 100)
        assert it > 0
        f = (kernels.psi(p, p_l, rho_l, GAMMA)
             + kernels.psi(p, p_r, rho_r, GAMMA) + (u_r - u_l))
        assert res == abs(f) <= 1e-12


def test_vacuum_detection():
    with pytest.raises(VacuumFormation):
        kernels.solve_p_star_m1(1.0, -10.0, 1.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)
    with pytest.raises(VacuumFormation):
        kernels.solve_rho_star_m2(1.0, -10.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)
    with pytest.raises(VacuumFormation):
        kernels.solve_rho_star_m3(1.0, -10.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)


# -- star solves against the return-code protocol ----------------------------
# A copy of the earlier star solves: the kernels returned (value,
# iterations) with -1 for an exhausted budget and -2 for vacuum, and the
# Riemann solvers re-evaluated each equation for the residual and turned
# the codes into exceptions.


def _ref_bracketed_newton(f, df, x, lo, hi, tol, max_iter):
    increasing = f(lo) < 0.0
    for it in range(1, max_iter + 1):
        fx = f(x)
        if abs(fx) <= tol:
            return x, it
        below = fx < 0.0 if increasing else fx > 0.0
        if below:
            lo = x
        else:
            hi = x
        d = df(x)
        step_ok = d != 0.0
        if step_ok:
            x_new = x - fx / d
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            return x, it
        x = x_new
    return x, -1


def _ref_finish(value, it, residual_fn, tol):
    if it == -2:
        raise VacuumFormation("reference")
    res = abs(residual_fn(value))
    if it == -1 and res > tol:
        raise NoConvergence("reference", residual=res, iterations=it)
    return value, res, max(it, 0)


def _ref_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma, tol, max_iter):
    c_l = sqrt(gamma * p_l / rho_l)
    c_r = sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        return 0.0, -2

    def f(p):
        return kernels.psi(p, p_l, rho_l, gamma) + kernels.psi(p, p_r, rho_r, gamma) + du

    def df(p):
        return kernels.dpsi(p, p_l, rho_l, gamma) + kernels.dpsi(p, p_r, rho_r, gamma)

    e = 0.5 * (gamma - 1.0) / gamma
    guess = ((c_l + c_r - 0.5 * (gamma - 1.0) * du) / (c_l / p_l**e + c_r / p_r**e)) ** (1.0 / e)
    lo = 1e-14 * min(p_l, p_r)
    hi = 2.0 * max(p_l, p_r, guess)
    grow = 0
    while f(hi) < 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = min(max(guess, lo * 2.0), hi * 0.5)
    return _ref_bracketed_newton(f, df, x, lo, hi, tol, max_iter)


def _ref_rho_star_m2(rho_l, u_l, rho_r, u_r, kappa, gamma, tol, max_iter):
    c_l = kernels.iso_sound_speed(rho_l, kappa, gamma)
    c_r = kernels.iso_sound_speed(rho_r, kappa, gamma)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= u_r - u_l:
        return 0.0, -2

    def f(rho):
        return ((u_l - u_r) * rho - kernels.theta2(rho, rho_l, kappa, gamma)
                - kernels.theta2(rho, rho_r, kappa, gamma))

    def df(rho):
        return ((u_l - u_r) - kernels.dtheta2(rho, rho_l, kappa, gamma)
                - kernels.dtheta2(rho, rho_r, kappa, gamma))

    lo = 1e-14 * min(rho_l, rho_r)
    hi = 2.0 * max(rho_l, rho_r)
    grow = 0
    while f(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = 0.5 * (rho_l + rho_r)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return _ref_bracketed_newton(f, df, x, lo, hi, tol, max_iter)


def _ref_rho_star_m3(rho_l, q_l, rho_r, q_r, kappa, gamma, tol, max_iter):
    c_l = kernels.iso_sound_speed(rho_l, kappa, gamma)
    c_r = kernels.iso_sound_speed(rho_r, kappa, gamma)
    if q_l - q_r + 2.0 * (c_l * rho_l + c_r * rho_r) / (gamma + 1.0) <= 0.0:
        return 0.0, -2

    def f(rho):
        return ((q_l - q_r) - kernels.theta3(rho, rho_l, kappa, gamma)
                - kernels.theta3(rho, rho_r, kappa, gamma))

    def df(rho):
        return (-kernels.dtheta3(rho, rho_l, kappa, gamma)
                - kernels.dtheta3(rho, rho_r, kappa, gamma))

    lo = 1e-14 * min(rho_l, rho_r)
    hi = 2.0 * max(rho_l, rho_r)
    grow = 0
    while f(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = 0.5 * (rho_l + rho_r)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return _ref_bracketed_newton(f, df, x, lo, hi, tol, max_iter)


def _reference_solve(model, args, tol, max_iter):
    """The earlier kernel path plus the Riemann solvers' residual closure
    and code translation: (value, residual, iterations)."""
    if model is Model.M1:
        rho_l, u_l, p_l, rho_r, u_r, p_r, gamma = args
        value, it = _ref_p_star_m1(*args, tol, max_iter)

        def residual(p):
            return (kernels.psi(p, p_l, rho_l, gamma)
                    + kernels.psi(p, p_r, rho_r, gamma) + (u_r - u_l))
    elif model is Model.M2:
        rho_l, u_l, rho_r, u_r, kappa, gamma = args
        value, it = _ref_rho_star_m2(*args, tol, max_iter)

        def residual(rho):
            return ((u_l - u_r) * rho
                    - kernels.theta2(rho, rho_l, kappa, gamma)
                    - kernels.theta2(rho, rho_r, kappa, gamma))
    else:
        rho_l, q_l, rho_r, q_r, kappa, gamma = args
        value, it = _ref_rho_star_m3(*args, tol, max_iter)

        def residual(rho):
            return ((q_l - q_r)
                    - kernels.theta3(rho, rho_l, kappa, gamma)
                    - kernels.theta3(rho, rho_r, kappa, gamma))
    return _ref_finish(value, it, residual, tol)


SOLVERS = {Model.M1: kernels.solve_p_star_m1, Model.M2: kernels.solve_rho_star_m2,
           Model.M3: kernels.solve_rho_star_m3}


def _kernel_args(UL, UR):
    """Kernel arguments exactly as the Riemann solvers pass them."""
    if UL.model is Model.M1:
        return (UL.rho, UL.u, pressure(UL, G), UR.rho, UR.u, pressure(UR, G), GAMMA)
    if UL.model is Model.M2:
        return (UL.rho, UL.u, UR.rho, UR.u, UL.kappa, GAMMA)
    return (UL.rho, UL.q, UR.rho, UR.q, UL.kappa, GAMMA)


@hs.composite
def _subsonic_pairs(draw):
    """Left and right states of one model, each with |u| < c."""
    model = draw(hs.sampled_from([Model.M1, Model.M2, Model.M3]))
    kappa = draw(hs.floats(0.5, 2.0))
    states = []
    for _ in range(2):
        rho = draw(hs.floats(0.3, 3.0))
        mach = draw(hs.floats(-0.9, 0.9))
        if model is Model.M1:
            p = draw(hs.floats(0.3, 3.0))
            states.append(m1_state(rho, mach * sqrt(GAMMA * p / rho), p, G))
        else:
            c = kernels.iso_sound_speed(rho, kappa, GAMMA)
            states.append(iso_state(model, rho, mach * c, kappa))
    return states


@settings(max_examples=400)
@given(_subsonic_pairs(), hs.sampled_from([1, 2, 3, kernels.MAX_ITER]))
def test_star_solves_match_return_code_reference(pair, max_iter):
    UL, UR = pair
    model = UL.model
    args = _kernel_args(UL, UR)
    try:
        value, res, it = _reference_solve(model, args, kernels.TOL, max_iter)
    except (VacuumFormation, NoConvergence) as exc:
        # M3 data with |u| < c can still open a vacuum
        with pytest.raises(type(exc)) as info:
            SOLVERS[model](*args, kernels.TOL, max_iter)
        if isinstance(exc, NoConvergence):
            assert info.value.residual == exc.residual
            assert info.value.iterations == max_iter
        return
    # a budget that ran out within tol used to report 0 iterations
    expected = (value, res, it or max_iter)
    assert SOLVERS[model](*args, kernels.TOL, max_iter) == expected
    if max_iter == kernels.MAX_ITER:
        sol = solve_riemann_m1(UL, UR, G) if model is Model.M1 else solve_riemann_iso(UL, UR, G)
        assert (sol.star, sol.residual, sol.iterations) == expected


@pytest.mark.parametrize("model", [Model.M1, Model.M2, Model.M3])
def test_exhausted_budget_raises_with_residual(model):
    if model is Model.M1:
        UL, UR = m1_state(1.0, 0.0, 1.0, G), m1_state(0.125, 0.0, 0.1, G)
    else:
        UL, UR = iso_state(model, 1.0, 0.3, 1.0), iso_state(model, 0.4, -0.2, 1.0)
    args = _kernel_args(UL, UR)
    with pytest.raises(NoConvergence) as ref:
        _reference_solve(model, args, 1e-12, 1)
    with pytest.raises(NoConvergence) as info:
        SOLVERS[model](*args, 1e-12, 1)
    assert info.value.iterations == 1
    assert info.value.residual == ref.value.residual > 1e-12


def test_bracketed_newton_falls_back_to_bisection():
    # a zero derivative, and a Newton step that leaves the bracket, both
    # bisect [lo, hi] = [0, 2] after the first residual: x = 1 is the root
    # exactly, found at the second iteration either way
    for df in (lambda x: 0.0, lambda x: 1e-3):
        assert kernels._bracketed_newton(lambda x: x - 1.0, df, True, 2.0, 0.0, 4.0,
                                         1e-12, 50, "line") == (1.0, 0.0, 2)
    assert kernels._bracketed_newton(lambda x: 1.0 - x, lambda x: 0.0, False, 2.0, 0.0, 4.0,
                                     1e-12, 50, "line") == (1.0, 0.0, 2)


def test_bracketed_newton_returns_when_the_bracket_collapses():
    # a step from -1 to +1 between the adjacent floats below and at 1.0 has
    # no root: bisection shrinks the bracket to those two floats, its
    # midpoint rounds onto the iterate, and the solve returns that iterate
    # with its residual instead of running out the budget
    def step(x):
        return 1.0 if x >= 1.0 else -1.0

    assert kernels._bracketed_newton(step, lambda x: 0.0, True, 2.0, 0.0, 4.0,
                                     0.5, 200, "step") == (1.0, 1.0, 56)
    with pytest.raises(NoConvergence) as info:
        kernels._bracketed_newton(step, lambda x: 0.0, True, 2.0, 0.0, 4.0, 0.5, 55, "step")
    assert (info.value.residual, info.value.iterations) == (1.0, 55)


def test_single_kernel_module():
    assert gasnet.laxcurves.kernels is kernels
    assert gasnet.riemann.kernels is kernels
    assert gasnet.fronttracking.kernels is kernels
    package = Path(kernels.__file__).parent
    assert not [p.name for p in package.iterdir() if p.suffix in (".pyx", ".c")]
