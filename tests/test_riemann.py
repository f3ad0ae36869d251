"""Exact Riemann solvers against independent bisection oracles.

The oracles re-state the wave-curve equations from scratch (plain
formulas, plain bisection) so they share no code with the solvers under
test.
"""

from math import sqrt

import numpy as np
import pytest

from gasnet import (
    GasConstants,
    Model,
    VacuumFormation,
    eigenvalues,
    iso_state,
    kernels,
    m1_state,
    pressure,
    thermo_quantities,
)
from gasnet.laxcurves import fan_edge_speed
from gasnet.riemann import (
    CONTACT,
    RAREFACTION,
    SHOCK,
    fan_state,
    sample_waves,
    solve_riemann_iso,
    solve_riemann_m1,
)
from reference import flux_vector, sample_at

G = GasConstants(gamma=1.4, R=1.0)
GAMMA = 1.4


def _speeds(w):
    """(s,) for a shock or contact, (head, tail) for a rarefaction fan."""
    if w.kind == RAREFACTION:
        return fan_edge_speed(w.family, w.left, G), w.speed
    return (w.speed,)


# -- independent oracles -------------------------------------------------


def _psi_oracle(p, p_k, rho_k):
    if p <= p_k:
        c_k = sqrt(GAMMA * p_k / rho_k)
        return 2.0 * c_k / (GAMMA - 1.0) * ((p / p_k) ** ((GAMMA - 1.0) / (2 * GAMMA)) - 1.0)
    mu2 = (GAMMA - 1.0) / (GAMMA + 1.0)
    return (p - p_k) * sqrt((1.0 - mu2) / (rho_k * (p + mu2 * p_k)))


def bisect_p_star(left, right, lo=1e-8, hi=None, iters=200):
    p_l, p_r = pressure(left, G), pressure(right, G)
    if hi is None:
        hi = 10.0 * max(p_l, p_r)

    def f(p):
        return left.u - _psi_oracle(p, p_l, left.rho) - (right.u + _psi_oracle(p, p_r, right.rho))

    assert f(lo) > 0 > f(hi), "oracle bracket failed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _theta2_oracle(rho, rho_b, kappa):
    p, p_b = kappa * rho**GAMMA, kappa * rho_b**GAMMA
    if rho <= rho_b:
        return (2.0 * sqrt(kappa * GAMMA) / (GAMMA - 1.0)) * rho * (
            rho ** ((GAMMA - 1.0) / 2.0) - rho_b ** ((GAMMA - 1.0) / 2.0))
    return sqrt((rho / rho_b) * (rho - rho_b) * (p - p_b))


def _theta3_oracle(rho, rho_b, kappa):
    p, p_b = kappa * rho**GAMMA, kappa * rho_b**GAMMA
    if rho <= rho_b:
        return (2.0 * sqrt(kappa * GAMMA) / (GAMMA + 1.0)) * (
            rho ** ((GAMMA + 1.0) / 2.0) - rho_b ** ((GAMMA + 1.0) / 2.0))
    return sqrt((rho - rho_b) * (p - p_b))


def bisect_rho_star(left, right, model, lo=1e-8, hi=10.0, iters=200):
    kappa = left.kappa
    if model is Model.M2:
        def f(rho):
            return (left.u * rho - _theta2_oracle(rho, left.rho, kappa)
                    - right.u * rho - _theta2_oracle(rho, right.rho, kappa))
    else:
        def f(rho):
            return (left.q - _theta3_oracle(rho, left.rho, kappa)
                    - right.q - _theta3_oracle(rho, right.rho, kappa))

    while f(hi) > 0:
        hi *= 2.0
    assert f(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rankine_hugoniot_residual(wave, g):
    fl = np.array(flux_vector(wave.left, g))
    fr = np.array(flux_vector(wave.right, g))
    if wave.left.model is Model.M1:
        ul = np.array([wave.left.rho, wave.left.q, wave.left.E])
        ur = np.array([wave.right.rho, wave.right.q, wave.right.E])
    else:
        ul = np.array([wave.left.rho, wave.left.q])
        ur = np.array([wave.right.rho, wave.right.q])
    s = wave.speed
    return np.linalg.norm(fl - fr - s * (ul - ur)) / max(np.linalg.norm(fl), 1e-300)


# -- tests ----------------------------------------------------------------


def test_identity_data():
    UL = m1_state(1.0, 0.3, 1.0, G)
    sol = solve_riemann_m1(UL, UL, G)
    assert sol.star == pytest.approx(1.0, rel=1e-12)
    assert sol.waves[1].speed == pytest.approx(0.3, rel=1e-12)
    assert sol.waves[0].right.rho == pytest.approx(1.0, rel=1e-12)
    L = iso_state(Model.M3, 1.2, 0.1, 1.0)
    s3 = solve_riemann_iso(L, L, G)
    assert s3.star == pytest.approx(1.2, rel=1e-12)
    assert s3.waves[0].right.q == pytest.approx(0.12, rel=1e-12)


def test_sod_star_values():
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert sol.star == pytest.approx(0.30313, abs=1e-5)
    assert sol.waves[1].speed == pytest.approx(0.92745, abs=1e-5)
    assert sol.star == pytest.approx(bisect_p_star(UL, UR), abs=1e-10)
    kinds = [w.kind for w in sol.waves]
    assert kinds == [RAREFACTION, "contact", SHOCK]


def test_symmetric_compression():
    a = 0.3
    UL = m1_state(1.0, +a, 1.0, G)
    UR = m1_state(1.0, -a, 1.0, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert sol.waves[1].speed == pytest.approx(0.0, abs=1e-10)
    assert sol.waves[0].right.rho == pytest.approx(sol.waves[2].left.rho, rel=1e-12)


def test_m3_symmetric():
    a = 0.2
    L = iso_state(Model.M3, 1.0, +a, 1.0)
    R = iso_state(Model.M3, 1.0, -a, 1.0)
    sol = solve_riemann_iso(L, R, G)
    assert sol.waves[0].right.q == pytest.approx(0.0, abs=1e-10)
    # rho* solves 2*theta3(rho*) = 2a against the shared base state
    assert _theta3_oracle(sol.star, 1.0, 1.0) == pytest.approx(a, abs=1e-10)


def test_m2_example_against_oracle():
    L = iso_state(Model.M2, 1.0, 0.3, 1.0)
    R = iso_state(Model.M2, 0.8, 0.0, 1.0)
    sol = solve_riemann_iso(L, R, G)
    assert sol.star == pytest.approx(bisect_rho_star(L, R, Model.M2), abs=1e-8)
    assert sol.star == pytest.approx(1.017365098560751, rel=1e-10)
    assert sol.waves[0].right.q == pytest.approx(0.2844494054481642, rel=1e-10)


@pytest.mark.parametrize("model", [Model.M1, Model.M2, Model.M3])
def test_colliding_streams_solve_through_two_shocks(model):
    # u = +-5 against sound speeds near 1: for M2 and M3 the star density
    # (10.95 for M2) lies above the initial bracket 2 max(rho_l, rho_r), so
    # the bracket must grow first; for M1 the two-rarefaction guess already
    # brackets p* (32.1 against 145.6)
    if model is Model.M1:
        sol = solve_riemann_m1(m1_state(1.0, 5.0, 1.0, G), m1_state(1.0, -5.0, 1.0, G), G)
    else:
        sol = solve_riemann_iso(iso_state(model, 1.0, 5.0, 1.0),
                                iso_state(model, 1.0, -5.0, 1.0), G)
        assert sol.star > 2.0
    assert sol.residual <= kernels.TOL
    shocks = [sol.waves[0], sol.waves[-1]]
    assert [w.kind for w in shocks] == [SHOCK, SHOCK]
    for w in shocks:
        assert rankine_hugoniot_residual(w, G) <= 1e-12


def test_vacuum_raises():
    UL = m1_state(1.0, -6.0, 1.0, G)
    UR = m1_state(1.0, +6.0, 1.0, G)
    with pytest.raises(VacuumFormation):
        solve_riemann_m1(UL, UR, G)


def test_iso_solver_takes_the_model_from_the_states():
    m2 = iso_state(Model.M2, 1.0, 0.1, 1.0)
    m3 = iso_state(Model.M3, 1.0, 0.1, 1.0)
    m1 = m1_state(1.0, 0.1, 1.0, G)
    assert solve_riemann_iso(m3, m3, G).waves[0].right.model is Model.M3
    for UL, UR in ((m2, m3), (m3, m2), (m1, m1)):
        with pytest.raises(ValueError):
            solve_riemann_iso(UL, UR, G)


def test_left_right_consistency(rng):
    for _ in range(100):
        UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        sol = solve_riemann_m1(UL, UR, G)
        p_l, p_r = pressure(UL, G), pressure(UR, G)
        lhs = UL.u - _psi_oracle(sol.star, p_l, UL.rho)
        rhs = UR.u + _psi_oracle(sol.star, p_r, UR.rho)
        assert lhs == pytest.approx(rhs, abs=5e-10)


def test_random_solutions_match_oracle_and_rh(rng):
    for _ in range(150):
        model = Model(rng.choice(["M1", "M2", "M3"]))
        if model is Model.M1:
            UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            sol = solve_riemann_m1(UL, UR, G)
            assert sol.star == pytest.approx(bisect_p_star(UL, UR), abs=1e-8)
        else:
            kappa = rng.uniform(0.5, 2.0)
            UL = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            UR = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            sol = solve_riemann_iso(UL, UR, G)
            assert sol.star == pytest.approx(
                bisect_rho_star(UL, UR, model), abs=1e-8)
        for w in sol.waves:
            if w.kind == SHOCK:
                assert rankine_hugoniot_residual(w, G) <= 1e-8


def test_riemann_invariants_constant_through_fans(rng):
    # u + 2c/(gamma-1) through 1-fans, u - 2c/(gamma-1) through 3-/2-fans,
    # entropy constant in all fans (M1), and each fan state is the one
    # whose edge speed is its xi, on every model
    hits = 0
    for _ in range(300):
        model = Model(rng.choice(["M1", "M2", "M3"]))
        if model is Model.M1:
            UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            sol = solve_riemann_m1(UL, UR, G)
        else:
            kappa = rng.uniform(0.5, 2.0)
            UL = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            UR = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            sol = solve_riemann_iso(UL, UR, G)
        for w in sol.waves:
            if w.kind != RAREFACTION or abs(w.strength) < 1e-8:
                continue
            hits += 1
            head, tail = _speeds(w)
            anchor = w.left
            tq_a = thermo_quantities(anchor, G)
            sign = -1.0 if w.family == 1 else +1.0
            if anchor.model is Model.M3:
                inv_a = None
            else:
                inv_a = anchor.u - sign * 2.0 * tq_a.c / (GAMMA - 1.0)
            for xi in np.linspace(head + 1e-12, tail - 1e-12, 100):
                st = fan_state(w, xi, G)
                tq = thermo_quantities(st, G)
                assert abs(fan_edge_speed(w.family, st, G) - xi) <= 1e-13 * tq.c
                if inv_a is not None:
                    inv = st.u - sign * 2.0 * tq.c / (GAMMA - 1.0)
                    assert inv == pytest.approx(inv_a, rel=1e-8, abs=1e-8)
                if st.model is Model.M1:
                    assert tq.s == pytest.approx(thermo_quantities(anchor, G).s,
                                                 abs=1e-8)
        if hits > 50:
            break
    assert hits > 10


def _first_state(sol, UL, UR, xi):
    """State of the self-similar solution at x/t = xi: the one run that
    sampling a single point gives."""
    (state, count), = sample_waves(sol.waves, UL, UR, [xi], G)
    assert count == 1
    return state


def test_sampling_regions():
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert _first_state(sol, UL, UR, -10.0) == UL
    assert _first_state(sol, UL, UR, +10.0) == UR
    at0 = _first_state(sol, UL, UR, 0.0)
    assert pressure(at0, G) == pytest.approx(sol.star, rel=1e-10)
    assert at0.u == pytest.approx(sol.waves[1].speed, rel=1e-10)
    # exactly at the shock: right limit
    s3 = sol.waves[2].speed
    assert _first_state(sol, UL, UR, s3) == UR
    assert _first_state(sol, UL, UR, s3 - 1e-9) != UR
    # exactly at the contact: right limit (right star state)
    contact = sol.waves[1]
    assert _first_state(sol, UL, UR, contact.speed).rho == pytest.approx(contact.right.rho)


def test_sample_waves_one_pass_matches_per_point_scan(rng):
    cases = [(m1_state(1.0, 0.0, 1.0, G), m1_state(0.125, 0.0, 0.1, G))]
    for _ in range(20):
        cases.append((m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                               rng.uniform(0.3, 3.0), G),
                      m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                               rng.uniform(0.3, 3.0), G)))
        model = (Model.M2, Model.M3)[int(rng.integers(0, 2))]
        cases.append((iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5), 1.0),
                      iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5), 1.0)))
    kinds = set()
    fan_points = 0
    for UL, UR in cases:
        if UL.model is Model.M1:
            waves = solve_riemann_m1(UL, UR, G).waves
        else:
            waves = solve_riemann_iso(UL, UR, G).waves
        # random points plus every shock, contact and fan edge, where the
        # right limit wins
        edges = [s for w in waves for s in _speeds(w)]
        kinds.update(w.kind for w in waves)
        xis = sorted(list(rng.uniform(min(edges) - 1.0, max(edges) + 1.0, 40)) + edges)
        runs = sample_waves(waves, UL, UR, xis, G)
        assert all(n > 0 for _, n in runs)
        assert sum(n for _, n in runs) == len(xis)
        assert all(a is not b for (a, _), (b, _) in zip(runs, runs[1:]))
        regions = [UL, UR] + [w.right for w in waves]
        got = [st for st, n in runs for _ in range(n)]
        for xi, st in zip(xis, got):
            want = sample_at(waves, UL, UR, xi, G)
            if any(want is r for r in regions):
                assert st is want
            else:
                assert st == want
        # every fan point is its own run of 1
        for st, n in runs:
            if not any(st is r for r in regions):
                assert n == 1
                fan_points += 1
        for w in waves:
            if w.kind != RAREFACTION:
                (at, n), = sample_waves(waves, UL, UR, [w.speed], G)
                assert at is (w.right if w is not waves[-1] else UR) and n == 1
        assert sample_waves(waves, UL, UR, [], G) == []
    assert kinds == {SHOCK, RAREFACTION, CONTACT}
    assert fan_points > 0


def test_fan_sampling_continuity(rng):
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    fan = sol.waves[0]
    head, tail = _speeds(fan)
    st_head = fan_state(fan, head, G)
    st_tail = fan_state(fan, tail, G)
    assert st_head.rho == pytest.approx(UL.rho, rel=1e-12)
    assert st_tail.rho == pytest.approx(fan.right.rho, rel=1e-12)


def test_wave_speed_ordering(rng):
    for _ in range(50):
        UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        sol = solve_riemann_m1(UL, UR, G)
        speeds = [s for w in sol.waves for s in _speeds(w)]
        assert all(a <= b + 1e-12 for a, b in zip(speeds, speeds[1:]))
