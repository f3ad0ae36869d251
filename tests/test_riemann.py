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
    m1_state,
    pressure,
    thermo_quantities,
)
from gasnet.riemann import (
    CONTACT,
    RAREFACTION,
    SHOCK,
    fan_state,
    sample_solution,
    sample_waves,
    solve_riemann_iso,
    solve_riemann_m1,
)

G = GasConstants(gamma=1.4, R=1.0)
GAMMA = 1.4


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
    from gasnet.fronttracking import flux_vector

    fl = np.array(flux_vector(wave.left, g))
    fr = np.array(flux_vector(wave.right, g))
    if wave.left.model is Model.M1:
        ul = np.array([wave.left.rho, wave.left.q, wave.left.E])
        ur = np.array([wave.right.rho, wave.right.q, wave.right.E])
    else:
        ul = np.array([wave.left.rho, wave.left.q])
        ur = np.array([wave.right.rho, wave.right.q])
    s = wave.speeds[0]
    return np.linalg.norm(fl - fr - s * (ul - ur)) / max(np.linalg.norm(fl), 1e-300)


# -- tests ----------------------------------------------------------------


def test_identity_data():
    UL = m1_state(1.0, 0.3, 1.0, G)
    sol = solve_riemann_m1(UL, UL, G)
    assert sol.p_star == pytest.approx(1.0, rel=1e-12)
    assert sol.u_star == pytest.approx(0.3, rel=1e-12)
    assert sol.rho_l_star == pytest.approx(1.0, rel=1e-12)
    L = iso_state(Model.M3, 1.2, 0.1, 1.0)
    s3 = solve_riemann_iso(L, L, Model.M3, G)
    assert s3.rho_star == pytest.approx(1.2, rel=1e-12)
    assert s3.q_star == pytest.approx(0.12, rel=1e-12)


def test_sod_star_values():
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert sol.p_star == pytest.approx(0.30313, abs=1e-5)
    assert sol.u_star == pytest.approx(0.92745, abs=1e-5)
    assert sol.p_star == pytest.approx(bisect_p_star(UL, UR), abs=1e-10)
    kinds = [w.kind for w in sol.waves]
    assert kinds == [RAREFACTION, "contact", SHOCK]


def test_symmetric_compression():
    a = 0.3
    UL = m1_state(1.0, +a, 1.0, G)
    UR = m1_state(1.0, -a, 1.0, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert sol.u_star == pytest.approx(0.0, abs=1e-10)
    assert sol.rho_l_star == pytest.approx(sol.rho_r_star, rel=1e-12)


def test_m3_symmetric():
    a = 0.2
    L = iso_state(Model.M3, 1.0, +a, 1.0)
    R = iso_state(Model.M3, 1.0, -a, 1.0)
    sol = solve_riemann_iso(L, R, Model.M3, G)
    assert sol.q_star == pytest.approx(0.0, abs=1e-10)
    # rho* solves 2*theta3(rho*) = 2a against the shared base state
    assert _theta3_oracle(sol.rho_star, 1.0, 1.0) == pytest.approx(a, abs=1e-10)


def test_m2_example_against_oracle():
    L = iso_state(Model.M2, 1.0, 0.3, 1.0)
    R = iso_state(Model.M2, 0.8, 0.0, 1.0)
    sol = solve_riemann_iso(L, R, Model.M2, G)
    assert sol.rho_star == pytest.approx(bisect_rho_star(L, R, Model.M2), abs=1e-8)
    assert sol.rho_star == pytest.approx(1.017365098560751, rel=1e-10)
    assert sol.q_star == pytest.approx(0.2844494054481642, rel=1e-10)


def test_vacuum_raises():
    UL = m1_state(1.0, -6.0, 1.0, G)
    UR = m1_state(1.0, +6.0, 1.0, G)
    with pytest.raises(VacuumFormation):
        solve_riemann_m1(UL, UR, G)


def test_left_right_consistency(rng):
    for _ in range(100):
        UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        sol = solve_riemann_m1(UL, UR, G)
        p_l, p_r = pressure(UL, G), pressure(UR, G)
        lhs = UL.u - _psi_oracle(sol.p_star, p_l, UL.rho)
        rhs = UR.u + _psi_oracle(sol.p_star, p_r, UR.rho)
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
            assert sol.p_star == pytest.approx(bisect_p_star(UL, UR), abs=1e-8)
        else:
            kappa = rng.uniform(0.5, 2.0)
            UL = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            UR = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            sol = solve_riemann_iso(UL, UR, model, G)
            assert sol.rho_star == pytest.approx(
                bisect_rho_star(UL, UR, model), abs=1e-8)
        for w in sol.waves:
            if w.kind == SHOCK:
                assert rankine_hugoniot_residual(w, G) <= 1e-8


def test_riemann_invariants_constant_through_fans(rng):
    # u + 2c/(gamma-1) through 1-fans, u - 2c/(gamma-1) through 3-/2-fans,
    # entropy constant in all fans (M1)
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
            sol = solve_riemann_iso(UL, UR, model, G)
        for w in sol.waves:
            if w.kind != RAREFACTION or abs(w.strength) < 1e-8:
                continue
            hits += 1
            head, tail = w.speeds
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
                if inv_a is not None:
                    inv = st.u - sign * 2.0 * tq.c / (GAMMA - 1.0)
                    assert inv == pytest.approx(inv_a, rel=1e-8, abs=1e-8)
                if st.model is Model.M1:
                    assert tq.s == pytest.approx(thermo_quantities(anchor, G).s,
                                                 abs=1e-8)
        if hits > 50:
            break
    assert hits > 10


def test_sampling_regions():
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    assert sample_solution(sol, UL, UR, -10.0, G) == UL
    assert sample_solution(sol, UL, UR, +10.0, G) == UR
    at0 = sample_solution(sol, UL, UR, 0.0, G)
    assert pressure(at0, G) == pytest.approx(sol.p_star, rel=1e-10)
    assert at0.u == pytest.approx(sol.u_star, rel=1e-10)
    # exactly at the shock: right limit
    s3 = sol.waves[2].speeds[0]
    assert sample_solution(sol, UL, UR, s3, G) == UR
    assert sample_solution(sol, UL, UR, s3 - 1e-9, G) != UR
    # exactly at the contact: right limit (right star state)
    assert sample_solution(sol, UL, UR, sol.u_star, G).rho == pytest.approx(
        sol.rho_r_star)


def _sample_at(waves, left, right, xi, g):
    """Per-point reference: scan the waves left to right for one xi."""
    state = left
    for wave in waves:
        if xi < wave.leftmost_speed:
            return state
        if wave.kind == RAREFACTION and xi < wave.rightmost_speed:
            return fan_state(wave, xi, g)
        state = wave.right
    return right


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
    for UL, UR in cases:
        if UL.model is Model.M1:
            waves = solve_riemann_m1(UL, UR, G).waves
        else:
            waves = solve_riemann_iso(UL, UR, UL.model, G).waves
        # random points plus every shock, contact and fan edge, where the
        # right limit wins
        edges = [s for w in waves for s in w.speeds]
        kinds.update(w.kind for w in waves)
        xis = sorted(list(rng.uniform(min(edges) - 1.0, max(edges) + 1.0, 40)) + edges)
        got = sample_waves(waves, UL, UR, xis, G)
        regions = [UL, UR] + [w.right for w in waves]
        for xi, st in zip(xis, got):
            want = _sample_at(waves, UL, UR, xi, G)
            if any(want is r for r in regions):
                assert st is want
            else:
                assert st == want
        for w in waves:
            if w.kind != RAREFACTION:
                at = sample_waves(waves, UL, UR, [w.speeds[0]], G)[0]
                assert at is (w.right if w is not waves[-1] else UR)
    assert kinds == {SHOCK, RAREFACTION, CONTACT}


def test_fan_sampling_continuity(rng):
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sol = solve_riemann_m1(UL, UR, G)
    fan = sol.waves[0]
    head, tail = fan.speeds
    st_head = fan_state(fan, head, G)
    st_tail = fan_state(fan, tail, G)
    assert st_head.rho == pytest.approx(UL.rho, rel=1e-12)
    assert st_tail.rho == pytest.approx(sol.rho_l_star, rel=1e-12)


def test_wave_speed_ordering(rng):
    for _ in range(50):
        UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.3, 3.0), G)
        sol = solve_riemann_m1(UL, UR, G)
        speeds = [s for w in sol.waves for s in w.speeds]
        assert all(a <= b + 1e-12 for a, b in zip(speeds, speeds[1:]))
