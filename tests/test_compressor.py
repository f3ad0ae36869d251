"""Compressor coupling: residuals, determinant signs, entropy condition,
and head/power consistency."""

from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from conftest import balanced_compressor
from gasnet import (
    GasConstants,
    Model,
    NonPositiveFlux,
    NotSubsonic,
    iso_state,
    m1_state,
    pressure,
    temperature,
)
from gasnet.compressor import (
    ADIABATIC_HEAD,
    POWER,
    CompressorControl,
    solve_compressor,
)
from gasnet.junction import JunctionProblem, PipeSpec, state_residuals, verify_coupling
from gasnet.scenario import parse_scenario
from reference import fd_jacobian, jacobian_at, proof_determinant, residual_at

G = GasConstants(gamma=1.4, R=1.0)
GSI = GasConstants(gamma=1.4, R=287.0)
MODELS = (Model.M1, Model.M2, Model.M3)


def test_control_validation():
    with pytest.raises(ValueError):
        CompressorControl("CPX", 1.0)
    with pytest.raises(ValueError):
        CompressorControl(ADIABATIC_HEAD, -1.0)
    with pytest.raises(ValueError):
        CompressorControl(POWER, 1.0)  # missing cp_coeff


def test_problem_validation():
    st1 = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st2 = iso_state(Model.M3, 1.0, +0.3, 1.0)
    ctrl = CompressorControl(ADIABATIC_HEAD, 0.0)
    with pytest.raises(ValueError):
        JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st1),
                         (PipeSpec("b", 2.0, Model.M3), st2)], G, ctrl)
    with pytest.raises(NotSubsonic):
        JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st2),
                         (PipeSpec("b", 1.0, Model.M3), st2)], G, ctrl)


def test_head_balance_value_si():
    # gamma/(gamma-1) * R * T1 * (2^((gamma-1)/gamma) - 1) at T1 = 300 K
    expected = 3.5 * 287.0 * 300.0 * (2.0 ** (0.4 / 1.4) - 1.0)
    assert expected == pytest.approx(65999.7646945187, rel=1e-12)
    rho1 = 1.0
    p1 = rho1 * 287.0 * 300.0
    c1 = sqrt(1.4 * p1 / rho1)
    st1 = m1_state(rho1, -0.3 * c1, p1, GSI)
    # outlet at double pressure along the isentrope of the inlet
    rho2 = rho1 * 2.0 ** (1.0 / 1.4)
    st2 = m1_state(rho2, -st1.q / rho2, 2.0 * p1, GSI)
    prob = JunctionProblem([(PipeSpec("a", 1.0, Model.M1), st1),
                            (PipeSpec("b", 1.0, Model.M1), st2)],
                           GSI, CompressorControl(ADIABATIC_HEAD, 0.0))
    sigma0, tau0 = prob.base_parameters()
    res = residual_at(prob, np.concatenate([sigma0, tau0]))
    assert res[1] == pytest.approx(expected, rel=1e-10)   # H* = 0 here
    assert res[0] == pytest.approx(0.0, abs=1e-12)


def test_balanced_data_is_fixed_point(rng):
    for kind in (ADIABATIC_HEAD, POWER):
        for m_in in MODELS:
            for m_out in MODELS:
                prob = balanced_compressor(rng, G, m_in, m_out, kind)
                sol = solve_compressor(prob)
                assert sol.iterations == 0
                assert sol.residual_norm <= 1e-12
                assert sol.star_states[0].rho == pytest.approx(
                    prob.pipes[0].state.rho, rel=1e-12)


def test_power_balance_needs_positive_flux(rng):
    prob = balanced_compressor(rng, G, Model.M3, Model.M3, POWER)
    sigma0, tau0 = prob.base_parameters()
    params = np.concatenate([sigma0, tau0])
    params[1] = 1e-12   # outlet density ~ 0 makes q2 < 0 on the wave curve
    with pytest.raises(NonPositiveFlux):
        residual_at(prob, params)


def test_jacobian_analytic_vs_fd(rng):
    for kind in (ADIABATIC_HEAD, POWER):
        for m_in in MODELS:
            for m_out in MODELS:
                prob = balanced_compressor(rng, G, m_in, m_out, kind)
                sigma0, tau0 = prob.base_parameters()
                x0 = np.concatenate([sigma0, tau0])
                for x in (x0, x0 * (1.0 + 0.05 * rng.uniform(-1, 1, size=len(x0)))):
                    Ja = jacobian_at(prob, x)
                    Jf = fd_jacobian(prob, x)
                    scale = np.abs(Jf).max()
                    gap = np.abs(Ja - Jf)
                    allow = 2e-6 * np.maximum(np.abs(Ja), np.abs(Jf)) + 1e-8 * scale
                    assert (gap <= allow).all()


def test_determinant_signs_all_cases(rng):
    for kind in (ADIABATIC_HEAD, POWER):
        for m_out in MODELS:
            for m_in in MODELS:
                for _ in range(5):
                    prob = balanced_compressor(rng, G, m_in, m_out, kind)
                    det = proof_determinant(prob)
                    if m_out is Model.M1:
                        assert det > 0.0, (kind, m_in, m_out)
                    else:
                        assert det < 0.0, (kind, m_in, m_out)


def test_row_derivative_signs(rng):
    # with the regularity-argument orientation (control - balance), the
    # pressure-rise row has d/dsigma1 > 0 and d/dsigma2 < 0 at base
    for kind in (ADIABATIC_HEAD, POWER):
        for m_in in MODELS:
            prob = balanced_compressor(rng, G, m_in, Model.M1, kind)
            sigma0, tau0 = prob.base_parameters()
            J = jacobian_at(prob, np.concatenate([sigma0, tau0]))
            assert -J[1, 0] > 0.0
            assert -J[1, 1] < 0.0
            if kind == ADIABATIC_HEAD:
                assert J[1, 2] == pytest.approx(0.0, abs=1e-12)
            else:
                assert J[1, 2] > 0.0   # rises with the contact shift
            assert J[0, 0] > 0.0 and J[0, 1] > 0.0


def test_entropy_condition_temperature_ratio(rng):
    e = 0.4 / 1.4
    for m_in in MODELS:
        prob = balanced_compressor(rng, G, m_in, Model.M1, ADIABATIC_HEAD)
        pert = perturb_inlet(prob, 1.004)
        sol = solve_compressor(pert)
        st1, st2 = sol.star_states
        T1, T2 = temperature(st1, G), temperature(st2, G)
        p1, p2 = pressure(st1, G), pressure(st2, G)
        assert T2 / T1 == pytest.approx((p2 / p1) ** e, rel=1e-8)


def perturb_inlet(prob, factor):
    spec, st = prob.pipes[0].spec, prob.pipes[0].state
    if st.model is Model.M1:
        from gasnet import PipeState

        st2 = PipeState(Model.M1, st.rho * factor, st.q, E=st.E * factor)
    else:
        st2 = iso_state(st.model, st.rho * factor, st.q / (st.rho * factor), st.kappa)
    out = prob.pipes[1]
    return JunctionProblem([(spec, st2), (out.spec, out.state)], prob.constants, prob.control)


def test_solution_independent_of_the_common_area(rng):
    # the mass row carries the area its row scale carries, so the scaled
    # system, and with it the Newton path, does not depend on the area
    for kind in (ADIABATIC_HEAD, POWER):
        for m_in in MODELS:
            for m_out in MODELS:
                prob = perturb_inlet(balanced_compressor(rng, G, m_in, m_out, kind), 1.01)
                sol1, sol2 = (solve_compressor(JunctionProblem(
                    [(PipeSpec(p.spec.id, area, p.spec.model), p.state) for p in prob.pipes],
                    G, prob.control)) for area in (1.0, 2.0))
                assert sol1.iterations == sol2.iterations
                assert sol2.residual_norm == pytest.approx(sol1.residual_norm, rel=1e-12)
                for a, b in zip(sol1.star_states, sol2.star_states):
                    assert b.rho == pytest.approx(a.rho, rel=1e-12)
                    assert b.q == pytest.approx(a.q, rel=1e-12)
                    if a.model is Model.M1:
                        assert b.E == pytest.approx(a.E, rel=1e-12)


def test_solution_against_2d_bisection_oracle(rng):
    # CP1 on two isentropic pipes reduces to two equations in
    # (sigma1, sigma2): solve them by nested bisection, independently
    prob = balanced_compressor(rng, G, Model.M3, Model.M3, ADIABATIC_HEAD)
    pert = perturb_inlet(prob, 1.005)
    sol = solve_compressor(pert)

    def residual_rows(s1, s2):
        return residual_at(pert, [s1, s2])

    def mass_solve(s1, lo=1e-6, hi=20.0):
        def f(s2):
            return residual_rows(s1, s2)[0]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def rise_residual(s1):
        return residual_rows(s1, mass_solve(s1))[1]

    lo, hi = pert.pipes[0].state.rho * 0.8, pert.pipes[0].state.rho * 1.2
    assert rise_residual(lo) * rise_residual(hi) < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if rise_residual(mid) * rise_residual(lo) <= 0:
            hi = mid
        else:
            lo = mid
    s1 = 0.5 * (lo + hi)
    s2 = mass_solve(s1)
    assert sol.sigma[0] == pytest.approx(s1, rel=1e-7)
    assert sol.sigma[1] == pytest.approx(s2, rel=1e-7)


def test_power_to_head_consistency(rng):
    for _ in range(10):
        m_in = MODELS[rng.integers(0, 3)]
        m_out = MODELS[rng.integers(0, 3)]
        prob = balanced_compressor(rng, G, m_in, m_out, POWER)
        pert = perturb_inlet(prob, 1.0 + 0.004 * rng.uniform(-1, 1))
        sol = solve_compressor(pert)
        q2 = sol.star_states[1].q
        head = prob.control.value / (prob.control.cp_coeff * q2)
        prob_h = JunctionProblem([(p.spec, p.state) for p in pert.pipes], G,
                                 CompressorControl(ADIABATIC_HEAD, head))
        sol_h = solve_compressor(prob_h)
        for a, b in zip(sol.star_states, sol_h.star_states):
            assert a.rho == pytest.approx(b.rho, rel=1e-6)
            assert a.q == pytest.approx(b.q, rel=1e-6)


def test_idle_control_flagged(rng):
    st1 = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st2 = iso_state(Model.M3, 1.0, +0.3, 1.0)
    prob = JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st1),
                            (PipeSpec("b", 1.0, Model.M3), st2)],
                           G, CompressorControl(ADIABATIC_HEAD, 0.0))
    sol = solve_compressor(prob)
    assert sol.extras["idle_control"] is True
    assert sol.residual_norm <= 1e-12


def test_entropy_assignment_for_iso_outlet(rng):
    prob = balanced_compressor(rng, G, Model.M1, Model.M2, ADIABATIC_HEAD)
    pert = perturb_inlet(prob, 1.003)
    sol = solve_compressor(pert)
    assert sol.star_states[1].kappa == pert.pipes[1].state.kappa  # star state not mutated


def test_verify_coupling_refuses_a_compressor():
    # verify_coupling checks a junction's conditions; at a compressor it
    # raises and names state_residuals, which checks the control condition
    text = (Path(__file__).parents[1] / "scenarios" / "compressor_head.yaml").read_text()
    sc = parse_scenario(text)
    prob = JunctionProblem(list(zip(sc.specs, sc.trace_states())), sc.constants, sc.control)
    sol = solve_compressor(prob)
    with pytest.raises(ValueError, match="state_residuals"):
        verify_coupling(sol, prob)
    assert state_residuals(prob, sol.star_states)["control"] <= 1e-8
