"""Compressor coupling: residuals, determinant signs, entropy condition,
and head/power consistency."""

from math import sqrt

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
    CompressorProblem,
    proof_determinant,
    solve_compressor,
)
from gasnet.junction import PipeSpec, coupling_jacobian, coupling_residual, fd_jacobian

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
        CompressorProblem((PipeSpec("a", 1.0, Model.M3), st1),
                          (PipeSpec("b", 2.0, Model.M3), st2), ctrl, G)
    with pytest.raises(NotSubsonic):
        CompressorProblem((PipeSpec("a", 1.0, Model.M3), st2),
                          (PipeSpec("b", 1.0, Model.M3), st2), ctrl, G)


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
    prob = CompressorProblem((PipeSpec("a", 1.0, Model.M1), st1),
                             (PipeSpec("b", 1.0, Model.M1), st2),
                             CompressorControl(ADIABATIC_HEAD, 0.0), GSI)
    sigma0, tau0 = prob.base_parameters()
    res = coupling_residual(prob, np.concatenate([sigma0, tau0]))
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
                    prob.inlet[1].rho, rel=1e-12)


def test_power_balance_needs_positive_flux(rng):
    prob = balanced_compressor(rng, G, Model.M3, Model.M3, POWER)
    sigma0, tau0 = prob.base_parameters()
    params = np.concatenate([sigma0, tau0])
    params[1] = 1e-12   # outlet density ~ 0 makes q2 < 0 on the wave curve
    with pytest.raises(NonPositiveFlux):
        coupling_residual(prob, params)


def test_jacobian_analytic_vs_fd(rng):
    for kind in (ADIABATIC_HEAD, POWER):
        for m_in in MODELS:
            for m_out in MODELS:
                prob = balanced_compressor(rng, G, m_in, m_out, kind)
                sigma0, tau0 = prob.base_parameters()
                x0 = np.concatenate([sigma0, tau0])
                for x in (x0, x0 * (1.0 + 0.05 * rng.uniform(-1, 1, size=len(x0)))):
                    Ja = coupling_jacobian(prob, x)
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
            J = coupling_jacobian(prob, np.concatenate([sigma0, tau0]))
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
    spec, st = prob.inlet
    if st.model is Model.M1:
        from gasnet import PipeState

        st2 = PipeState(Model.M1, st.rho * factor, st.q, E=st.E * factor)
    else:
        st2 = iso_state(st.model, st.rho * factor, st.q / (st.rho * factor), st.kappa)
    return CompressorProblem((spec, st2), prob.outlet, prob.control, prob.constants)


def test_solution_against_2d_bisection_oracle(rng):
    # CP1 on two isentropic pipes reduces to two equations in
    # (sigma1, sigma2): solve them by nested bisection, independently
    prob = balanced_compressor(rng, G, Model.M3, Model.M3, ADIABATIC_HEAD)
    pert = perturb_inlet(prob, 1.005)
    sol = solve_compressor(pert)

    def residual_rows(s1, s2):
        return coupling_residual(pert, np.array([s1, s2]))

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

    lo, hi = pert.inlet[1].rho * 0.8, pert.inlet[1].rho * 1.2
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
        prob_h = CompressorProblem(pert.inlet, pert.outlet,
                                   CompressorControl(ADIABATIC_HEAD, head), G)
        sol_h = solve_compressor(prob_h)
        for a, b in zip(sol.star_states, sol_h.star_states):
            assert a.rho == pytest.approx(b.rho, rel=1e-6)
            assert a.q == pytest.approx(b.q, rel=1e-6)


def test_idle_control_flagged(rng):
    st1 = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st2 = iso_state(Model.M3, 1.0, +0.3, 1.0)
    prob = CompressorProblem((PipeSpec("a", 1.0, Model.M3), st1),
                             (PipeSpec("b", 1.0, Model.M3), st2),
                             CompressorControl(ADIABATIC_HEAD, 0.0), G)
    sol = solve_compressor(prob)
    assert sol.extras["idle_control"] is True
    assert sol.residual_norm <= 1e-12


def test_entropy_assignment_for_iso_outlet(rng):
    prob = balanced_compressor(rng, G, Model.M1, Model.M2, ADIABATIC_HEAD)
    pert = perturb_inlet(prob, 1.003)
    sol = solve_compressor(pert)
    out_id = prob.outlet[0].id
    assert sol.extras["assigned_kappa"][out_id] == pytest.approx(
        G.kappa_from_entropy(sol.s_star), rel=1e-12)
    assert sol.star_states[1].kappa == pert.outlet[1].kappa  # star state not mutated
