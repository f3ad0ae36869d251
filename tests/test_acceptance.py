"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure) and checks its wall-clock budget.  Tolerances are pinned here
and nowhere else.
"""

import functools
import time
from math import sqrt

import numpy as np
import pytest

from conftest import (
    balanced_compressor,
    build_fixed_point_junction,
    perturb_problem,
    random_model_mix,
    state_from_enthalpy,
)
from gasnet import GasConstants, Model, iso_state, m1_state, pressure, temperature
from gasnet.compressor import (
    ADIABATIC_HEAD,
    POWER,
    CompressorControl,
    CompressorProblem,
    proof_determinant,
    solve_compressor,
)
from gasnet.fronttracking import (
    FrictionSource,
    ZeroSource,
    init_approximation,
    l1_distance,
    operator_split_run,
)
from gasnet.junction import (
    JunctionProblem,
    PipeSpec,
    coupling_jacobian,
    fd_jacobian,
    pivot_blocks,
    solve_junction,
    verify_coupling,
)
from gasnet.riemann import SHOCK, solve_riemann_iso, solve_riemann_m1
from test_riemann import bisect_p_star, bisect_rho_star, rankine_hugoniot_residual

G = GasConstants(gamma=1.4, R=1.0)


def criterion(name, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL [{time.perf_counter() - t0:.2f} s]")
                raise
            elapsed = time.perf_counter() - t0
            verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
            print(f"{name}: {verdict} [{elapsed:.2f} s < {budget_s:g} s]")
            assert elapsed < budget_s, f"runtime {elapsed:.2f}s over {budget_s}s budget"
        return run
    return wrap


@criterion("criterion 1 (fixed-point exactness)", 1.0)
def test_criterion_1_fixed_point_exactness():
    rng = np.random.default_rng(101)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        sol = solve_junction(prob)
        assert sol.iterations == 0, "fixed point required a Newton correction"
        assert sol.residual_norm <= 1e-12
        for p in prob.pipes:
            st = sol.star_states[p.input_index]
            assert st.rho == pytest.approx(p.state.rho, rel=1e-12)
            assert st.q == pytest.approx(p.state.q, rel=1e-12, abs=1e-14)


@criterion("criterion 2 (coupling-condition residuals)", 10.0)
def test_criterion_2_coupling_residuals():
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        base = build_fixed_point_junction(rng, G, models_in, models_out)
        prob = perturb_problem(base, 0.01, rng)
        sol = solve_junction(prob)
        diag = verify_coupling(sol, prob)
        assert diag.mass_residual <= 1e-10
        assert diag.max_enthalpy_spread <= 1e-8
        assert diag.max_entropy_residual <= 1e-8


@criterion("criterion 3 (Jacobian fidelity)", 10.0)
def test_criterion_3_jacobian_fidelity():
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        prob = perturb_problem(
            build_fixed_point_junction(rng, G, models_in, models_out), 0.05, rng)
        sigma0, tau0 = prob.base_parameters()
        Ja = coupling_jacobian(prob, np.concatenate([sigma0, tau0]))
        Jf = fd_jacobian(prob, np.concatenate([sigma0, tau0]))
        scale = np.abs(Jf).max()
        gap = np.abs(Ja - Jf)
        allow = 1e-6 * np.maximum(np.abs(Ja), np.abs(Jf)) + 1e-9 * scale
        assert (gap <= allow).all(), \
            f"trial {trial}: worst mismatch {(gap / allow).max():g}x allowance"


@criterion("criterion 4 (determinant-sign structure)", 20.0)
def test_criterion_4_determinant_signs():
    rng = np.random.default_rng(404)
    with_m1_out = 0
    without_m1_out = 0
    while with_m1_out < 100 or without_m1_out < 100:
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        if with_m1_out < 100 and Model.M1 not in models_out:
            models_out = list(models_out) + [Model.M1]
        elif without_m1_out < 100:
            models_out = [Model.M2 if m is Model.M1 else m for m in models_out]
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        if prob.n0 > 0:
            with_m1_out += 1
            for block in pivot_blocks(prob):
                assert np.linalg.det(block) < 0.0
        else:
            without_m1_out += 1
            sigma0, tau0 = prob.base_parameters()
            J = coupling_jacobian(prob, np.concatenate([sigma0, tau0]))
            assert abs(np.linalg.det(J)) > 0.0
            assert np.linalg.cond(J) < 1e12
    models = (Model.M1, Model.M2, Model.M3)
    for kind in (ADIABATIC_HEAD, POWER):
        for m_out in models:
            count = 0
            while count < 100:
                m_in = models[rng.integers(0, 3)]
                prob = balanced_compressor(rng, G, m_in, m_out, kind)
                det = proof_determinant(prob)
                if m_out is Model.M1:
                    assert det > 0.0, (kind, m_in.value, m_out.value)
                else:
                    assert det < 0.0, (kind, m_in.value, m_out.value)
                count += 1


@criterion("criterion 5 (Riemann-solver oracle)", 30.0)
def test_criterion_5_riemann_oracle():
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    sod = solve_riemann_m1(UL, UR, G)
    assert sod.p_star == pytest.approx(0.30313, abs=1e-5)
    assert sod.u_star == pytest.approx(0.92745, abs=1e-5)
    assert abs(sod.p_star - bisect_p_star(UL, UR)) <= 1e-5

    rng = np.random.default_rng(505)
    for trial in range(500):
        model = Model(rng.choice(["M1", "M2", "M3"]))
        if model is Model.M1:
            UL = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            UR = m1_state(rng.uniform(0.3, 3.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.3, 3.0), G)
            sol = solve_riemann_m1(UL, UR, G)
            assert abs(sol.p_star - bisect_p_star(UL, UR)) <= 1e-8
        else:
            kappa = rng.uniform(0.5, 2.0)
            UL = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            UR = iso_state(model, rng.uniform(0.3, 3.0), rng.uniform(-0.4, 0.4), kappa)
            sol = solve_riemann_iso(UL, UR, model, G)
            assert abs(sol.rho_star - bisect_rho_star(UL, UR, model)) <= 1e-8
        for w in sol.waves:
            if w.kind == SHOCK:
                assert rankine_hugoniot_residual(w, G) <= 1e-8


@criterion("criterion 6 (empirical Lipschitz stability)", 10.0)
def test_criterion_6_lipschitz_stability():
    rng = np.random.default_rng(606)
    for trial in range(5):
        n = int(rng.integers(3, 6))
        models_in, models_out = random_model_mix(rng, n)
        base = build_fixed_point_junction(rng, G, models_in, models_out)
        sol0 = solve_junction(base)
        ref = np.concatenate([[s.rho for s in sol0.star_states],
                              [s.q for s in sol0.star_states]])
        base_in_order = sorted(base.pipes, key=lambda p: p.input_index)

        # initial-state perturbations
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            prob = perturb_problem(base, delta, np.random.default_rng(trial))
            sol = solve_junction(prob)
            out = np.concatenate([[s.rho for s in sol.star_states],
                                  [s.q for s in sol.star_states]])
            prob_in_order = sorted(prob.pipes, key=lambda p: p.input_index)
            inp = sum(abs(a.state.rho - b.state.rho) + abs(a.state.q - b.state.q)
                      for a, b in zip(prob_in_order, base_in_order))
            ratios.append(np.abs(out - ref).sum() / inp)
        assert max(ratios) / min(ratios) < 2.0, f"state ratios {ratios}"

        # area perturbations
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            drng = np.random.default_rng(trial + 99)
            pipes = []
            dv = 0.0
            for p in base_in_order:
                factor = 1.0 + delta * drng.uniform(-1.0, 1.0)
                dv += abs(p.spec.area * (factor - 1.0))
                pipes.append((PipeSpec(p.spec.id, p.spec.area * factor,
                                       p.spec.model), p.state))
            prob = JunctionProblem(pipes, G)
            sol = solve_junction(prob)
            out = np.concatenate([[s.rho for s in sol.star_states],
                                  [s.q for s in sol.star_states]])
            ratios.append(np.abs(out - ref).sum() / dv)
        assert max(ratios) / min(ratios) < 2.0, f"area ratios {ratios}"


def _mixed_model_tracking_scenario(epsilon=0.005, amp=0.001):
    gam = G.gamma
    h_star, kappa = 3.0, 1.0
    f_in = 0.3
    c2 = h_star / (1.0 / (gam - 1.0) + 0.5 * f_in * f_in)
    rho_in = (c2 / (kappa * gam)) ** (1.0 / (gam - 1.0))
    st_in = iso_state(Model.M2, rho_in, -f_in * sqrt(c2), kappa)
    st_out = state_from_enthalpy(Model.M3, kappa, +0.25, h_star, G)
    area_out = (-2.0 * st_in.q) / (2.0 * st_out.q)
    specs = [PipeSpec("feed", 2.0, Model.M2),
             PipeSpec("west", area_out, Model.M3),
             PipeSpec("east", area_out, Model.M3)]
    rho_i, u_i = st_in.rho, st_in.u
    rho_o, u_o = st_out.rho, st_out.u
    prof_in = [(0.2, st_in),
               (0.45, iso_state(Model.M2, rho_i * (1 + amp), u_i, kappa)),
               (0.7, iso_state(Model.M2, rho_i * (1 - 0.6 * amp), u_i * (1 + amp), kappa)),
               (None, st_in)]
    prof_w = [(0.3, st_out),
              (0.6, iso_state(Model.M3, rho_o * (1 - 0.7 * amp), u_o, kappa)),
              (None, iso_state(Model.M3, rho_o * (1 + 0.4 * amp), u_o, kappa))]
    prof_e = [(0.25, iso_state(Model.M3, rho_o * (1 + 0.5 * amp), u_o * (1 - amp), kappa)),
              (0.55, st_out),
              (None, iso_state(Model.M3, rho_o * (1 - 0.4 * amp), u_o, kappa))]
    return init_approximation(specs, [prof_in, prof_w, prof_e], G, epsilon=epsilon)


@criterion("criterion 7 (front-tracking invariants)", 60.0)
def test_criterion_7_front_tracking_invariants():
    state = _mixed_model_tracking_scenario()
    gl0 = state.glimm()
    delta = gl0.TV
    assert state.K_hat_J * gl0.V < state.K_J, "Glimm weight precondition violated"

    horizon = 4.0
    c1 = 1.0
    max_fronts = gl0.front_count
    max_tv = gl0.TV
    while state.time < horizon:
        if state.advance(horizon) >= horizon:
            break
        gl = state.glimm()
        max_fronts = max(max_fronts, gl.front_count)
        max_tv = max(max_tv, gl.TV)
        if gl.V > 0 and gl.TV > 0:
            c1 = max(c1, gl.TV / gl.V, gl.V / gl.TV)

    assert len(state.interactions) >= 50, \
        f"only {len(state.interactions)} interactions"
    y_tol = 1e-9 * max(1.0, gl0.Y)
    for r in state.interactions:
        assert r.Y_after <= r.Y_before + y_tol, \
            f"Glimm Y increased at t={r.time} ({r.kind})"
        if r.kind in ("junction", "reflection") and r.v_minus > 0:
            assert r.v_plus <= state.K_J * r.v_minus, \
                f"junction amplification {r.v_plus / r.v_minus:g} above K_J"
    tv_bound = c1 * (c1 * delta + state.K_hat_J * c1**2 * delta**2)
    assert max_tv <= tv_bound, f"TV {max_tv:g} above bound {tv_bound:g}"
    assert max_fronts < 5000, f"front count blew up ({max_fronts})"


@criterion("criterion 8 (epsilon-refinement)", 120.0)
def test_criterion_8_epsilon_refinement():
    def scenario(epsilon):
        specs_profiles = _ladder_profiles()
        return init_approximation(*specs_profiles, G, epsilon=epsilon)

    eps0 = 0.04
    runs = []
    for k in range(4):
        st = scenario(eps0 / 2**k)
        st.run(1.2)
        runs.append(st)
    x_max = max(4.0, runs[0].lambda_hat * 1.2)
    dists = [l1_distance(a, b, x_max) for a, b in zip(runs, runs[1:])]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:])), \
        f"L1 ladder not monotone: {dists}"


def _ladder_profiles():
    gam = G.gamma
    h_star, kappa = 3.0, 1.0
    f_in = 0.3
    c2 = h_star / (1.0 / (gam - 1.0) + 0.5 * f_in * f_in)
    rho_in = (c2 / (kappa * gam)) ** (1.0 / (gam - 1.0))
    st_in = iso_state(Model.M2, rho_in, -f_in * sqrt(c2), kappa)
    st_out = state_from_enthalpy(Model.M3, kappa, +0.25, h_star, G)
    area_out = (-2.0 * st_in.q) / (2.0 * st_out.q)
    specs = [PipeSpec("feed", 2.0, Model.M2),
             PipeSpec("west", area_out, Model.M3),
             PipeSpec("east", area_out, Model.M3)]
    lo_in = iso_state(Model.M2, rho_in * 0.85, st_in.u, kappa)
    lo_out = iso_state(Model.M3, st_out.rho * 0.88, st_out.u, kappa)
    profiles = [[(0.5, st_in), (None, lo_in)],
                [(0.4, st_out), (None, lo_out)],
                st_out]
    return specs, profiles


@criterion("criterion 9 (operator splitting)", 30.0)
def test_criterion_9_operator_splitting():
    gam = G.gamma
    kappa = 1.0
    rho = 1.0
    c = sqrt(kappa * gam)
    st_in = iso_state(Model.M2, rho, -0.3 * c, kappa)
    st_out = iso_state(Model.M2, rho, +0.3 * c, kappa)
    specs = [PipeSpec("a", 1.0, Model.M2), PipeSpec("b", 1.0, Model.M2)]
    jump_in = iso_state(Model.M2, rho * 1.02, st_in.u, kappa)
    profiles = [[(0.4, st_in), (None, jump_in)], st_out]

    # G = 0: splitting reproduces the homogeneous evolution
    hom = init_approximation(specs, profiles, G, epsilon=0.01)
    hom.run(1.0)
    split = init_approximation(specs, profiles, G, epsilon=0.01)
    operator_split_run(split, ZeroSource(), 1.0, dt_split=0.05)
    for ta, tb in zip(hom.pipes, split.pipes):
        assert ta.trace.rho == pytest.approx(tb.trace.rho, rel=1e-14)
        assert ta.trace.q == pytest.approx(tb.trace.q, rel=1e-14, abs=1e-14)
        assert len(ta.fronts) == len(tb.fronts)
        for fa, fb in zip(ta.fronts, tb.fronts):
            assert fa.at(hom.time) == pytest.approx(fb.at(split.time), rel=1e-13, abs=1e-13)
            assert fa.strength == pytest.approx(fb.strength, rel=1e-13, abs=1e-14)

    # friction on a uniform state: first-order match to the exact solution
    lam_f, dia = 0.05, 0.5
    src = FrictionSource(lam_f, dia)
    horizon = 2.0
    q0 = st_out.q
    a = lam_f / (2.0 * dia * rho)
    q_exact = q0 / (1.0 + a * q0 * horizon)
    errors = []
    for dt in (0.2, 0.1, 0.05):
        state = init_approximation(specs, [st_in, st_out], G, epsilon=0.01)
        operator_split_run(state, src, horizon, dt)
        errors.append(abs(state.pipes[1].trace.q - q_exact))
    for e1, e2 in zip(errors, errors[1:]):
        assert e2 / e1 == pytest.approx(0.5, abs=0.15), \
            f"splitting error not first order: {errors}"


@criterion("criterion 10 (compressor consistency)", 10.0)
def test_criterion_10_compressor_consistency():
    rng = np.random.default_rng(1010)
    models = (Model.M1, Model.M2, Model.M3)
    e = (G.gamma - 1.0) / G.gamma
    solved = 0
    while solved < 50:
        m_in = models[rng.integers(0, 3)]
        m_out = models[rng.integers(0, 3)]
        prob = balanced_compressor(rng, G, m_in, m_out, POWER)
        spec, st = prob.inlet
        factor = 1.0 + 0.004 * rng.uniform(-1.0, 1.0)
        if st.model is Model.M1:
            from gasnet import PipeState

            st_p = PipeState(Model.M1, st.rho * factor, st.q, E=st.E * factor)
        else:
            st_p = iso_state(st.model, st.rho * factor,
                             st.q / (st.rho * factor), st.kappa)
        pert = CompressorProblem((spec, st_p), prob.outlet, prob.control, G)
        sol = solve_compressor(pert)
        solved += 1
        q2 = sol.star_states[1].q
        head = prob.control.value / (prob.control.cp_coeff * q2)
        sol_h = solve_compressor(CompressorProblem(
            pert.inlet, pert.outlet, CompressorControl(ADIABATIC_HEAD, head), G))
        for a, b in zip(sol.star_states, sol_h.star_states):
            assert a.rho == pytest.approx(b.rho, rel=1e-6)
            assert a.q == pytest.approx(b.q, rel=1e-6)
        if m_out is Model.M1:
            st1, st2 = sol.star_states
            T1, T2 = temperature(st1, G), temperature(st2, G)
            p1, p2 = pressure(st1, G), pressure(st2, G)
            assert T2 / T1 == pytest.approx((p2 / p1) ** e, rel=1e-8)
