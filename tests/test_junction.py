"""Junction coupling: residual assembly, Jacobians, Newton solve, and the
determinant-sign structure of the base-point blocks."""

from math import exp, sqrt

import numpy as np
import pytest

from conftest import (
    build_fixed_point_junction,
    perturb_problem,
    random_model_mix,
    state_from_enthalpy,
)
from gasnet import (
    GasConstants,
    Model,
    NotSubsonic,
    iso_state,
    m1_state,
    thermo_quantities,
)
from gasnet.junction import (
    JunctionProblem,
    PipeSpec,
    coupling_jacobian,
    coupling_residual,
    entropy_mix,
    fd_jacobian,
    pivot_blocks,
    solve_junction,
    verify_coupling,
)

G = GasConstants(gamma=1.4, R=1.0)


def _jac_close(Ja, Jf, tol=1e-6):
    # entrywise relative comparison with an absolute floor for the
    # finite-difference cancellation noise on (near-)zero entries
    scale = np.abs(Jf).max()
    allowance = tol * np.maximum(np.abs(Ja), np.abs(Jf)) + 1e-9 * scale
    gap = np.abs(Ja - Jf)
    return bool((gap <= allowance).all()), float((gap / allowance).max())


def test_problem_validation():
    st_in = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st_out = iso_state(Model.M3, 1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st_in)], G)
    with pytest.raises(ValueError):
        JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st_in),
                         (PipeSpec("b", 1.0, Model.M3), st_in)], G)
    with pytest.raises(NotSubsonic):
        zero = iso_state(Model.M3, 1.0, 0.0, 1.0)
        JunctionProblem([(PipeSpec("a", 1.0, Model.M3), zero),
                         (PipeSpec("b", 1.0, Model.M3), st_out)], G)
    with pytest.raises(ValueError):
        PipeSpec("bad", 0.0, Model.M3)


def test_orientation_declaration_checked():
    from gasnet.junction import Orientation

    st_in = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st_out = iso_state(Model.M3, 1.0, 0.3, 1.0)
    ok = JunctionProblem([
        (PipeSpec("a", 1.0, Model.M3, Orientation.INCOMING), st_in),
        (PipeSpec("b", 1.0, Model.M3, Orientation.OUTGOING), st_out),
    ], G)
    assert ok.n == 2
    with pytest.raises(ValueError):
        JunctionProblem([
            (PipeSpec("a", 1.0, Model.M3, Orientation.OUTGOING), st_in),
            (PipeSpec("b", 1.0, Model.M3), st_out),
        ], G)


def test_no_convergence_with_zero_budget(rng):
    from gasnet import NoConvergence

    models_in, models_out = random_model_mix(rng, 3)
    base = build_fixed_point_junction(rng, G, models_in, models_out)
    prob = perturb_problem(base, 0.01, rng)
    with pytest.raises(NoConvergence):
        solve_junction(prob, max_iter=0)


def test_entropy_mix_weighted_mean(rng):
    # two incoming pipes with area*flux weights 2:1 and entropies 0 and 3
    g = GasConstants(gamma=1.4, R=0.4)  # cv = 1
    kappa_a, kappa_b = 1.0, exp(3.0)    # s = cv ln kappa = 0 and 3
    st_a = iso_state(Model.M3, 1.0, -0.5, kappa_a)
    st_b = iso_state(Model.M3, 1.0, -0.5, kappa_b)
    out = state_from_enthalpy(Model.M3, 1.0, 0.4, 4.0, g)
    q_total = 2.0 * abs(st_a.q) + 1.0 * abs(st_b.q)
    pipes = [
        (PipeSpec("a", 2.0, Model.M3), st_a),
        (PipeSpec("b", 1.0, Model.M3), st_b),
        (PipeSpec("c", q_total / out.q, Model.M3), out),
    ]
    prob = JunctionProblem(pipes, g)
    sigma0, _ = prob.base_parameters()
    assert entropy_mix(prob, sigma0) == pytest.approx(1.0, rel=1e-12)


def test_entropy_mix_single_and_convexity(rng):
    for _ in range(30):
        models_in, models_out = random_model_mix(rng, int(rng.integers(2, 6)))
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        sigma0, _ = prob.base_parameters()
        s = entropy_mix(prob, sigma0)
        s_in = [thermo_quantities(prob.pipes[i].state, G).s for i in prob.incoming]
        assert min(s_in) - 1e-12 <= s <= max(s_in) + 1e-12
        if len(s_in) == 1:
            assert s == pytest.approx(s_in[0], rel=1e-12)


def test_phi_zero_at_balanced_base(rng):
    for _ in range(20):
        models_in, models_out = random_model_mix(rng, int(rng.integers(2, 7)))
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        sigma0, tau0 = prob.base_parameters()
        phi = coupling_residual(prob, np.concatenate([sigma0, tau0])) / prob.row_scales
        assert np.abs(phi).max() <= 1e-12


def test_two_pipe_passthrough_base():
    st_in = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st_out = iso_state(Model.M3, 1.0, 0.3, 1.0)
    prob = JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st_in),
                            (PipeSpec("b", 1.0, Model.M3), st_out)], G)
    sigma0, tau0 = prob.base_parameters()
    assert np.abs(coupling_residual(prob, np.concatenate([sigma0, tau0]))).max() <= 1e-14


def test_phi_first_order_response():
    # perturbing sigma of an outgoing M3 pipe changes the mass row by
    # area*lambda2*delta and its enthalpy row by -(lambda2*c/rho)*delta
    st_in = iso_state(Model.M3, 1.0, -0.3, 1.0)
    st_out = iso_state(Model.M3, 1.0, 0.3, 1.0)
    prob = JunctionProblem([(PipeSpec("a", 1.0, Model.M3), st_in),
                            (PipeSpec("b", 1.0, Model.M3), st_out)], G)
    sigma0, tau0 = prob.base_parameters()
    delta = 1e-7
    out_idx = next(i for i, p in enumerate(prob.pipes) if p.outgoing)
    sigma = sigma0.copy()
    sigma[out_idx] += delta
    phi = coupling_residual(prob, np.concatenate([sigma, tau0]))
    c = thermo_quantities(st_out, G).c
    lam2 = c
    assert phi[0] == pytest.approx(1.0 * lam2 * delta, rel=1e-6)
    assert phi[1] == pytest.approx(-(lam2 * c / st_out.rho) * delta, rel=1e-6)


def test_jacobian_analytic_vs_fd(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        sigma0, tau0 = prob.base_parameters()
        Ja = coupling_jacobian(prob, np.concatenate([sigma0, tau0]))
        Jf = fd_jacobian(prob, np.concatenate([sigma0, tau0]))
        ok, err = _jac_close(Ja, Jf)
        assert ok, f"base-point Jacobian mismatch {err:g}"
        # off the base point (both branch types get exercised)
        sigma = sigma0 * rng.uniform(0.92, 1.08, size=len(sigma0))
        tau = tau0 + rng.uniform(-0.03, 0.03, size=len(tau0))
        Ja = coupling_jacobian(prob, np.concatenate([sigma, tau]))
        Jf = fd_jacobian(prob, np.concatenate([sigma, tau]))
        ok, err = _jac_close(Ja, Jf)
        assert ok, f"off-base Jacobian mismatch {err:g}"


def test_pivot_is_max_entropy_incoming(rng):
    for _ in range(20):
        models_in, models_out = random_model_mix(rng, int(rng.integers(2, 7)))
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        s_in = {i: thermo_quantities(prob.pipes[i].state, G).s for i in prob.incoming}
        assert prob.pivot in prob.incoming
        assert s_in[prob.pivot] == max(s_in.values())


def test_block_determinants_negative(rng):
    found = 0
    while found < 25:
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        if Model.M1 not in models_out:
            models_out = list(models_out) + [Model.M1]
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        if prob.n0 == 0:
            continue
        found += 1
        for block in pivot_blocks(prob):
            assert np.linalg.det(block) < 0.0


def test_simplified_jacobian_nonsingular_when_no_m1_out(rng):
    found = 0
    while found < 25:
        n = int(rng.integers(2, 7))
        models_in, models_out = random_model_mix(rng, n)
        models_out = [m if m is not Model.M1 else Model.M2 for m in models_out]
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        assert prob.n0 == 0
        found += 1
        sigma0, tau0 = prob.base_parameters()
        J = coupling_jacobian(prob, np.concatenate([sigma0, tau0]))
        assert J.shape == (prob.n, prob.n)
        assert abs(np.linalg.det(J)) > 0.0
        assert np.linalg.cond(J) < 1e12


def test_fixed_point_solve_zero_iterations(rng):
    for _ in range(10):
        models_in, models_out = random_model_mix(rng, int(rng.integers(2, 7)))
        prob = build_fixed_point_junction(rng, G, models_in, models_out)
        sol = solve_junction(prob)
        assert sol.iterations == 0
        assert sol.residual_norm <= 1e-12
        for p in prob.pipes:
            st = sol.star_states[p.input_index]
            assert st.rho == pytest.approx(p.state.rho, rel=1e-12)
            assert st.q == pytest.approx(p.state.q, rel=1e-12, abs=1e-13)


def test_symmetric_y_junction_m3():
    # one incoming pipe of double area, two identical outgoing pipes
    kappa = 1.0
    st_out = state_from_enthalpy(Model.M3, kappa, +0.3, 3.5, G)
    st_in = iso_state(Model.M3, st_out.rho, -st_out.u, kappa)
    prob = JunctionProblem([
        (PipeSpec("feed", 2.0, Model.M3), st_in),
        (PipeSpec("west", 1.0, Model.M3), st_out),
        (PipeSpec("east", 1.0, Model.M3), st_out),
    ], G)
    sol = solve_junction(prob)
    assert sol.iterations == 0
    w, e = sol.star_states[1], sol.star_states[2]
    assert w.rho == pytest.approx(e.rho, rel=1e-14)
    assert w.q == pytest.approx(e.q, rel=1e-14)


def _brute_force_solve(problem, tol=1e-11, max_iter=400):
    """Independent continuation oracle: damped fixed-point iteration on the
    residual with a finite-difference Jacobian (no analytic derivatives,
    no line search)."""
    sigma, tau = problem.base_parameters()
    x = np.concatenate([sigma, tau])
    damping = 0.5
    for _ in range(max_iter):
        f = coupling_residual(problem, x) / problem.row_scales
        if np.abs(f).max() <= tol:
            return x
        J = fd_jacobian(problem, x) / problem.row_scales[:, None]
        x = x - damping * np.linalg.solve(J, f)
    raise AssertionError("oracle did not converge")


def test_perturbed_solutions_match_oracle(rng):
    for _ in range(10):
        models_in, models_out = random_model_mix(rng, int(rng.integers(2, 6)))
        base = build_fixed_point_junction(rng, G, models_in, models_out)
        prob = perturb_problem(base, 0.01, rng)
        sol = solve_junction(prob)
        assert sol.residual_norm <= 1e-10
        diag = verify_coupling(sol, prob)
        assert diag.mass_residual <= 1e-10
        assert diag.max_enthalpy_spread <= 1e-8
        assert diag.max_entropy_residual <= 1e-8
        x_oracle = _brute_force_solve(prob)
        x_sol = np.concatenate([
            [sol.sigma[p.input_index] for p in prob.pipes],
            [sol.tau[p.input_index] for p in prob.pipes
             if sol.tau[p.input_index] is not None],
        ])
        assert np.allclose(x_sol, x_oracle, rtol=1e-8, atol=1e-12)


def test_verify_coupling_detects_corruption(rng):
    models_in, models_out = random_model_mix(rng, 4)
    base = build_fixed_point_junction(rng, G, models_in, models_out)
    sol = solve_junction(base)
    diag = verify_coupling(sol, base)
    assert max(diag.mass_residual, diag.max_enthalpy_spread,
               diag.max_entropy_residual) <= 1e-12
    # corrupt one star state
    from dataclasses import replace

    bad_states = list(sol.star_states)
    st = bad_states[0]
    if st.model is Model.M1:
        from gasnet import PipeState

        bad_states[0] = PipeState(Model.M1, st.rho * 1.01, st.q, E=st.E)
    else:
        bad_states[0] = iso_state(st.model, st.rho * 1.01, st.u, st.kappa)
    bad = replace(sol, star_states=tuple(bad_states))
    diag2 = verify_coupling(bad, base)
    assert max(diag2.mass_residual, diag2.max_enthalpy_spread) > 1e-6


def test_entropy_assignment_flag(rng):
    models_in, models_out = random_model_mix(rng, 4)
    if all(m is Model.M1 for m in models_out):
        models_out = [Model.M2] + list(models_out[1:])
    base = build_fixed_point_junction(rng, G, models_in, models_out)
    prob = perturb_problem(base, 0.005, rng)
    plain = solve_junction(prob)
    for p in prob.pipes:
        st_p = plain.star_states[p.input_index]
        if p.outgoing and p.spec.model.is_isentropic:
            assert plain.assigned_kappa[p.spec.id] == pytest.approx(
                G.kappa_from_entropy(plain.s_star), rel=1e-12)
            assert st_p.kappa == p.state.kappa  # star state not mutated


def test_lipschitz_stability_monitored(rng):
    models_in, models_out = random_model_mix(rng, 4)
    base = build_fixed_point_junction(rng, G, models_in, models_out)
    sol0 = solve_junction(base)
    ref = np.concatenate([[s.rho for s in sol0.star_states],
                          [s.q for s in sol0.star_states]])
    base_in_order = sorted(base.pipes, key=lambda p: p.input_index)
    ratios = []
    for delta in (1e-2, 1e-3, 1e-4):
        prob = perturb_problem(base, delta, np.random.default_rng(7))
        sol = solve_junction(prob)
        out = np.concatenate([[s.rho for s in sol.star_states],
                              [s.q for s in sol.star_states]])
        prob_in_order = sorted(prob.pipes, key=lambda p: p.input_index)
        inp = sum(abs(a.state.rho - b.state.rho) + abs(a.state.q - b.state.q)
                  for a, b in zip(prob_in_order, base_in_order))
        ratios.append(np.abs(out - ref).sum() / inp)
    assert max(ratios) / min(ratios) < 2.0
