"""Operator splitting: source-free degeneracy, Euler stepping, friction."""

import copy
from math import isfinite, sqrt

import numpy as np
import pytest

from gasnet import GasConstants, Model, PipeState, SubsonicViolation, iso_state, m1_state
from gasnet.fronttracking import (
    _STRENGTH_FLOOR,
    NONPHYSICAL,
    FrictionSource,
    _placed,
    accurate_solve,
    bump_test_functions,
    init_approximation,
    l1_distance,
    operator_split_run,
    weak_form_residual,
)
from gasnet.junction import PipeSpec
from reference import ZeroSource

G = GasConstants(gamma=1.4, R=1.0)


def two_pipe_passthrough(rho=1.0, f=0.3, kappa=1.0):
    gam = G.gamma
    c = sqrt(kappa * gam * rho ** (gam - 1.0))
    st_in = iso_state(Model.M2, rho, -f * c, kappa)
    st_out = iso_state(Model.M2, rho, +f * c, kappa)
    specs = [PipeSpec("a", 1.0, Model.M2), PipeSpec("b", 1.0, Model.M2)]
    return specs, [st_in, st_out]


def perturbed_scenario(epsilon=0.01):
    specs, profiles = two_pipe_passthrough()
    st_in, st_out = profiles
    jump_in = iso_state(Model.M2, st_in.rho * 1.03, st_in.u, st_in.kappa)
    jump_out = iso_state(Model.M2, st_out.rho * 0.97, st_out.u, st_out.kappa)
    return specs, [[(0.4, st_in), (None, jump_in)],
                   [(0.6, st_out), (None, jump_out)]]


def _signature(state):
    out = []
    for track in state.pipes:
        fronts = [(f.at(state.time), f.speed, f.strength,
                   f.right.rho, f.right.q) for f in track.fronts]
        out.append((track.trace.rho, track.trace.q, fronts))
    return out


def test_zero_source_is_homogeneous_evolution():
    specs, profiles = perturbed_scenario()
    a = init_approximation(specs, profiles, G, epsilon=0.01)
    b = init_approximation(specs, profiles, G, epsilon=0.01)
    a.run(1.0)
    operator_split_run(b, ZeroSource(), 1.0, dt_split=0.05)
    sig_a, sig_b = _signature(a), _signature(b)
    for (tr_a, tq_a, fr_a), (tr_b, tq_b, fr_b) in zip(sig_a, sig_b):
        assert tr_a == pytest.approx(tr_b, rel=1e-14)
        assert tq_a == pytest.approx(tq_b, rel=1e-14, abs=1e-14)
        assert len(fr_a) == len(fr_b)
        for fa, fb in zip(fr_a, fr_b):
            assert fa == pytest.approx(fb, rel=1e-13, abs=1e-13)


class ConstantSource:
    def __init__(self, dq):
        self.dq = dq

    def momentum_rate(self, state):
        return self.dq


def test_constant_source_single_step_is_euler_increment():
    # on a fixed-point configuration with a tiny symmetric drag the states
    # step by exactly dt * G
    specs, profiles = two_pipe_passthrough()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    src = FrictionSource(lambda_f=0.02, diameter=0.5)
    q0_in, q0_out = profiles[0].q, profiles[1].q
    rates = [src.momentum_rate(profiles[0]), src.momentum_rate(profiles[1])]
    dt = 1e-3
    state.run(dt)
    state.apply_source(src, dt)
    assert state.pipes[0].trace.q == pytest.approx(q0_in + dt * rates[0], rel=1e-12)
    assert state.pipes[1].trace.q == pytest.approx(q0_out + dt * rates[1], rel=1e-12)
    # the symmetric shift keeps the coupling balanced: no fronts appear
    assert sum(len(t.fronts) for t in state.pipes) == 0


def test_friction_matches_exact_ode_first_order():
    # uniform flow, friction only: q' = -lam q|q|/(2 D rho) with rho fixed,
    # exactly solvable; the splitting error is first order in dt_split
    specs, profiles = two_pipe_passthrough()
    lam_f, dia = 0.05, 0.5
    src = FrictionSource(lam_f, dia)
    horizon = 2.0
    rho = profiles[1].rho
    q0 = profiles[1].q
    a = lam_f / (2.0 * dia * rho)
    q_exact = q0 / (1.0 + a * q0 * horizon)

    errors = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        state = init_approximation(specs, profiles, G, epsilon=0.01)
        operator_split_run(state, src, horizon, dt)
        errors.append(abs(state.pipes[1].trace.q - q_exact))
    for e1, e2 in zip(errors, errors[1:]):
        assert e2 < e1
        assert e2 / e1 == pytest.approx(0.5, abs=0.15)


def test_friction_decreases_flux_monotonically():
    specs, profiles = two_pipe_passthrough()
    src = FrictionSource(0.05, 0.5)
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    qs = [abs(state.pipes[1].trace.q)]
    for _ in range(10):
        state.run(state.time + 0.1)
        state.apply_source(src, 0.1)
        qs.append(abs(state.pipes[1].trace.q))
        assert state.pipes[1].trace.rho == pytest.approx(profiles[1].rho, rel=1e-12)
    assert all(b < a for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("dt_split", [0.0, -0.1, float("nan")])
def test_split_step_that_is_not_positive_raises_before_running(dt_split):
    # a step that does not advance time would loop forever, and a NaN one
    # would fail inside the first source step: both are refused up front
    specs, profiles = perturbed_scenario()
    state = init_approximation(specs, profiles, G, epsilon=0.02)
    with pytest.raises(ValueError, match="split step must be positive"):
        operator_split_run(state, FrictionSource(0.02, 0.5), 0.5, dt_split)
    assert state.time == 0.0 and state.events == 0


@pytest.mark.parametrize("lambda_f, diameter", [
    (-0.1, 0.5), (0.02, 0.0), (0.02, -1.0), (float("nan"), 0.5), (0.02, float("nan")),
    (float("inf"), 0.5), (0.02, float("inf")),
], ids=["lambda-negative", "diameter-zero", "diameter-negative", "lambda-nan", "diameter-nan",
        "lambda-inf", "diameter-inf"])
def test_friction_source_rejects_coefficients_out_of_range(lambda_f, diameter):
    # an infinite coefficient would make every source step's momentum
    # rate infinite (NaN at q = 0) or zero, and a NaN one fails every
    # comparison; lambda_f = 0, no friction, stays valid
    with pytest.raises(ValueError) as exc:
        FrictionSource(lambda_f, diameter)
    assert str(exc.value) == "friction needs finite lambda_f >= 0 and diameter > 0"
    assert FrictionSource(0.0, 0.5).momentum_rate(iso_state(Model.M2, 1.0, 0.3, 1.0)) == 0.0


class EjectorSource:
    """Pushes the momentum up hard enough to leave the subsonic region."""

    def momentum_rate(self, state):
        return 100.0 * state.rho


def test_source_leaving_subsonic_region_raises():
    specs, profiles = two_pipe_passthrough()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    state.run(0.5)
    with pytest.raises(SubsonicViolation) as err:
        state.apply_source(EjectorSource(), 0.5)
    # the error says where the run raised it
    assert err.value.__notes__ == ["epsilon 0.01: source step on pipe 'a' at t = 0.5"]


def test_coupling_error_after_source_step_says_so(monkeypatch):
    import gasnet.fronttracking as ft
    from gasnet import NoConvergence

    specs, profiles = two_pipe_passthrough()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    state.run(0.5)

    def fail(problem, **kwargs):
        raise NoConvergence("spy")

    monkeypatch.setattr(ft, "solve_junction", fail)
    with pytest.raises(NoConvergence) as err:
        state.apply_source(ConstantSource(-0.01), 0.5)
    assert err.value.__notes__ == [
        "epsilon 0.01: coupling re-solve after the source step at t = 0.5"]


def test_splitting_with_fronts_keeps_coupling_satisfied():
    specs, profiles = perturbed_scenario()
    src = FrictionSource(0.02, 0.5)
    state = init_approximation(specs, profiles, G, epsilon=0.02)
    operator_split_run(state, src, 1.0, dt_split=0.1)
    from gasnet.scenario import trace_residuals

    res = trace_residuals(state, specs, G)
    assert res["mass"] <= 1e-9
    assert res["enthalpy_spread"] <= 1e-8
    # one record per event, of every kind; only junction and reflection
    # records carry strengths, finite ones
    assert len(state.interactions) == state.events
    assert {r.kind for r in state.interactions} == {"collision", "junction", "reflection"}
    for r in state.interactions:
        if r.kind == "collision":
            assert r.v_minus is None and r.v_plus is None
        else:
            assert isfinite(r.v_minus) and isfinite(r.v_plus)
    # absorbing weak fronts at the source steps moves the weak-form
    # residual by 2.3e-4 relative from the 8.5813e-5 of the rule that
    # kept them alive as non-physical fronts
    state.finalize_segments()
    weak = weak_form_residual(state, bump_test_functions(1.0, 1.0), 1.0)
    assert weak == pytest.approx(8.5813e-5, rel=1e-3)


@pytest.mark.parametrize("model", [Model.M1, Model.M2])
def test_source_step_shifts_only_the_momentum(model):
    # friction acts on the momentum balance alone: on full-Euler and
    # isentropic pipes alike the far field keeps its density and its
    # energy or kappa, its momentum moves by dt times the rate, and the
    # re-solved coupling holds
    c = sqrt(G.gamma)

    def st(rho, u):
        # the isentrope p = rho**gamma of kappa = 1
        return m1_state(rho, u, rho**G.gamma, G) if model is Model.M1 else iso_state(
            model, rho, u, 1.0)

    specs = [PipeSpec("a", 1.0, model), PipeSpec("b", 1.0, model)]
    profiles = [[(0.4, st(1.0, -0.3 * c)), (None, st(1.03, -0.3 * c))],
                [(0.6, st(1.0, 0.3 * c)), (None, st(0.97, 0.3 * c))]]
    state = init_approximation(specs, profiles, G, epsilon=0.02)
    state.run(0.3)
    far = [track.fronts[-1].right for track in state.pipes]
    src = FrictionSource(0.05, 0.5)
    state.apply_source(src, 0.1)
    for before, track in zip(far, state.pipes):
        after = track.fronts[-1].right
        assert after.rho == before.rho
        assert (after.E, after.kappa) == (before.E, before.kappa)
        assert after.q == before.q + 0.1 * src.momentum_rate(before)
        assert after.q != before.q
    from gasnet.scenario import trace_residuals

    res = trace_residuals(state, specs, G)
    assert res["mass"] <= 1e-9
    assert res["enthalpy_spread"] <= 1e-8


def _shed_source_step(state, source, dt):
    """Reference source step that keeps every weak front, for isentropic
    pipes and a source that moves every region: each front is re-solved by
    the accurate step or, when it is non-physical or weaker than rho_simpl,
    becomes one non-physical front between the shifted regions."""
    for i, track in enumerate(state.pipes):
        regions = list(track.states())
        shifted = []
        for st in regions:
            shifted.append(PipeState(st.model, st.rho, st.q + dt * source.momentum_rate(st),
                                     kappa=st.kappa))
        new_fronts = []
        for k, f in enumerate(track.fronts):
            l_new, r_new = shifted[k], shifted[k + 1]
            x = f.at(state.time)
            if f.family == NONPHYSICAL or state._scaled_strength(i, f) < state.rho_simpl:
                solved = [state._np_front(i, l_new, r_new)]
            else:
                solved = accurate_solve(l_new, r_new, state.g, state.epsilon, state.scales[i])
            new_fronts += _placed(solved, x, state.time)
        track.trace = shifted[0]
        state._splice(i, 0, len(track.fronts), new_fronts)
    state._emit(state.problem.at(state.traces()))


@pytest.mark.parametrize("epsilon", [0.04, 0.02])
def test_absorbed_l1_matches_shedding_reference(epsilon):
    # at every source step, the absorbed solution differs from the one that
    # keeps its weak fronts exactly on the absorbed regions, by the L1 amount
    # np_absorbed records; x_max covers every front
    specs, profiles = perturbed_scenario()
    src = FrictionSource(0.02, 0.5)
    state = init_approximation(specs, profiles, G, epsilon=epsilon)
    increments = []
    for _ in range(10):
        t0 = state.time
        state.run(t0 + 0.1)
        ref = copy.deepcopy(state)
        _shed_source_step(ref, src, 0.1)
        before = state.np_absorbed
        state.apply_source(src, 0.1)
        increment = state.np_absorbed - before
        dist = l1_distance(state, ref, 1e6)
        assert abs(dist - increment) <= 1e-12 * increment + _STRENGTH_FLOOR, (t0, dist, increment)
        increments.append(increment)
    assert max(increments) > 0.0


def test_friction_ladder_absorbs_order_epsilon_squared():
    # on every rung the absorbed L1 change stays below epsilon**2, and the
    # L1 distances between rungs stay first order: the last two within 10%
    # of those of the rule that kept weak fronts alive as non-physical
    # ones (1.403e-4 and 6.992e-5)
    specs, profiles = perturbed_scenario()
    src = FrictionSource(0.02, 0.5)
    finals = []
    for eps in (0.04, 0.02, 0.01, 0.005):
        state = init_approximation(specs, profiles, G, epsilon=eps)
        operator_split_run(state, src, 1.0, 0.1)
        assert 0.0 < state.np_absorbed <= eps ** 2
        finals.append(state)
    d = [l1_distance(a, b, 1.0) for a, b in zip(finals, finals[1:])]
    assert all(b < a for a, b in zip(d, d[1:])), d
    assert d[1] == pytest.approx(1.403e-4, rel=0.1)
    assert d[2] == pytest.approx(6.992e-5, rel=0.1)


def _stationary_rho(st, source, xs, steps=2):
    """The density of the stationary friction profile through the M2 state
    st at x = 0, at each ascending x in xs, by RK4 with ``steps`` steps
    between points: q stays that of st, and rho' = S / (c**2 - u**2) with
    S the source's momentum rate."""
    gam, kappa, q = G.gamma, st.kappa, st.q

    def slope(rho):
        u = q / rho
        s = source.momentum_rate(iso_state(Model.M2, rho, u, kappa))
        return s / (kappa * gam * rho ** (gam - 1.0) - u * u)

    out, x, rho = [], 0.0, st.rho
    for x_next in xs:
        h = (x_next - x) / steps
        for _ in range(steps):
            k1 = slope(rho)
            k2 = slope(rho + 0.5 * h * k1)
            k3 = slope(rho + 0.5 * h * k2)
            k4 = slope(rho + h * k3)
            rho += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x_next
        out.append(rho)
    return out


def test_stationary_friction_state_drifts_within_bound():
    # each pipe of a two-pipe M2 passthrough at Mach 0.3 starts in its
    # stationary friction state (lambda 0.2, D 0.5) sampled at the
    # midpoints of 20 cells of [0, 1], constant beyond.  Up to T = 0.3 the
    # window [0, 0.25] lies inside the domain of dependence of the cells
    # (the far field's first wave reaches it near t = 0.49), so the
    # tracker's scaled L1 distance there to the exact profile measures the
    # splitting and sampling errors alone: C1 * dt_split + C2 * h with
    # C1 = 1e-3 and C2 = 5e-3, against 1.92e-4 and 1.76e-4 read at dt_split
    # 0.1 and 0.05 (1.24e-4 at t = 0).  Accurate collisions on 2 x 2 pipes
    # keep the events below 2,500 (about 1,400 and 1,700; the simplified
    # step for strength products below epsilon**3 makes 7,249 and 4,211)
    src = FrictionSource(0.2, 0.5)
    specs, traces = two_pipe_passthrough(rho=1.0, f=0.3)
    cells, window, samples = 20, 0.25, 500
    h = 1.0 / cells
    profiles = []
    for st in traces:
        rhos = _stationary_rho(st, src, [(k + 0.5) * h for k in range(cells)])
        pieces = [((k + 1) * h, iso_state(Model.M2, r, st.q / r, st.kappa))
                  for k, r in enumerate(rhos)]
        profiles.append(pieces[:-1] + [(None, pieces[-1][1])])
    xs = [(k + 0.5) * window / samples for k in range(samples)]
    exact = [[PipeState(Model.M2, r, st.q, kappa=st.kappa) for r in _stationary_rho(st, src, xs)]
             for st in traces]
    for dt_split in (0.1, 0.05):
        state = init_approximation(specs, profiles, G, epsilon=0.02)
        operator_split_run(state, src, 0.3, dt_split)
        drift = 0.0
        for i, track in enumerate(state.pipes):
            pos = [f.at(state.time) for f in track.fronts]
            for got, want in zip(track.states_at(xs, pos), exact[i]):
                drift += state.scales[i].state_norm(got, want) * window / samples
        assert drift <= 1e-3 * dt_split + 5e-3 * h, (dt_split, drift)
        assert state.events <= 2500, (dt_split, state.events)
