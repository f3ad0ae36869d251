"""Front tracking: initialization, accurate/simplified solvers, event loop,
and the Glimm functionals."""

import warnings
from math import ceil, inf, nextafter, sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import (
    balanced_compressor,
    build_fixed_point_junction,
    perturb,
    perturb_problem,
    state_from_enthalpy,
)
from gasnet import (
    GasConstants,
    Model,
    PipeState,
    iso_state,
    m1_state,
    pressure,
)
from gasnet.fronttracking import (
    _STRENGTH_FLOOR,
    NONPHYSICAL,
    Bump,
    FrontTrackingState,
    PipeScales,
    Segment,
    _bump_values,
    _front_from_jump,
    accurate_solve,
    apply_wave,
    bump_test_functions,
    init_approximation,
    l1_distance,
    solve_coupling,
    weak_form_residual,
)
from gasnet.compressor import POWER
from gasnet.junction import JunctionProblem, PipeSpec, solve_junction
from gasnet.laxcurves import ISO, M1_IN, M1_OUT
from gasnet.riemann import RAREFACTION, SHOCK, _acoustic_wave
from gasnet.scenario import trace_residuals
from reference import scalar_weak_form_residual

G = GasConstants(gamma=1.4, R=1.0)
UNIT_SCALES = PipeScales(1.0, 1.0, 1.0, 1.0)


def balanced_m3_junction(n_out=2, f_in=0.3, f_out=0.25, h_star=3.0, kappa=1.0):
    gam = G.gamma
    c2 = h_star / (1.0 / (gam - 1.0) + 0.5 * f_in * f_in)
    rho_in = (c2 / (kappa * gam)) ** (1.0 / (gam - 1.0))
    st_in = iso_state(Model.M2, rho_in, -f_in * sqrt(c2), kappa)
    st_out = state_from_enthalpy(Model.M3, kappa, +f_out, h_star, G)
    area_out = (-2.0 * st_in.q) / (n_out * st_out.q)
    specs = [PipeSpec("feed", 2.0, Model.M2)] + [
        PipeSpec(f"out{k}", area_out, Model.M3) for k in range(n_out)]
    profiles = [st_in] + [st_out] * n_out
    return specs, profiles


def test_balanced_constant_data_has_no_fronts():
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    assert sum(len(t.fronts) for t in state.pipes) == 0
    gl = state.glimm()
    assert gl.V == gl.Q == gl.Y == gl.TV == 0.0
    t = state.advance(horizon=2.0)
    assert t == 2.0


def test_single_interior_jump_structure():
    specs, profiles = balanced_m3_junction()
    jump = iso_state(Model.M3, profiles[1].rho * 1.01, profiles[1].u, 1.0)
    profiles = [profiles[0], [(0.5, profiles[1]), (None, jump)], profiles[2]]
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    fronts = state.pipes[1].fronts
    assert all(f.at(state.time) == 0.5 for f in fronts)
    families = {f.family for f in fronts}
    assert families <= {1, 2}
    assert len(families) <= 2


def test_accurate_solver_structures():
    # pure shock: exactly one front
    left = iso_state(Model.M3, 1.0, 0.2, 1.0)
    right = apply_wave(1, 0.15, left, G)
    fronts = accurate_solve(left, right, G, 0.01, UNIT_SCALES)
    assert len(fronts) == 1 and fronts[0].kind == SHOCK and fronts[0].family == 1
    # pure rarefaction of width w: ceil(w / eps) slices
    right = apply_wave(1, -0.15, left, G)
    for eps in (0.04, 0.02, 0.01):
        fronts = accurate_solve(left, right, G, eps, UNIT_SCALES)
        assert len(fronts) == ceil(0.15 / eps)
        assert all(f.kind == RAREFACTION and f.family == 1 for f in fronts)
        assert sum(f.strength for f in fronts) == pytest.approx(-0.15, rel=1e-12)
        assert all(abs(f.strength) <= eps + 1e-12 for f in fronts)
    # Sod-type data: 1-fan, contact, 3-shock
    UL = m1_state(1.0, 0.0, 1.0, G)
    UR = m1_state(0.125, 0.0, 0.1, G)
    fronts = accurate_solve(UL, UR, G, 0.05, UNIT_SCALES)
    kinds = [(f.family, f.kind) for f in fronts]
    assert (2, "contact") in kinds
    assert (3, SHOCK) in kinds
    assert sum(1 for f, k in kinds if f == 1 and k == RAREFACTION) >= 2
    # chain consistency
    for a, b in zip(fronts, fronts[1:]):
        assert a.right == b.left


def test_junction_emission_matches_coupling_solve():
    specs, profiles = balanced_m3_junction()
    pert = iso_state(Model.M2, profiles[0].rho * 1.01, profiles[0].u, 1.0)
    profiles = [pert, profiles[1], profiles[2]]
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    prob = JunctionProblem(list(zip(specs, profiles)), G)
    sol = solve_junction(prob)
    for i, spec in enumerate(specs):
        emitted = sum(f.strength for f in state.pipes[i].fronts)
        base = profiles[i].rho
        assert emitted == pytest.approx(sol.sigma[i] - base, abs=1e-12)
        assert state.pipes[i].trace.rho == pytest.approx(
            sol.star_states[i].rho, rel=1e-12)

    # with outgoing M1 pipes: each pipe's new trace is the solution's own
    # star state, and its waves chain from that trace to the pipe data
    base = build_fixed_point_junction(np.random.default_rng(16), G,
                                      [Model.M1, Model.M2], [Model.M1, Model.M1, Model.M3])
    prob = perturb_problem(base, 0.01, np.random.default_rng(17))
    specs, data = [p.spec for p in prob.pipes], [p.state for p in prob.pipes]
    _, sol, patterns = solve_coupling(specs, data, G)
    assert [p.role for p in prob.pipes].count(M1_OUT) == 2
    for i, (waves, trace) in enumerate(patterns):
        assert trace is sol.star_states[i]
        assert waves[0].left is trace
        for a, b in zip(waves, waves[1:]):
            assert a.right is b.left
        assert waves[-1].right is data[i]
        if prob.pipes[i].role == M1_OUT:
            assert [w.family for w in waves] == [2, 3]


def test_two_front_collision_timing():
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    track = state.pipes[1]
    st = track.trace
    fast = apply_wave(2, 0.02, st, G)
    slow_right = apply_wave(2, 0.015, fast, G)

    f1 = _front_from_jump(2, st, fast, G)
    f1.born_x = 0.2
    f2 = _front_from_jump(2, fast, slow_right, G)
    f2.born_x = 0.5
    # make speeds definitely approaching
    assert f1.speed > 0 and f2.speed > 0
    if f1.speed <= f2.speed:
        pytest.skip("constructed fronts do not approach")
    state._splice(1, 0, len(track.fronts), [f1, f2])
    dt_expected = (0.5 - 0.2) / (f1.speed - f2.speed)
    t = state.advance(horizon=1e9)
    assert t == pytest.approx(dt_expected, rel=1e-12)


def test_same_family_shock_merge_sheds_nonphysical():
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.05)
    track = state.pipes[1]
    st = track.trace
    # rear shock stronger, so it catches the weaker one; strengths small
    # enough that the product 4e-5 falls below rho_simpl = epsilon^3 = 1.25e-4
    mid = apply_wave(2, 0.01 * st.rho, st, G)
    right = apply_wave(2, 0.004 * st.rho, mid, G)

    f1 = _front_from_jump(2, st, mid, G)
    f2 = _front_from_jump(2, mid, right, G)
    assert f1.speed > f2.speed
    f1.born_x, f2.born_x = 0.2, 0.4
    state._splice(1, 0, len(track.fronts), [f1, f2])
    v1, v2 = f1.strength, f2.strength
    state.advance(horizon=1e9)
    fams = [f.family for f in track.fronts]
    assert fams.count(2) == 1
    assert fams.count(NONPHYSICAL) == 1
    merged = next(f for f in track.fronts if f.family == 2)
    np_front = next(f for f in track.fronts if f.family == NONPHYSICAL)
    assert merged.strength == pytest.approx(v1 + v2, rel=1e-12)
    assert np_front.speed == state.lambda_hat
    assert np_front.strength > 0
    assert state.glimm().np_strength == pytest.approx(np_front.strength, rel=1e-12)
    # defect equals exact-vs-merged star mismatch, i.e. chain closes on the
    # original outer states
    assert track.fronts[-1].right == right if track.fronts[-1].family == 0 else True


def test_weak_wave_reflection_keeps_other_pipes_silent():
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.05)
    track = state.pipes[0]   # incoming pipe
    st = track.trace
    # family-1 wave on the incoming pipe runs toward the junction; strength
    # far below rho_simpl = epsilon^3
    tiny = 1e-4 * state.rho_simpl * state.scales[0].param
    behind = apply_wave(1, tiny, st, G)

    f = _front_from_jump(1, st, behind, G)
    f.born_x = 0.1
    assert f.speed < 0
    state._splice(0, 0, len(track.fronts), [f])
    trace_before = [t.trace for t in state.pipes]
    state.advance(horizon=1e9)
    assert [len(t.fronts) for t in state.pipes] == [1, 0, 0]
    refl = state.pipes[0].fronts[0]
    assert refl.family == NONPHYSICAL
    assert refl.speed == state.lambda_hat
    for before, track_now in zip(trace_before, state.pipes):
        assert track_now.trace == before
    assert state.interactions[-1].kind == "reflection"


def _rich_scenario(amp=0.001, epsilon=0.005):
    specs, profiles = balanced_m3_junction()
    st_in, st_out = profiles[0], profiles[1]
    rho_i, u_i = st_in.rho, st_in.u
    rho_o, u_o = st_out.rho, st_out.u
    prof_in = [(0.3, st_in),
               (0.6, iso_state(Model.M2, rho_i * (1 + amp), u_i, 1.0)),
               (None, iso_state(Model.M2, rho_i * (1 - 0.5 * amp), u_i * (1 + 0.5 * amp), 1.0))]
    prof_w = [(0.25, st_out),
              (0.55, iso_state(Model.M3, rho_o * (1 - 0.5 * amp), u_o, 1.0)),
              (None, st_out)]
    prof_e = [(0.4, iso_state(Model.M3, rho_o * (1 + 0.3 * amp), u_o * (1 - 0.4 * amp), 1.0)),
              (None, st_out)]
    return init_approximation(specs, [prof_in, prof_w, prof_e], G, epsilon=epsilon)


def test_glimm_single_front_and_pair():
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.05)
    track = state.pipes[1]
    st = track.trace

    # one junction-leaving (family 2) front of scaled strength w: V = w, Q = 0
    f1 = _front_from_jump(2, st, apply_wave(2, 0.01 * st.rho, st, G), G)
    f1.born_x = 0.3
    state._splice(1, 0, len(track.fronts), [f1])
    w1 = state._scaled_strength(1, f1)
    gl = state.glimm()
    assert gl.V == pytest.approx(w1, rel=1e-12)
    assert gl.Q == 0.0
    # add an approaching front behind it (same family, rear one a shock)
    f2 = _front_from_jump(2, st, apply_wave(2, 0.02 * st.rho, st, G), G)
    f2.born_x = 0.1
    state._splice(1, 0, len(track.fronts), [f2, f1])
    w2 = state._scaled_strength(1, f2)
    gl = state.glimm()
    assert gl.Q == pytest.approx(w1 * w2, rel=1e-12)
    assert gl.Y == pytest.approx(gl.V + state.K_hat_J * gl.Q, rel=1e-12)


def test_glimm_functional_definitions():
    state = _rich_scenario()
    gl = state.glimm()
    # V from scratch; the data carries fronts of both weights
    v = 0.0
    weights = set()
    for i, track in enumerate(state.pipes):
        for f in track.fronts:
            weights.add(_v_weight(state, i, f))
            v += _v_weight(state, i, f) * state._scaled_strength(i, f)
    assert weights == {1.0, 2.0 * state.K_J}
    assert gl.V == pytest.approx(v, rel=1e-12)
    assert gl.Y == pytest.approx(gl.V + state.K_hat_J * gl.Q, rel=1e-12)
    assert gl.Q >= 0.0 and gl.TV > 0.0


def test_run_invariants_weak_waves():
    state = _rich_scenario(amp=0.001, epsilon=0.005)
    gl0 = state.glimm()
    assert state.K_hat_J * gl0.V < state.K_J
    y_tol = 1e-9 * max(1.0, gl0.Y)
    y_before = gl0.Y
    while state.time < 3.0:
        state.advance(3.0)
        y_after = state.glimm().Y
        assert y_after <= y_before + y_tol
        y_before = y_after
    assert len(state.interactions) >= 30
    kinds = {r.kind for r in state.interactions}
    assert "junction" in kinds and "collision" in kinds
    for r in state.interactions:
        if r.kind in ("junction", "reflection") and r.v_minus > 0:
            assert r.v_plus <= state.K_J * r.v_minus
    gl = state.glimm()
    assert gl.front_count < 2000
    assert gl.TV >= 0.0


def test_l1_distance_exact():
    specs, profiles = balanced_m3_junction()
    a = init_approximation(specs, profiles, G, epsilon=0.01)
    b = init_approximation(specs, profiles, G, epsilon=0.01)
    assert l1_distance(a, b, 2.0) == 0.0
    # displace one front configuration slightly
    pert = iso_state(Model.M3, profiles[1].rho * 1.01, profiles[1].u, 1.0)
    profs2 = [profiles[0], [(0.5, profiles[1]), (None, pert)], profiles[2]]
    c = init_approximation(specs, profs2, G, epsilon=0.01)
    d1 = l1_distance(a, c, 2.0)
    sc = a.scales[1]
    expected = sc.state_norm(pert, profiles[1]) * 1.5  # differs on [0.5, 2.0]
    assert d1 == pytest.approx(expected, rel=1e-12)


def _freeze(state):
    return [(t.trace, [(f.at(state.time), f.right) for f in t.fronts])
            for t in state.pipes]


def _frozen_l1(pa, pb, x_max, state):
    total = 0.0
    for i in range(len(pa)):
        tra, fa = pa[i]
        trb, fb = pb[i]
        edges = sorted({0.0, x_max} | {x for x, _ in fa if 0 < x < x_max}
                       | {x for x, _ in fb if 0 < x < x_max})
        for xl, xr in zip(edges, edges[1:]):
            xm = 0.5 * (xl + xr)
            sa = tra
            for x, st in fa:
                if xm >= x:
                    sa = st
            sb = trb
            for x, st in fb:
                if xm >= x:
                    sb = st
            total += state.scales[i].state_norm(sa, sb) * (xr - xl)
    return total


def test_time_lipschitz_l1():
    state = _rich_scenario(amp=0.002, epsilon=0.005)
    x_max = 4.0
    snaps = []
    for t in (0.5, 1.0, 1.5, 2.0):
        state.run(t)
        snaps.append((state.time, _freeze(state)))
    lam = state.lambda_hat
    tv0 = 0.08  # generous bound on the scaled TV of this scenario
    for (ta, pa), (tb, pb) in zip(snaps, snaps[1:]):
        dist = _frozen_l1(pa, pb, x_max, state)
        assert dist <= 3.0 * lam * tv0 * (tb - ta)


def ladder_scenario(epsilon):
    """Strong interior jumps producing wide rarefaction fans, so the fan
    slicing (and hence the approximation) genuinely depends on epsilon."""
    specs, profiles = balanced_m3_junction()
    st_in, st_out = profiles[0], profiles[1]
    lo_in = iso_state(Model.M2, st_in.rho * 0.85, st_in.u, 1.0)
    prof_in = [(0.5, st_in), (None, lo_in)]
    lo_out = iso_state(Model.M3, st_out.rho * 0.88, st_out.u, 1.0)
    prof_w = [(0.4, st_out), (None, lo_out)]
    return init_approximation(specs, [prof_in, prof_w, st_out], G,
                              epsilon=epsilon)


def test_epsilon_refinement_decreases_l1():
    runs = []
    for eps in (0.04, 0.02, 0.01, 0.005):
        st = ladder_scenario(eps)
        st.run(1.2)
        runs.append(st)
    x_max = max(4.0, runs[0].lambda_hat * 1.2)
    dists = [l1_distance(a, b, x_max) for a, b in zip(runs, runs[1:])]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:])), dists


def test_accurate_step_emits_exact_lax_jumps(monkeypatch):
    # every shock, and every acoustic front up to scaled strength 1e-3,
    # that the accurate step emits is the jump of its own strength along
    # its wave curve to rounding: a simplified interaction rebuilds states
    # from strengths and sheds a miss above the strength floor (1e-11) as
    # a non-physical front
    import gasnet.fronttracking as ft
    from test_splitting import perturbed_scenario

    checked = []

    def checking(left, right, g, epsilon, scales):
        fronts = accurate_solve(left, right, g, epsilon, scales)
        for f in fronts:
            sc = scales.strength_scale(f.family, f.left.model)
            if f.kind == SHOCK or (f.kind == RAREFACTION and abs(f.strength) <= 1e-3 * sc):
                miss = scales.state_norm(apply_wave(f.family, f.strength, f.left, g), f.right)
                checked.append(miss)
                assert miss <= 1e-13, (f, miss)
        return fronts

    monkeypatch.setattr(ft, "accurate_solve", checking)
    ladder_scenario(0.01).run(1.2)
    specs, profiles = perturbed_scenario()
    state = init_approximation(specs, profiles, G, epsilon=0.02)
    ft.operator_split_run(state, ft.FrictionSource(0.02, 0.5), 0.3, dt_split=0.1)
    assert len(checked) > 80


def _np_strength(state):
    """Summed scaled strength of the live non-physical fronts."""
    return sum(state._scaled_strength(i, f) for i, track in enumerate(state.pipes)
               for f in track.fronts if f.family == NONPHYSICAL)


def test_epsilon_ladder_nonphysical_strength_is_order_epsilon():
    # with rho_simpl = epsilon^3 the non-physical fronts carry O(epsilon)
    # strength, and the weak-form residual falls with epsilon at first order
    horizon = 1.2
    funcs = bump_test_functions(x_max=4.0, t_max=horizon)
    residuals = []
    for eps in (0.04, 0.02, 0.01, 0.005):
        state = ladder_scenario(eps)
        state.run(horizon)
        assert _np_strength(state) <= 0.1 * eps, (eps, _np_strength(state))
        state.finalize_segments()
        residuals.append(weak_form_residual(state, funcs, horizon))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= 0.6 * coarse, residuals


def test_weak_form_support_culling_is_exact():
    # skipping segments outside a bump's support only drops exact zeros,
    # for one bump per call and for all ten bumps in one call
    from gasnet.fronttracking import (
        FrictionSource,
        bump_test_functions,
        operator_split_run,
        weak_form_residual,
    )
    from test_splitting import perturbed_scenario

    def each_bump(fn, state, x_max):
        # one bump at a time: the maximum over bumps would hide all but one
        return [fn(state, [phi], 1.0) for phi in bump_test_functions(x_max, 1.0)]

    for eps in (0.02, 0.01):
        state = ladder_scenario(eps)
        state.run(1.0)
        state.finalize_segments()
        assert (each_bump(weak_form_residual, state, 4.0)
                == each_bump(scalar_weak_form_residual, state, 4.0))
        funcs = bump_test_functions(4.0, 1.0)
        assert (weak_form_residual(state, funcs, 1.0)
                == scalar_weak_form_residual(state, funcs, 1.0))
    # epsilon 0.007: absorbing weak fronts at the source steps leaves too
    # few segments at 0.01 for the floor below
    specs, profiles = perturbed_scenario()
    state = init_approximation(specs, profiles, G, epsilon=0.007)
    operator_split_run(state, FrictionSource(0.02, 0.5), 1.0, 0.1)
    state.finalize_segments()
    res = each_bump(weak_form_residual, state, 1.0)
    assert len(state.segments) > 5000 and min(res) > 0.0
    assert res == each_bump(scalar_weak_form_residual, state, 1.0)
    funcs = bump_test_functions(1.0, 1.0)
    assert weak_form_residual(state, funcs, 1.0) == scalar_weak_form_residual(state, funcs, 1.0)


def test_bump_values_match_scalar_definition():
    # the array evaluation is the scalar definition bit for bit, 0.0 on and
    # beyond the support edges, and divides by zero nowhere; evaluated for
    # all bumps at once, one row per bump, each row is that bump's scalar
    # definition where the row's culling mask holds and 0.0 elsewhere
    def values(phi, x, t):
        return _bump_values(phi.xc, phi.wx, phi.tc, phi.wt, x, t, True)

    rng = np.random.default_rng(7)
    bumps = bump_test_functions(4.0, 1.2) + [Bump(0.5, 0.25, 0.75, 0.5)]
    for phi in bumps:
        xa, xb, ta, tb = phi.support
        x = rng.uniform(xa - 0.1, xb + 0.1, 2000)
        t = rng.uniform(ta - 0.1, tb + 0.1, 2000)
        assert values(phi, x, t).tolist() == [phi(a, b) for a, b in zip(x, t)]
        near = np.nextafter([xa, xb], phi.xc)    # just inside the x edges
        x, t = np.repeat(near, 3), np.tile([ta, phi.tc, tb], 2)
        assert values(phi, x, t).tolist() == [phi(a, b) for a, b in zip(x, t)]
    # |sx| = 1 and |st| = 1 exactly: the dyadic bump's edges
    phi = bumps[-1]
    x = np.array([0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.6])
    t = np.array([0.75, 0.75, 0.25, 1.25, 0.25, 1.25, 1.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = values(phi, x, t).tolist()
        far = values(phi, np.array([-1e300, -3.0, 7.0, 1e300]),
                     np.array([0.75, -1e300, 1e300, 0.75])).tolist()
    assert edge == [phi(a, b) for a, b in zip(x, t)] == [0.0] * 7
    assert far == [0.0] * 4
    # all bumps at once, on points inside, on and just inside the support
    # edges, and far away
    xc, wx, tc, wt = np.array([(b.xc, b.wx, b.tc, b.wt) for b in bumps]).T[:, :, None]
    sup = np.array([b.support for b in bumps])
    x = np.concatenate([rng.uniform(-1.5, 5.5, 500), sup[:, :2].ravel(),
                        np.nextafter(sup[:, :2], xc[:, :1]).ravel(), [-1e300, 1e300]])
    t = rng.choice(np.concatenate([rng.uniform(-0.5, 2.0, 200), sup[:, 2:].ravel(),
                                   tc.ravel(), [-1e300, 1e300]]), x.size)
    keep = rng.random((len(bumps), x.size)) < 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _bump_values(xc, wx, tc, wt, x, t, keep).tolist()
    for phi, row, mask in zip(bumps, rows, keep):
        assert row == [phi(a, b) if k else 0.0 for a, b, k in zip(x, t, mask)]
    assert min(map(max, rows)) > 0.0


def _stub_state(segments, n_pipes):
    """What weak_form_residual reads of a run: segments, scales and g."""
    return SimpleNamespace(segments=segments, scales=[PipeScales(1.0, 1.0, 0.3, 2.5)] * n_pipes,
                           g=G)


# dyadic boxes, so that segments can start, end or lie on an edge exactly
_bumps = hs.builds(Bump, hs.sampled_from([0.0, 0.5, 1.25]), hs.sampled_from([0.25, 0.5, 1.0]),
                   hs.sampled_from([0.5, 0.75]), hs.sampled_from([0.25, 0.5]))


@hs.composite
def _segment_sets(draw):
    """A bump and up to 40 segments around it on one M1 and one M2 pipe:
    exact (zero-defect) jumps, speed-0 segments, and segments that start,
    end or lie on the support edges, cross them or stay outside."""
    phi = draw(_bumps)
    xa, xb, ta, tb = phi.support
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    models = (Model.M1, Model.M2)

    def state(model):
        rho, u, p = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
        return m1_state(rho, u, p, G) if model is Model.M1 else iso_state(model, rho, u, p)

    def pick(edges, lo, hi):
        return edges[rng.integers(len(edges))] if rng.random() < 0.5 else rng.uniform(lo, hi)

    segments = []
    for _ in range(draw(hs.integers(0, 40))):
        pipe = int(rng.integers(2))
        left = state(models[pipe])
        right = left if rng.random() < 0.5 else state(models[pipe])
        t0 = pick((ta, tb, phi.tc), 0.0, 1.5)
        x0 = pick((xa, xb, phi.xc), xa - 1.0, xb + 1.0)
        speed = 0.0 if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
        dt = pick([0.0] + [d for d in (ta - t0, tb - t0) if d >= 0.0], 0.0, 1.0)
        segments.append(Segment(pipe, t0, t0 + dt, x0, speed, left, right))
    return _stub_state(segments, 2), phi


@settings(max_examples=100)
@given(_segment_sets(), hs.sampled_from([1.0, 1.2]))
def test_weak_form_kernel_matches_scalar_reference(case, horizon):
    # each bump alone, and all bumps in one call
    state, phi = case
    funcs = [phi] + bump_test_functions(2.0, horizon)
    for bump in funcs:
        res = weak_form_residual(state, [bump], horizon)
        assert type(res) is float
        assert res == scalar_weak_form_residual(state, [bump], horizon)
    res = weak_form_residual(state, funcs, horizon)
    assert type(res) is float
    assert res == scalar_weak_form_residual(state, funcs, horizon)


def test_weak_form_residual_without_defects_is_zero():
    left = m1_state(1.0, 0.1, 1.0, G)
    exact = Segment(0, 0.25, 0.75, 0.5, 0.3, left, left)
    funcs = bump_test_functions(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for segments in ([], [exact, exact]):
            res = weak_form_residual(_stub_state(segments, 1), funcs, 1.0)
            assert res == 0.0 and type(res) is float


def test_weak_form_residual_below_threshold():
    for eps in (0.02, 0.01):
        state = ladder_scenario(eps)
        horizon = 1.0
        state.run(horizon)
        state.finalize_segments()
        funcs = bump_test_functions(x_max=4.0, t_max=horizon)
        res = weak_form_residual(state, funcs, horizon)
        assert res <= 10.0 * eps, f"weak-form residual {res:g} above 10*eps"


# -- oracle: Glimm functionals and stored pair times against the definitions --


# families that run toward the junction, per pipe role: the 1-family
# always, and the contact of an incoming full-Euler pipe
_TOWARDS = {M1_OUT: (1,), M1_IN: (1, 2), ISO: (1,)}


def _v_weight(state, i, f):
    """V weight of front f on pipe i: 2 K_J for a junction-bound family,
    1 for the others and for non-physical fronts (family 0)."""
    return 2.0 * state.K_J if f.family in _TOWARDS[state.roles[i]] else 1.0


def _reference_glimm(state):
    """(V, Q, TV) recomputed from the definitions, O(n^2) per pipe."""
    v = q = tv = 0.0
    for i, track in enumerate(state.pipes):
        fronts = track.fronts
        for f in fronts:
            v += _v_weight(state, i, f) * state._scaled_strength(i, f)
            tv += state.scales[i].state_norm(f.left, f.right)
        if len(fronts) < 2:
            continue
        fam = np.array([99 if f.family == NONPHYSICAL else f.family for f in fronts])
        shock = np.array([f.kind == SHOCK for f in fronts])
        st = np.array([state._scaled_strength(i, f) for f in fronts])
        for a in range(len(fronts) - 1):
            fb = fam[a + 1:]
            approaching = (fam[a] > fb) | (
                (fam[a] == fb) & (fam[a] != 99) & (shock[a] | shock[a + 1:]))
            if approaching.any():
                q += st[a] * st[a + 1:][approaching].sum()
    return v, q, tv


def _reference_next_event(state):
    """(time, kind, pipe, index) by a linear scan over every front pair."""
    best = None
    now = state.time
    for i, track in enumerate(state.pipes):
        fronts = track.fronts
        if fronts and fronts[0].speed < 0.0:
            t = now + max(fronts[0].at(now) / -fronts[0].speed, 0.0)
            if best is None or t < best[0]:
                best = (t, "junction", i, 0)
        for k in range(len(fronts) - 1):
            rel = fronts[k].speed - fronts[k + 1].speed
            if rel <= 1e-12 * max(abs(fronts[k].speed), abs(fronts[k + 1].speed)):
                continue
            t = now + max((fronts[k + 1].at(now) - fronts[k].at(now)) / rel, 0.0)
            if best is None or t < best[0]:
                best = (t, "collision", i, k)
    return best


def _assert_close(a, b, rel=1e-12):
    assert abs(a - b) <= rel * abs(b), (a, b)


def _assert_glimm_matches(state):
    gl = state.glimm()
    v, q, tv = _reference_glimm(state)
    _assert_close(gl.V, v)
    _assert_close(gl.Q, q)
    _assert_close(gl.Y, v + state.K_hat_J * q)
    _assert_close(gl.TV, tv)
    _assert_close(gl.np_strength, _np_strength(state))
    assert gl.front_count == sum(len(t.fronts) for t in state.pipes)
    # a physical front's signed strength is that of its own jump; the floor
    # term allows for accurate_solve's tail snap across dropped waves
    for i, track in enumerate(state.pipes):
        for f in track.fronts:
            if f.family != NONPHYSICAL:
                ref = _front_from_jump(f.family, f.left, f.right, state.g).strength
                floor = _STRENGTH_FLOOR * state.scales[i].strength_scale(f.family, f.left.model)
                assert abs(f.strength - ref) <= 1e-12 * abs(ref) + floor, (i, f, ref)


def _assert_coupling_holds(state):
    # the bounds of test_splitting_with_fronts_keeps_coupling_satisfied, and
    # at a compressor those of the benchmark's compressor check
    res = trace_residuals(state, state.specs, state.g, state.control)
    assert res["mass"] <= 1e-9, res
    if state.control is None:
        assert res["enthalpy_spread"] <= 1e-8, res
    else:
        assert res["control"] <= 1e-8, res
        assert res.get("entropy", 0.0) <= 1e-8, res


def _assert_laid_out(state):
    """Each pipe as ``_splice`` lays it out: fronts in (position, speed)
    order, each front's left state the right state of the one behind it
    (the trace for the first), and the stored pair times those of
    ``_pair_time`` now.  Checked after initialization and source steps,
    which lay out every pipe at one time; the event loop's later pair
    times carry the rounding of their own time."""
    for track in state.pipes:
        fronts = track.fronts
        keys = [(f.at(state.time), f.speed) for f in fronts]
        assert keys == sorted(keys)
        behind = [track.trace] + [f.right for f in fronts]
        assert all(f.left is b for f, b in zip(fronts, behind))
        times = [state._pair_time(fronts, k) for k in range(len(fronts) - 1)]
        assert track.times == times + [inf] * bool(fronts)


def _oracle_run(state, horizon):
    """Advance to the horizon, checking the scheduler before and the
    functionals after every event, and the coupling residual of the
    traces after every junction or reflection event; returns the number
    of events.  The state is one just initialized or source-stepped, so
    its layout is checked first.

    No collision pairs two physical non-shock fronts of one family:
    adjacent same-family rarefactions diverge and contacts are parallel,
    so the tracker has no merge rule for them.

    Every front's position is also carried incrementally, moved by
    speed * dt at each step, and must stay within 1e-12 of the position
    its trajectory gives."""
    _assert_laid_out(state)
    _assert_glimm_matches(state)
    moved = {f: f.at(state.time) for t in state.pipes for f in t.fronts}
    n = 0
    while state.time < horizon:
        ev, ref = state._next_event(), _reference_next_event(state)
        if ref is None:
            assert ev is None
        else:
            assert ev[1:] == ref[1:]
            assert abs(ev[0] - ref[0]) <= 1e-12 * max(1.0, ref[0])
            if ev[1] == "collision" and ev[0] <= horizon:
                a, b = state.pipes[ev[2]].fronts[ev[3]:ev[3] + 2]
                assert not (a.family == b.family != NONPHYSICAL
                            and SHOCK not in (a.kind, b.kind)), (a, b)
        events, t0 = state.events, state.time
        t = state.advance(horizon)
        n += state.events - events
        _assert_glimm_matches(state)
        if state.events > events and state.interactions[-1].kind in ("junction", "reflection"):
            _assert_coupling_holds(state)
        dt = t - t0
        moved = {f: moved[f] + f.speed * dt if f in moved else f.born_x
                 for track in state.pipes for f in track.fronts}
        for f, x in moved.items():
            assert abs(f.at(t) - x) <= 1e-12 * max(1.0, abs(x)), (f, x)
        if t >= horizon:
            break
    return n


def test_snapshot_stops_do_not_perturb_run():
    # a front is its trajectory: stopping the clock moves nothing
    stopped, straight = ladder_scenario(0.005), ladder_scenario(0.005)
    for k in range(1, 11):
        stopped.run(0.12 * k)
    straight.run(1.2)

    def fronts(state):
        return [[(f.born_x, f.born_t, f.speed, f.strength, f.right) for f in t.fronts]
                for t in state.pipes]

    assert stopped.time == straight.time == 1.2
    assert stopped.events == straight.events > 500
    assert fronts(stopped) == fronts(straight)


def test_oracle_mixed_model_tracking():
    from test_acceptance import _mixed_model_tracking_scenario

    state = _mixed_model_tracking_scenario(epsilon=0.01)
    assert _oracle_run(state, 4.0) >= 150


def test_oracle_epsilon_ladder_run():
    state = ladder_scenario(0.005)
    assert _oracle_run(state, 1.2) >= 500
    assert {r.kind for r in state.interactions} >= {"collision", "junction"}


def test_oracle_friction_split_run():
    from gasnet.fronttracking import FrictionSource
    from test_splitting import perturbed_scenario

    specs, profiles = perturbed_scenario()
    state = init_approximation(specs, profiles, G, epsilon=0.01)
    src = FrictionSource(0.02, 0.5)
    events = 0
    # seven of the ten splitting steps to t = 1; the last three hold
    # two thirds of the events and the O(n^2) reference would dominate
    for _ in range(7):
        events += _oracle_run(state, state.time + 0.1)
        state.apply_source(src, 0.1)
        _assert_laid_out(state)
        _assert_glimm_matches(state)
        _assert_coupling_holds(state)
    assert events >= 500


def test_source_step_absorbs_weak_fronts(monkeypatch):
    # a front below rho_simpl whose regions the source moved is dropped: the
    # region behind it takes the shifted state ahead of it, and only the
    # stronger front ahead is re-solved by the accurate step
    import gasnet.fronttracking as ft

    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.05)
    track = state.pipes[1]
    st = track.trace
    mid = apply_wave(2, 0.5 * state.rho_simpl * st.rho, st, G)
    right = apply_wave(2, 0.02 * st.rho, mid, G)
    weak = ft._front_from_jump(2, st, mid, G)
    strong = ft._front_from_jump(2, mid, right, G)
    weak.born_x, strong.born_x = 0.3, 0.6
    state._splice(1, 0, len(track.fronts), [weak, strong])
    assert ft._STRENGTH_FLOOR < state._scaled_strength(1, weak) < state.rho_simpl
    assert state._scaled_strength(1, strong) > state.rho_simpl

    src = ft.FrictionSource(0.02, 0.5)
    dt = 0.1

    def shifted(s):
        return PipeState(Model.M3, s.rho, s.q + dt * src.momentum_rate(s), kappa=s.kappa)

    solved = []
    accurate = ft.accurate_solve

    def spy(left, right, *args):
        solved.append((left, right))
        return accurate(left, right, *args)

    monkeypatch.setattr(ft, "accurate_solve", spy)
    state.apply_source(src, dt)
    fronts = track.fronts
    assert weak not in fronts
    assert all(f.family != NONPHYSICAL for f in fronts)
    assert all(f.at(state.time) in (0.0, 0.6) for f in fronts)
    assert solved == [(shifted(mid), shifted(right))]
    # the chain closes: each front starts where the one before it ends
    prev = track.trace
    for f in fronts:
        assert f.left is prev
        prev = f.right
    assert prev == shifted(right)
    # the region [0, 0.3) behind the weak front took shifted(mid)
    assert state.np_absorbed == state.scales[1].state_norm(shifted(st), shifted(mid)) * 0.3
    _assert_glimm_matches(state)


def test_event_budget_exhausted_carries_context():
    from gasnet import EventBudgetExhausted, GasnetError

    state = _rich_scenario()
    state.max_events = 5
    with pytest.raises(EventBudgetExhausted) as err:
        state.run(3.0)
    exc = err.value
    assert isinstance(exc, GasnetError)
    assert exc.events == 6 and exc.time == state.time
    assert exc.live_fronts == sum(len(t.fronts) for t in state.pipes)
    for text in ("budget 5", f"{exc.time:.6g}", "6 events", f"{exc.live_fronts} live fronts"):
        assert text in str(exc)
    # in a ladder the note names the member that ran out
    (note,) = exc.__notes__
    assert note.startswith("epsilon 0.005: event 6 (") and note.endswith(f"at t = {exc.time:.6g}")


def test_scheduler_ties_follow_scan_order():
    # identical approaching pairs in both outgoing pipes and twice within
    # each: the scan order picks the lower pipe, then the lower index
    specs, profiles = balanced_m3_junction()
    state = init_approximation(specs, profiles, G, epsilon=0.01)

    for i, track in enumerate(state.pipes[1:], 1):
        st = track.trace
        fronts = []
        for x in (0.25, 1.25):
            mid = apply_wave(2, 0.02, st, G)
            right = apply_wave(2, 0.015, mid, G)
            f1, f2 = _front_from_jump(2, st, mid, G), _front_from_jump(2, mid, right, G)
            f1.born_x, f2.born_x = x, x + 0.25
            fronts += [f1, f2]
            st = right
        # the scheduler reads only positions and speeds: copy the first pair's
        fronts[2].speed, fronts[3].speed = fronts[0].speed, fronts[1].speed
        assert fronts[0].speed > fronts[1].speed
        state._splice(i, 0, len(track.fronts), fronts)
    ev = state._next_event()
    assert ev == _reference_next_event(state)
    assert ev[1:] == ("collision", 1, 0)


def test_glimm_totals_after_largest_ladder():
    # thousands of events and over a hundred fronts per pipe: the
    # functionals still match their definitions
    state = ladder_scenario(0.00125)
    state.run(1.2)
    assert state.events > 5000
    assert max(len(t.fronts) for t in state.pipes) > 100
    _assert_glimm_matches(state)


def _m1_cases(rng):
    """(specs, profiles, control) of a junction of an incoming and an
    outgoing M1 pipe and an outgoing M2 pipe (the entropy mix), and of an
    M1-to-M1 compressor, with one interior jump of relative size 0.01 per
    pipe."""
    prob = build_fixed_point_junction(rng, G, [Model.M1], [Model.M1, Model.M2])
    comp = balanced_compressor(rng, G, Model.M1, Model.M1)
    cases = []
    for pipes, control in ((prob.pipes, None), (comp.pipes, comp.control)):
        profiles = [[(0.3 + 0.2 * k, p.state), (None, perturb(p.state, 0.01, G))]
                    for k, p in enumerate(pipes)]
        cases.append(([p.spec for p in pipes], profiles, control))
    return cases


def test_oracle_m1_runs(rng):
    # an outgoing full-Euler pipe receives a contact from every coupling
    # solve, at the junction and at the compressor of _m1_cases; every
    # interaction with those contacts is checked
    for specs, profiles, control in _m1_cases(rng):
        for eps in (0.04, 0.02):
            state = init_approximation(specs, profiles, G, epsilon=eps, control=control)
            assert _oracle_run(state, 1.5) >= 10
            assert {r.kind for r in state.interactions} >= {"collision", "junction"}
            assert _np_strength(state) <= 0.1 * eps, (eps, _np_strength(state))


def test_roles_are_those_of_the_t0_coupling_problem(rng):
    # the tracker takes each pipe's role from the coupling problem of its
    # t = 0 solve: on the M1 junction (an incoming and an outgoing
    # full-Euler pipe) and the M1 compressor of _m1_cases
    for specs, profiles, control in _m1_cases(rng):
        state = init_approximation(specs, profiles, G, epsilon=0.04, control=control)
        problem = JunctionProblem([(spec, prof[0][1]) for spec, prof in zip(specs, profiles)],
                                  G, control)
        assert state.roles == [p.role for p in problem.pipes]
        assert {M1_IN, M1_OUT} <= set(state.roles)


def test_kj_does_not_depend_on_epsilon(rng):
    # the premise of a ladder member taking the run's K_J: the estimate is
    # the same float at every epsilon, on the shipped tracking scenario,
    # the shipped compressor run as simulate, the M1 junction and
    # compressor of the oracle runs and the mixed-model oracle data
    from test_acceptance import _mixed_model_tracking_scenario

    from gasnet.scenario import parse_scenario

    root = Path(__file__).parents[1] / "scenarios"
    cases = []
    for name in ("y_junction_tracking.yaml", "compressor_head.yaml"):
        sc = parse_scenario((root / name).read_text(), mode="simulate")
        cases.append((sc.specs, sc.profiles, sc.constants, sc.control))
    cases += [(specs, profiles, G, control) for specs, profiles, control in _m1_cases(rng)]
    epsilons = (0.04, 0.02, 0.01, 0.005)
    for specs, profiles, g, control in cases:
        kjs = [init_approximation(specs, profiles, g, eps, control=control).K_J
               for eps in epsilons]
        assert all(kj == kjs[0] for kj in kjs), kjs
    kjs = [_mixed_model_tracking_scenario(epsilon=eps).K_J for eps in epsilons]
    assert all(kj == kjs[0] for kj in kjs), kjs


def test_star_pressure_a_rounding_step_above_data(monkeypatch):
    # on this draw a K_J probe's coupling solve puts the outlet's star
    # pressure a rounding step above its data pressure, so phi returns the
    # data density and a shock speed would divide by zero: the wave is a
    # vanishing rarefaction instead; the spy sees the tracker reach it
    import gasnet.fronttracking as ft

    seen = []

    def spy(family, data, star, param_star, g):
        wave = _acoustic_wave(family, data, star, param_star, g)
        if param_star == nextafter(pressure(data, g), inf):
            seen.append((data, star, param_star, wave))
        return wave

    monkeypatch.setattr(ft, "_acoustic_wave", spy)
    comp = balanced_compressor(np.random.default_rng(15), G, Model.M1, Model.M1, kind=POWER)
    specs, data = [p.spec for p in comp.pipes], [p.state for p in comp.pipes]
    state = init_approximation(specs, data, G, epsilon=0.02, control=comp.control)
    assert state.K_J >= 2.0
    assert seen
    for probe, star, p_star, wave in seen:
        assert star.rho == probe.rho
        assert (wave.kind, wave.left, wave.right) == (RAREFACTION, star, probe)
        assert wave.strength == p_star - pressure(probe, G) > 0.0
    out = data[1]
    p_star = nextafter(pressure(out, G), inf)
    star = m1_state(out.rho, out.u, p_star, G)
    assert star.rho == out.rho
    for family, left, right in ((1, out, star), (3, star, out)):
        wave = _acoustic_wave(family, out, star, p_star, G)
        assert (wave.kind, wave.left, wave.right) == (RAREFACTION, left, right)
        assert wave.strength == p_star - pressure(out, G) > 0.0
