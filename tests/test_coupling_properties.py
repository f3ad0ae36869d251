"""Properties of the coupling problems over random subsonic data.

Junctions of 2-6 pipes mixing M1, M2 and M3, and compressors (CP1/CP2,
all nine inlet/outlet model pairs), a little off balance: the closed-form
Jacobian against central differences, the elimination of each Newton step
and the Newton against numpy's LAPACK solve on that Jacobian, the traces Newton returns against
the traces of its iterate, junction solutions under any ordering of
the pipes, and the entropy mix carried by outgoing full-Euler pipes.
A problem taken at new data (``JunctionProblem.at``) against one built
on that data, and its refusal of a pipe whose flow turned around.
Also the model hierarchy: a full-Euler junction at common entropy against
its isentropic twin, whose star states differ at third order in the size
of the data's move.
"""

from math import exp

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
    FlowReversal,
    GasConstants,
    GasnetError,
    Model,
    PipeState,
    iso_state,
    m1_state,
    pressure,
    sound_speed,
    thermo_quantities,
)
from gasnet.compressor import ADIABATIC_HEAD, POWER, solve_compressor
from gasnet.junction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    JunctionProblem,
    PipeSpec,
    _newton,
    solve_junction,
)
from reference import dense_jacobian, fd_jacobian, jacobian_at, numpy_newton
from test_compressor import perturb_inlet
from test_junction import _jac_close

G = GasConstants(gamma=1.4, R=1.0)
MODELS = (Model.M1, Model.M2, Model.M3)
PROPERTY = settings(max_examples=40)
_seeds = hs.integers(0, 2**32 - 1)


@hs.composite
def junctions(draw):
    """A balanced junction of 2-6 pipes, each state then moved by <= 2%."""
    n = draw(hs.integers(2, 6))
    n_in = draw(hs.integers(1, n - 1))
    models = draw(hs.lists(hs.sampled_from(MODELS), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(_seeds))
    base = build_fixed_point_junction(rng, G, models[:n_in], models[n_in:])
    return perturb_problem(base, draw(hs.floats(0.0, 0.02)), rng)


@hs.composite
def compressors(draw):
    """A balanced compressor whose inlet state is then scaled by <= 0.4%."""
    kind = draw(hs.sampled_from((ADIABATIC_HEAD, POWER)))
    m_in, m_out = draw(hs.sampled_from(MODELS)), draw(hs.sampled_from(MODELS))
    rng = np.random.default_rng(draw(_seeds))
    prob = balanced_compressor(rng, G, m_in, m_out, kind)
    return perturb_inlet(prob, 1.0 + draw(hs.floats(-0.004, 0.004)))


problems = hs.one_of(junctions(), compressors())


@PROPERTY
@given(problems, _seeds)
def test_jacobian_matches_finite_differences(problem, seed):
    sigma0, tau0 = problem.base_parameters()
    rng = np.random.default_rng(seed)
    off = np.concatenate([sigma0 * rng.uniform(0.95, 1.05, size=len(sigma0)),
                          tau0 + rng.uniform(-0.03, 0.03, size=len(tau0))])
    for x in (np.concatenate([sigma0, tau0]), off):
        ok, err = _jac_close(jacobian_at(problem, x), fd_jacobian(problem, x))
        assert ok, f"Jacobian mismatch {err:g} at {x}"


@PROPERTY
@given(problems)
def test_elimination_matches_numpy_solve(problem):
    # the step against numpy's solve with the scaled dense base Jacobian, for
    # the first Newton right-hand side and a vector of ones (a residual of
    # minus the row scales); largest relative gap seen over 3,000 random
    # junctions and compressors: 3.9e-15
    sigma, tau = problem.base_parameters()
    traces = problem.traces(sigma + tau)
    scales = np.array(problem.row_scales)
    J = dense_jacobian(problem, traces) / scales[:, None]
    residual = problem.residual(traces)
    for r in (residual, list(-scales)):
        ref = np.linalg.solve(J, -np.array(r) / scales)
        x = np.array(problem.newton_step(traces, r))
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


def test_wide_mixed_junction_matches_the_numpy_newton():
    # 24-32 pipes of all three models, beyond the strategy's 2-6: the same
    # iteration count as the dense numpy Newton and sigma within 1e-13
    rng = np.random.default_rng(28)
    for n in (24, 28, 32):
        models = [MODELS[k % 3] for k in rng.permutation(n)]
        n_in = n // 3
        base = build_fixed_point_junction(rng, G, models[:n_in], models[n_in:])
        problem = perturb_problem(base, 0.02, rng)
        assert problem.n0 > 0 and len(problem.incoming) == n_in
        x, _, _, it = _newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER)
        ref, ref_it = numpy_newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert it == ref_it >= 2
        for a, b in zip(x[:n], ref[:n]):
            assert abs(a - b) <= 1e-13 * abs(b)


@PROPERTY
@given(problems)
def test_newton_drift_from_the_numpy_solve(problem):
    # the Newton on lists against the same Newton on numpy arrays: equal
    # iteration counts, sigma within 1e-13 relative and tau (a density
    # shift) within 1e-13 of its pipe's density; largest seen over 2,000
    # random junctions and compressors: 1.6e-15 and 2.6e-16
    x, _, _, it = _newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER)
    ref, ref_it = numpy_newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert it == ref_it
    n = problem.n
    for a, b in zip(x[:n], ref[:n]):
        assert abs(a - b) <= 1e-13 * abs(b)
    for k, j in enumerate(problem.outgoing_m1):
        assert abs(x[n + k] - ref[n + k]) <= 1e-13 * problem.pipes[j].state.rho


@PROPERTY
@given(problems)
def test_newton_returns_the_traces_of_its_iterate(problem):
    x, traces, res, _ = _newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert res <= DEFAULT_TOL
    assert list(traces) == list(problem.traces(x))


@PROPERTY
@given(junctions(), hs.data())
def test_junction_solution_independent_of_pipe_order(problem, data):
    # every per-pipe result follows its pipe, within 1e-10 relative; q is
    # relative to the pipe's rho*c, tau (a density shift) to its density,
    # and s_star to the entropy row scale gamma*cv, since it may be near 0
    pipes = problem.pipes
    perm = data.draw(hs.permutations(range(problem.n)))
    shuffled = JunctionProblem([(pipes[k].spec, pipes[k].state) for k in perm], G)
    assert [p.spec for p in shuffled.pipes] == [pipes[k].spec for k in perm]
    a, b = solve_junction(problem), solve_junction(shuffled)
    rel = 1e-10
    for pos, k in enumerate(perm):
        st = pipes[k].state
        assert abs(b.sigma[pos] - a.sigma[k]) <= rel * abs(a.sigma[k])
        if a.tau[k] is None:
            assert b.tau[pos] is None
        else:
            assert abs(b.tau[pos] - a.tau[k]) <= rel * max(abs(a.tau[k]), st.rho)
        sa, sb = a.star_states[k], b.star_states[pos]
        assert abs(sb.rho - sa.rho) <= rel * sa.rho
        assert abs(sb.q - sa.q) <= rel * st.rho * sound_speed(st, G)
        if sa.model is Model.M1:
            assert abs(sb.E - sa.E) <= rel * sa.E
        else:
            assert sb.kappa == sa.kappa
    assert abs(b.h_star - a.h_star) <= rel * abs(a.h_star)
    assert abs(b.s_star - a.s_star) <= rel * max(abs(a.s_star), G.gamma * G.cv)


@PROPERTY
@given(junctions())
def test_outgoing_m1_pipes_carry_the_entropy_mix(problem):
    # the solved traces of every outgoing M1 pipe have the flux-weighted mean
    # entropy of the incoming traces; entropy is relative to the solver's
    # entropy row scale gamma*cv, since s = cv ln(kappa) + s0 may be near 0
    sol = solve_junction(problem)
    pipes = problem.pipes
    flux = num = 0.0
    for p, st in zip(pipes, sol.star_states):
        if not p.outgoing:
            flux += p.spec.area * st.q
            num += p.spec.area * st.q * thermo_quantities(st, G).s
    mix = num / flux
    for p, st in zip(pipes, sol.star_states):
        if p.outgoing and p.spec.model is Model.M1:
            s = thermo_quantities(st, G).s
            assert abs(s - mix) <= 1e-10 * max(abs(mix), G.gamma * G.cv), (s, mix)


# -- one problem at new data ---------------------------------------------


def _raised(build):
    """The type and text of the GasnetError ``build()`` raises."""
    with pytest.raises(GasnetError) as err:
        build()
    return type(err.value), str(err.value)


@PROPERTY
@given(problems, _seeds)
def test_at_matches_a_fresh_problem(problem, seed):
    # the problem at data moved by <= 1% on the same sides against one
    # built on that data: equal pipes, pivot, row scales and solution
    rng = np.random.default_rng(seed)
    specs = [p.spec for p in problem.pipes]
    states = [perturb(p.state, 0.01, G, rng) for p in problem.pipes]
    fresh = JunctionProblem(list(zip(specs, states)), G, problem.control)
    moved = problem.at(states)
    assert moved.pipes == fresh.pipes
    assert moved.pivot == fresh.pivot and moved.row_scales == fresh.row_scales
    solve = solve_junction if problem.control is None else solve_compressor
    assert solve(moved) == solve(fresh)


def test_at_takes_the_pivot_from_the_new_data():
    # two incoming M1 pipes, their entropies 0.032 cv apart; the one that
    # is not the pivot has its pressure raised until its entropy is the
    # larger by 0.01 cv, which moves the pivot to it in at(), as in a
    # problem built on the new data
    base = build_fixed_point_junction(np.random.default_rng(17), G,
                                      [Model.M1, Model.M1], [Model.M2])
    k = 1 - base.pivot
    s = [thermo_quantities(p.state, G).s for p in base.pipes]
    st = base.pipes[k].state
    states = [p.state for p in base.pipes]
    rise = exp((s[base.pivot] - s[k]) / G.cv + 0.01)
    states[k] = m1_state(st.rho, st.u, pressure(st, G) * rise, G)
    moved = base.at(states)
    fresh = JunctionProblem([(p.spec, st) for p, st in zip(base.pipes, states)], G)
    assert moved.pivot == fresh.pivot == k
    assert moved.row_scales == fresh.row_scales
    assert solve_junction(moved) == solve_junction(fresh)


@PROPERTY
@given(problems, hs.data())
def test_at_refuses_a_pipe_whose_flow_turned(problem, data):
    # one pipe's flow turned around: FlowReversal naming the pipe while
    # both sides of a junction keep a pipe, otherwise (a side left empty,
    # a compressor running backwards) exactly what the constructor raises
    k = data.draw(hs.integers(0, problem.n - 1))
    pipe = problem.pipes[k]
    st = pipe.state
    states = [p.state for p in problem.pipes]
    states[k] = PipeState(st.model, st.rho, -st.q, E=st.E, kappa=st.kappa)
    got = _raised(lambda: problem.at(states))
    side = sum(p.outgoing == pipe.outgoing for p in problem.pipes)
    if problem.control is None and side > 1:
        assert got[0] is FlowReversal
        assert got[1].startswith(f"pipe {pipe.spec.id!r} is "), got
    else:
        specs = [p.spec for p in problem.pipes]
        assert got == _raised(lambda: JunctionProblem(list(zip(specs, states)), G,
                                                      problem.control))


# -- the model hierarchy: M1 at common entropy against its M2 twin --------

TWIN_DELTAS = (0.05, 0.025, 0.0125)
TWIN_TOL = 1e-13    # below the gaps measured, so the Newton does not set them
TWIN_C = 4.0        # star pressure gap <= TWIN_C * delta**3 (relative)
TWIN_C_S = 0.5      # |s* - s| <= TWIN_C_S * gamma * cv * delta**3


@hs.composite
def twin_junctions(draw):
    """(kappa, pipes, direction): a balanced junction of 2-4 isentropic
    pipes at one kappa, as (id, area, state), and a unit direction in the
    2N-space of relative density and velocity-over-sound-speed moves."""
    n = draw(hs.integers(2, 4))
    n_in = draw(hs.integers(1, n - 1))
    rng = np.random.default_rng(draw(_seeds))
    kappa, h = exp(rng.uniform(-0.3, 0.3)), rng.uniform(2.0, 6.0)
    ins = [(rng.uniform(0.5, 2.0),
            state_from_enthalpy(Model.M2, kappa, -rng.uniform(0.15, 0.55), h, G))
           for _ in range(n_in)]
    outs = [state_from_enthalpy(Model.M2, kappa, rng.uniform(0.15, 0.55), h, G)
            for _ in range(n - n_in)]
    w = rng.uniform(0.2, 1.0, size=len(outs))
    flux = -sum(a * st.q for a, st in ins) / w.sum()
    pipes = ([(f"in{k}", a, st) for k, (a, st) in enumerate(ins)]
             + [(f"out{k}", wk * flux / st.q, st) for k, (wk, st) in enumerate(zip(w, outs))])
    direction = rng.normal(size=(n, 2))
    return kappa, pipes, direction / np.linalg.norm(direction)


def _twin(kappa, pipes, direction, delta, model):
    """The junction with every pipe's data moved by delta along
    ``direction`` at the common kappa: M1 states with p = kappa rho**gamma,
    or their M2 twins."""
    moved = []
    for (pid, area, st), (d_rho, d_u) in zip(pipes, direction):
        rho = st.rho * (1.0 + delta * d_rho)
        u = st.u + delta * d_u * sound_speed(st, G)
        new = (m1_state(rho, u, kappa * rho**G.gamma, G) if model is Model.M1
               else iso_state(Model.M2, rho, u, kappa))
        moved.append((PipeSpec(pid, area, model), new))
    return JunctionProblem(moved, G)


@settings(max_examples=40)
@given(twin_junctions())
def test_m1_junction_matches_its_m2_twin_at_third_order(case):
    # Hugoniot curves and isentropes agree to second order in the wave
    # strength, so the star pressures of M1 and M2 differ by O(delta**3);
    # rarefactions follow the isentrope exactly, so without a shock the two
    # agree to rounding.  The largest gap / delta**3 seen over 400 draws
    # was 2.0, and the largest entropy move 0.19 * gamma * cv * delta**3
    kappa, pipes, direction = case
    s_common = G.entropy_from_kappa(kappa)
    s_scale = G.gamma * G.cv
    gaps, strengths = [], []
    for delta in TWIN_DELTAS:
        m1 = _twin(kappa, pipes, direction, delta, Model.M1)
        a = solve_junction(m1, tol=TWIN_TOL)
        b = solve_junction(_twin(kappa, pipes, direction, delta, Model.M2), tol=TWIN_TOL)
        gaps.append(max(abs(pressure(x, G) - pressure(y, G)) / pressure(y, G)
                        for x, y in zip(a.star_states, b.star_states)))
        # each pipe's relative pressure jump over delta: > 0 is a shock
        strengths.append([(pressure(x, G) - pressure(p.state, G)) / pressure(p.state, G) / delta
                          for x, p in zip(a.star_states, m1.pipes)])
        assert gaps[-1] <= TWIN_C * delta**3, (delta, gaps[-1])
        # outgoing M1 star entropies are the mix s*, to rounding; s* leaves
        # the common entropy only through shocks on incoming pipes
        for x, p in zip(a.star_states, m1.pipes):
            if p.outgoing:
                assert abs(thermo_quantities(x, G).s - a.s_star) <= 1e-12 * s_scale
        incoming_shock = any(x > 0.0 for x, p in zip(strengths[-1], m1.pipes)
                             if not p.outgoing)
        bound = TWIN_C_S * delta**3 if incoming_shock else 1e-13
        assert abs(a.s_star - s_common) <= bound * s_scale, (delta, a.s_star, s_common)
    shocks = [k for k, s in enumerate(strengths[-1]) if s > 0.0]
    if not shocks:
        assert max(gaps) <= 1e-12
        return
    # in the asymptotic regime, each shock's strength linear in delta to 5%
    # over the ladder, the gap falls by at least 6 per halving (8 is third
    # order; a weak shock whose strength is not yet linear in delta can
    # give less, and so can a gap near rounding)
    linear = all(abs(strengths[0][k] - strengths[-1][k]) <= 0.05 * abs(strengths[-1][k])
                 for k in shocks)
    if linear and gaps[-1] > 1e-12:
        assert all(coarse >= 6.0 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps
