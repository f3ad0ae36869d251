"""Properties of the coupling problems over random subsonic data.

Junctions of 2-6 pipes mixing M1, M2 and M3, and compressors (CP1/CP2,
all nine inlet/outlet model pairs), a little off balance: the closed-form
Jacobian against central differences, the traces Newton returns against
the traces of its iterate, and junction solutions under any ordering of
the pipes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import balanced_compressor, build_fixed_point_junction, perturb_problem
from gasnet import (
    GasConstants,
    Model,
    NonPositiveDensity,
    NonPositiveFlux,
    NonPositivePressure,
    SingularEntropyMix,
)
from gasnet.compressor import ADIABATIC_HEAD, POWER
from gasnet.junction import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    JunctionProblem,
    _newton,
    coupling_jacobian,
    fd_jacobian,
    solve_junction,
)
from test_compressor import perturb_inlet
from test_junction import _jac_close

G = GasConstants(gamma=1.4, R=1.0)
MODELS = (Model.M1, Model.M2, Model.M3)
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
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
        ok, err = _jac_close(coupling_jacobian(problem, x), fd_jacobian(problem, x))
        assert ok, f"Jacobian mismatch {err:g} at {x}"


@PROPERTY
@given(problems)
def test_newton_returns_the_traces_of_its_iterate(problem):
    errors = (NonPositiveDensity, NonPositivePressure, NonPositiveFlux, SingularEntropyMix)
    x, traces, res, _ = _newton(problem, DEFAULT_TOL, DEFAULT_MAX_ITER, errors)
    assert res <= DEFAULT_TOL
    assert list(traces) == list(problem.traces(x))


@PROPERTY
@given(junctions(), hs.data())
def test_junction_solution_independent_of_pipe_order(problem, data):
    ordered = sorted(problem.pipes, key=lambda p: p.input_index)
    perm = data.draw(hs.permutations(range(problem.n)))
    shuffled = JunctionProblem([(ordered[k].spec, ordered[k].state) for k in perm], G)
    a, b = solve_junction(problem), solve_junction(shuffled)
    for pos, k in enumerate(perm):
        assert abs(b.sigma[pos] - a.sigma[k]) <= 1e-10 * abs(a.sigma[k])
        if a.tau[k] is None:
            assert b.tau[pos] is None
        else:
            # tau is a density shift: relative to the pipe's density
            rho = ordered[k].state.rho
            assert abs(b.tau[pos] - a.tau[k]) <= 1e-10 * max(abs(a.tau[k]), rho)
