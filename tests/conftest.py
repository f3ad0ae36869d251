"""Shared builders for randomized subsonic states and balanced problems,
and the hypothesis profile of the property tests."""

from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import settings

from gasnet import GasConstants, Model, iso_state, m1_state, thermo_quantities
from gasnet.compressor import ADIABATIC_HEAD, POWER, CompressorControl
from gasnet.junction import JunctionProblem, PipeSpec

# One hypothesis profile for every property test: fixed example sequences,
# no example database and no per-example deadline keep Tier-1
# deterministic.  Tests set only max_examples and health checks.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def state_from_enthalpy(model, kappa, f_signed, h_star, g):
    """Subsonic state with prescribed total enthalpy and Mach fraction.

    For M1/M2 the kinetic term enters h, so c^2 = h/(1/(gamma-1) + f^2/2);
    for M3 it does not.  The M1 state carries p = kappa*rho^gamma, i.e.
    entropy cv*ln(kappa).
    """
    gam = g.gamma
    f = abs(f_signed)
    if model is Model.M3:
        c2 = h_star * (gam - 1.0)
    else:
        c2 = h_star / (1.0 / (gam - 1.0) + 0.5 * f * f)
    rho = (c2 / (kappa * gam)) ** (1.0 / (gam - 1.0))
    u = f_signed / max(f, 1e-300) * f * sqrt(c2)
    if model is Model.M1:
        return m1_state(rho, u, kappa * rho**gam, g)
    return iso_state(model, rho, u, kappa)


def build_fixed_point_junction(rng, g, models_in, models_out, h_star=None,
                               kappa_scale=1.0):
    """Junction problem with constant data satisfying the coupling exactly.

    Incoming states share the target enthalpy at random entropies and Mach
    fractions; outgoing states take the entropy mix; areas of the outgoing
    pipes are chosen to close the mass balance.
    """
    if h_star is None:
        h_star = kappa_scale * rng.uniform(2.0, 6.0)
    pipes = []
    for k, m in enumerate(models_in):
        kappa = kappa_scale * exp(rng.uniform(-0.3, 0.3))
        f = rng.uniform(0.15, 0.55)
        st = state_from_enthalpy(m, kappa, -f, h_star, g)
        pipes.append((PipeSpec(f"in{k}", rng.uniform(0.5, 2.0), m), st))
    num = den = 0.0
    for spec, st in pipes:
        s = thermo_quantities(st, g).s
        num += spec.area * st.q * s
        den += spec.area * st.q
    s_star = num / den
    kappa_star = exp((s_star - g.s0) / g.cv)
    Q_in = -den
    outs = []
    for m in models_out:
        f = rng.uniform(0.15, 0.55)
        outs.append(state_from_enthalpy(m, kappa_star, +f, h_star, g))
    w = rng.uniform(0.2, 1.0, size=len(outs))
    w /= w.sum()
    for k, (m, st) in enumerate(zip(models_out, outs)):
        pipes.append((PipeSpec(f"out{k}", w[k] * Q_in / st.q, m), st))
    return JunctionProblem(pipes, g)


def random_model_mix(rng, n):
    """Incoming/outgoing model lists with at least one pipe on each side."""
    n_in = int(rng.integers(1, n))
    models = [Model(rng.choice(["M1", "M2", "M3"])) for _ in range(n)]
    return models[:n_in], models[n_in:]


def perturb(state, rel, g, rng=None):
    """Multiplicative perturbation of the conservative components."""
    if rng is None:
        fr, fq = 1.0 + rel, 1.0
    else:
        fr = 1.0 + rel * rng.uniform(-1.0, 1.0)
        fq = 1.0 + rel * rng.uniform(-1.0, 1.0)
    if state.model is Model.M1:
        from gasnet import PipeState

        return PipeState(Model.M1, state.rho * fr, state.q * fq, E=state.E * fr)
    u_new = state.q * fq / (state.rho * fr)
    return iso_state(state.model, state.rho * fr, u_new, state.kappa)


def end_to_end(profiles, period):
    """The piecewise profiles ``profiles`` (each a list of ``(x_right,
    state)`` pairs ending with ``(None, state)``, every edge below
    ``period``) laid end to end: profile k is shifted by k * period and
    its last state held up to (k + 1) * period; the last one ends
    unbounded."""
    out = []
    for k, pieces in enumerate(profiles):
        out += [(x + k * period, st) for x, st in pieces[:-1]]
        out.append((None if k == len(profiles) - 1 else (k + 1) * period, pieces[-1][1]))
    return out


def perturb_problem(problem, rel, rng):
    """New junction problem with every initial state perturbed by <= rel.

    Pipes keep their order, so solutions of the perturbed and reference
    problems are directly comparable.
    """
    pipes = [(p.spec, perturb(p.state, rel, problem.constants, rng))
             for p in problem.pipes]
    return JunctionProblem(pipes, problem.constants)


def balanced_compressor(rng, g, m_in, m_out, kind=ADIABATIC_HEAD, cp_coeff=0.9,
                        kappa_scale=1.0, ratio=None):
    """Compressor problem whose initial data satisfy the coupling exactly."""
    gam = g.gamma
    kappa1 = kappa_scale * exp(rng.uniform(-0.2, 0.2))
    rho1 = exp(rng.uniform(-0.2, 0.2))
    c1 = sqrt(kappa1 * gam * rho1 ** (gam - 1.0))
    u1 = -rng.uniform(0.2, 0.5) * c1
    st1 = (m1_state(rho1, u1, kappa1 * rho1**gam, g) if m_in is Model.M1
           else iso_state(m_in, rho1, u1, kappa1))
    pr = ratio if ratio is not None else rng.uniform(1.2, 2.0)
    p1 = kappa1 * rho1**gam
    p2 = pr * p1
    e = (gam - 1.0) / gam
    T1 = p1 / (g.R * rho1)
    T2 = T1 * pr**e
    rho2 = p2 / (g.R * T2)
    q2 = -rho1 * u1
    u2 = q2 / rho2
    c2 = sqrt(gam * p2 / rho2)
    assert 0.0 < u2 < c2, "balanced construction left the subsonic region"
    st2 = (m1_state(rho2, u2, p2, g) if m_out is Model.M1
           else iso_state(m_out, rho2, u2, p2 / rho2**gam))
    head = gam * g.R / (gam - 1.0) * T1 * (pr**e - 1.0)
    if kind == ADIABATIC_HEAD:
        control = CompressorControl(ADIABATIC_HEAD, head)
    else:
        control = CompressorControl(POWER, cp_coeff * q2 * head, cp_coeff=cp_coeff)
    area = rng.uniform(0.5, 2.0)
    return JunctionProblem([(PipeSpec("in", area, m_in), st1),
                            (PipeSpec("out", area, m_out), st2)], g, control)


def flow_reversal_junction(g, seed=157):
    """(specs, profiles) of a balanced junction of rng ``seed``, 1-3 pipes
    in and 1-3 out of random models, with two random jumps in each pipe.
    At epsilon 0.04 a pipe's flow turns around:

    * seed 157 (one M1 pipe in, one M3 pipe out): the 79th event, at the
      junction near t = 0.2466, leaves every pipe flowing one way;
    * seed 398 (M2, M2 and M3 pipes in, one M2 pipe out): at the 35th
      event, near t = 0.2159, in0 turns outgoing while both sides keep a
      pipe."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 5)
    n_in = rng.integers(1, n)
    models = [Model(rng.choice(["M1", "M2", "M3"])) for _ in range(n)]
    problem = build_fixed_point_junction(rng, g, models[:n_in], models[n_in:])
    profiles = []
    for p in problem.pipes:
        a = perturb(p.state, rng.uniform(0.05, 0.5), g, rng)
        b = perturb(p.state, rng.uniform(0.05, 0.5), g, rng)
        profiles.append([(0.3, p.state), (0.6, a), (None, b)])
    return [p.spec for p in problem.pipes], profiles
