"""Entropy-preserving coupling of pipes at a junction or a compressor.

The trace state of every pipe is written as a point on its wave curve
(see :mod:`gasnet.laxcurves`); the coupling residual stacks

* total mass flux through the junction,
* pairwise equality of total enthalpy against a pivot pipe, or at a
  compressor the control's pressure-rise balance minus the control value
  (:class:`gasnet.compressor.CompressorControl`),
* for each outgoing full-Euler pipe, equality of its specific entropy
  with the flux-weighted entropy mix of the incoming pipes (at a
  compressor, whose one incoming pipe is the mix, s_out = s_in),

and is driven to zero by a damped Newton iteration started at the base
parameters, where the residual vanishes for balanced data.  The pivot is
the incoming pipe of maximal initial entropy, which keeps the entropy-mix
derivative of the pivot column non-positive and hence the base Jacobian
regular.

:class:`JunctionProblem` provides

* ``base_parameters()``: the (sigma, tau) blocks of the starting point,
* ``traces(x)``: the per-pipe :class:`~gasnet.laxcurves.TraceEval`,
* ``residual(traces)``, unscaled, and ``row_scales``, its row scales,
* ``newton_step(traces, residual)``: the step, by elimination through
  the changes of the pivot's row quantity and of the entropy mix, in
  O(N) for N pipes with no Jacobian matrix,
* ``at(states)``: the problem on the same pipes at one new state per
  pipe, built by the constructor, in which every pipe keeps its side,

all as Python lists, and one damped Newton (``_newton``) solves it.
:func:`classify_pipes` alone decides which pipes are incoming and which
data form a coupling problem; ``at`` raises FlowReversal for a pipe
that changed sides.  :func:`state_residuals` rechecks the coupling
conditions from one state per pipe.
"""

import math
from types import SimpleNamespace
from typing import NamedTuple

from .errors import (
    FlowReversal,
    NoConvergence,
    NonPositiveDensity,
    NonPositiveFlux,
    NonPositivePressure,
    NotSubsonic,
    OneSidedJunction,
    SingularEntropyMix,
    SingularJacobian,
    SubsonicViolation,
)
from .laxcurves import M1_OUT, curve_parameter, role_of, trace_eval
from .thermo import (
    FlowRegime,
    GasConstants,
    Model,
    PipeState,
    _Checked,
    classify_subsonic,
    pressure,
    sound_speed,
    temperature,
    thermo_quantities,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50
MAX_BACKTRACKS = 30
# a trial step that raises one of these is halved; only a power-controlled
# compressor raises NonPositiveFlux
_DOMAIN_ERRORS = (NonPositiveDensity, NonPositivePressure, NonPositiveFlux,
                  SingularEntropyMix)


class _PipeSpecFields(NamedTuple):
    id: str
    area: float
    model: Model


class PipeSpec(_Checked, _PipeSpecFields):
    """Geometry and model of one pipe attached to the junction.  Whether
    the pipe is incoming or outgoing follows from the sign of its velocity
    at the junction (the subsonic sets D- and D+)."""

    __slots__ = ()

    def __new__(cls, id, area, model):
        if not area > 0.0:
            raise ValueError(f"pipe {id!r}: area must be positive")
        if area == math.inf:
            raise ValueError(f"pipe {id!r}: area must be finite")
        return tuple.__new__(cls, (id, area, model))


class _Pipe(NamedTuple):
    """Internal per-pipe record."""

    spec: PipeSpec
    state: PipeState
    role: str
    outgoing: bool


def classify_pipes(pipes, g: GasConstants, control=None):
    """Whether each (spec, state) pair of ``pipes`` is outgoing.  Raises
    at the first pipe or rule outside the coupling problem: NotSubsonic
    for a state not strictly subsonic, or at a compressor (``control``)
    an inlet that is not incoming or an outlet that is not outgoing;
    OneSidedJunction for no incoming or no outgoing pipe.  These depend
    on the data, so a tracked run meets them as solver errors.  ValueError
    is for what the caller fixes: a spec model that is not its state's,
    or a compressor without two pipes of equal area."""
    outgoing = []
    for spec, state in pipes:
        if spec.model is not state.model:
            raise ValueError(f"pipe {spec.id!r}: spec model {spec.model} "
                             f"!= state model {state.model}")
        regime = classify_subsonic(state, g)
        if regime is FlowRegime.NOT_SUBSONIC:
            raise NotSubsonic(
                f"pipe {spec.id!r}: initial state must be strictly subsonic with nonzero "
                f"velocity (u={state.u}, c={sound_speed(state, g)})"
            )
        outgoing.append(regime is FlowRegime.D_PLUS)
    if control is not None:
        if len(pipes) != 2:
            raise ValueError("a compressor joins exactly two pipes")
        if outgoing[0]:
            raise NotSubsonic("inlet state must have strictly negative subsonic velocity")
        if not outgoing[1]:
            raise NotSubsonic("outlet state must have strictly positive subsonic velocity")
        if pipes[0][0].area != pipes[1][0].area:
            raise ValueError("compressor pipes must have equal surface sections")
    # this also rejects fewer than two pipes
    if all(outgoing) or not any(outgoing):
        raise OneSidedJunction("a junction needs at least one incoming and one outgoing "
                               "pipe (N > dim(I_i) > 0)")
    return outgoing


class JunctionProblem:
    """A single junction with N pipes, their initial states, and constants.

    Pipes keep the caller's order.  The parameter vector is
    x = (sigma_0..sigma_{N-1}, tau of each outgoing M1 pipe); rows are
    mass, N-1 enthalpy rows against the pivot, then one entropy row per
    outgoing M1 pipe.

    With a ``control`` the problem is a compressor from pipe 0 (incoming)
    into pipe 1 (outgoing) of equal area, and the control's balance minus
    its value replaces the one enthalpy row.
    """

    def __init__(self, pipes, g: GasConstants, control=None):
        sides = classify_pipes(pipes, g, control)
        self.constants = g
        self.control = control
        self.pipes = tuple(_Pipe(spec, state, role_of(spec.model, out), out)
                           for (spec, state), out in zip(pipes, sides))
        self.n = len(self.pipes)
        self.incoming = tuple(i for i, p in enumerate(self.pipes) if not p.outgoing)
        self.outgoing_m1 = tuple(i for i, p in enumerate(self.pipes) if p.role == M1_OUT)
        self.n0 = len(self.outgoing_m1)
        tq = [thermo_quantities(p.state, g) for p in self.pipes]
        self.pivot = max(self.incoming, key=lambda i: tq[i].s)
        # the pipe of each enthalpy row 1..N-1, against the pivot
        self._enthalpy_rows = tuple(j for j in range(self.n) if j != self.pivot)
        self.dim = self.n + self.n0
        self._tau_col = {j: self.n + k for k, j in enumerate(self.outgoing_m1)}

        mass = sum(p.spec.area * p.state.rho * t.c for p, t in zip(self.pipes, tq))
        if control is None:
            h_sc = max(abs(t.h) for t in tq)
            middle = [max(h_sc, 1e-300)] * (self.n - 1)
        else:
            middle = [control.row_scale(self.pipes[0].state, g)]
        self.row_scales = [mass] + middle + [g.gamma * g.cv] * self.n0

    def at(self, states):
        """This problem at one new state per pipe: a new problem on the
        same pipe specs, constants and control, so ``states`` raise what
        the constructor raises; a pipe whose flow then runs against its
        side here raises FlowReversal."""
        new = JunctionProblem([(p.spec, st) for p, st in zip(self.pipes, states)],
                              self.constants, self.control)
        for p, q in zip(self.pipes, new.pipes):
            if q.outgoing != p.outgoing:
                role, now = ("outgoing", "enters") if p.outgoing else ("incoming", "leaves")
                raise FlowReversal(f"pipe {p.spec.id!r} is {role}, but its flow now {now} "
                                   f"the junction (u={q.state.u:g})")
        return new

    def base_parameters(self):
        sigma0 = [curve_parameter(1, p.state, self.constants) for p in self.pipes]
        return sigma0, [0.0] * self.n0

    def traces(self, x):
        g = self.constants
        col = self._tau_col
        return [trace_eval(p.role, p.state, g, x[i], x[col[i]] if i in col else 0.0)
                for i, p in enumerate(self.pipes)]

    def residual(self, traces):
        """Coupling residual of dimension N + (number of outgoing M1 pipes)."""
        out = [sum(p.spec.area * t.q for p, t in zip(self.pipes, traces))]
        if self.control is None:
            h_piv = traces[self.pivot].h
            out += [h_piv - traces[j].h for j in self._enthalpy_rows]
        else:
            t_in, t_out = traces
            out.append(self.control.balance(t_in.T, t_in.p, t_out.p, t_out.q, self.constants)
                       - self.control.value)
        if self.n0:
            s_star = _entropy_mix_from(self, traces)
            out += [traces[j].s - s_star for j in self.outgoing_m1]
        return out

    def newton_step(self, traces, residual):
        """The Newton step for the unscaled ``residual`` at ``traces``, by
        elimination through two scalars: dH, the change of the pivot's row
        quantity (h_pivot, or the balance at a compressor), and dS, the
        change of the entropy mix.  Every other row alone, or an outgoing
        M1 pipe's 2x2 (row, entropy) block, makes that pipe's step affine
        in dH and dS; dS is affine in dH through the incoming pipes, and
        the mass row gives dH.  An exact zero divisor raises
        ``SingularJacobian`` naming its pipe or row."""
        pipes, piv, col = self.pipes, self.pivot, self._tau_col
        if self.control is None:
            d_piv = traces[piv].dh_dsigma
            rows = [(traces[j].dh_dsigma, traces[j].dh_dtau) for j in self._enthalpy_rows]
        else:
            # the balance's gradient in place of (h_sigma,piv, -h_sigma,j, -h_tau,j)
            d_piv, d_out, d_tau = self.control.gradient(traces[0], traces[1], self.constants)
            rows = [(-d_out, -d_tau)]
        if d_piv == 0.0:
            raise SingularJacobian(f"pivot pipe {pipes[piv].spec.id!r}: zero row derivative")
        # column -> (a0, a1, w): its step is a0 + a1 * dH, its mass-row entry w
        aff = {piv: (0.0, 1.0 / d_piv, pipes[piv].spec.area * traces[piv].dq_dsigma)}
        blocks = []
        for j, (g_s, g_t), r in zip(self._enthalpy_rows, rows, residual[1:]):
            if j in col:
                blocks.append((j, g_s, g_t, r))
            elif g_s == 0.0:
                raise SingularJacobian(f"pipe {pipes[j].spec.id!r}: zero row derivative")
            else:
                aff[j] = (r / g_s, 1.0 / g_s, pipes[j].spec.area * traces[j].dq_dsigma)
        if blocks:
            s_star = _entropy_mix_from(self, traces)
            den = sum(pipes[i].spec.area * traces[i].q for i in self.incoming)
            s0 = s1 = 0.0
            for i in self.incoming:
                t = traces[i]
                d = pipes[i].spec.area * (t.dq_dsigma * t.s + t.q * t.ds_dsigma
                                          - s_star * t.dq_dsigma) / den
                s0 += d * aff[i][0]
                s1 += d * aff[i][1]
            for j, g_s, g_t, r in blocks:
                t, a = traces[j], pipes[j].spec.area
                det = g_s * t.ds_dtau - g_t * t.ds_dsigma
                if det == 0.0:
                    raise SingularJacobian(f"pipe {pipes[j].spec.id!r}: singular 2x2 block")
                e = s0 - residual[col[j]]
                aff[j] = ((t.ds_dtau * r - g_t * e) / det, (t.ds_dtau - g_t * s1) / det,
                          a * t.dq_dsigma)
                aff[col[j]] = ((g_s * e - t.ds_dsigma * r) / det, (g_s * s1 - t.ds_dsigma) / det,
                               a * t.dq_dtau)
        m0 = m1 = 0.0
        for a0, a1, w in aff.values():
            m0 += w * a0
            m1 += w * a1
        if m1 == 0.0:
            raise SingularJacobian("mass row: zero coefficient of dH")
        dh = (-residual[0] - m0) / m1
        return [aff[k][0] + aff[k][1] * dh for k in range(self.dim)]


def _entropy_mix_from(problem: JunctionProblem, traces):
    """Flux-weighted entropy of the incoming pipes, from per-pipe
    ``traces`` that carry a mass flux ``q`` and an entropy ``s``."""
    num = 0.0
    den = 0.0
    scale = 0.0
    for i in problem.incoming:
        a = problem.pipes[i].spec.area
        num += a * traces[i].q * traces[i].s
        den += a * traces[i].q
        scale += a * abs(traces[i].q)
    if abs(den) < 1e-12 * max(scale, 1e-300):
        raise SingularEntropyMix(
            f"incoming mass flux sum {den:g} is negligible against scale {scale:g}"
        )
    return num / den


class StarSolution(NamedTuple):
    """Junction trace states and the parameters that generate them.

    All per-pipe tuples are in the problem's pipe order; ``tau`` holds
    None for pipes without a contact parameter.
    """

    star_states: tuple
    sigma: tuple
    tau: tuple
    h_star: float
    s_star: float
    residual_norm: float
    iterations: int
    extras: dict


def _newton(problem, tol, max_iter):
    """Damped Newton with Armijo backtracking on the scaled residual,
    started at the base parameters.

    Returns (x, traces, residual, iterations), where ``traces`` are the
    traces of the accepted iterate x, a list; each step is
    ``problem.newton_step`` at the traces that gave its residual.
    """
    scales = problem.row_scales
    sigma, tau = problem.base_parameters()
    x = sigma + tau
    traces = problem.traces(x)
    r = problem.residual(traces)
    fx = [v / s for v, s in zip(r, scales)]
    for it in range(max_iter + 1):
        res = max(map(abs, fx))
        if res <= tol:
            return x, traces, res, it
        if it == max_iter:
            break
        step = problem.newton_step(traces, r)
        norm0 = math.hypot(*fx)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial_x = [xi + alpha * si for xi, si in zip(x, step)]
            try:
                trial = problem.traces(trial_x)
                rn = problem.residual(trial)
                fn = [v / s for v, s in zip(rn, scales)]
            except _DOMAIN_ERRORS:
                alpha *= 0.5
                continue
            if math.hypot(*fn) <= (1.0 - 1e-4 * alpha) * norm0:
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled", residual=res, iterations=it)
        x, traces, r, fx = trial_x, trial, rn, fn
    raise NoConvergence(
        f"no convergence in {max_iter} iterations",
        residual=res,
        iterations=max_iter,
    )


def _solve(problem: JunctionProblem, tol):
    """(StarSolution, traces) at the Newton's accepted iterate, with every
    star state checked to stay in its pipe's subsonic set."""
    g = problem.constants
    n = problem.n
    x, traces, res, it = _newton(problem, tol, DEFAULT_MAX_ITER)

    sigma, tau = x[:n], x[n:]
    s_star = _entropy_mix_from(problem, traces)

    for p, t in zip(problem.pipes, traces):
        st = t.state
        regime = classify_subsonic(st, g)
        want = FlowRegime.D_PLUS if p.outgoing else FlowRegime.D_MINUS
        if regime is not want:
            raise SubsonicViolation(
                f"pipe {p.spec.id!r}: star state left {want.value} "
                f"(u={st.u:g}, c={sound_speed(st, g):g})"
            )

    tau_of = dict(zip(problem.outgoing_m1, tau))
    sol = StarSolution(
        star_states=tuple(t.state for t in traces),
        sigma=tuple(sigma),
        tau=tuple(tau_of.get(i) for i in range(n)),
        h_star=traces[problem.pivot].h,
        s_star=s_star,
        residual_norm=res,
        iterations=it,
        extras={},
    )
    return sol, traces


def solve_junction(problem: JunctionProblem, tol=DEFAULT_TOL) -> StarSolution:
    """Solve the junction coupling system for the trace star states.

    ``s_star`` is the entropy mix of the incoming pipes; the star states of
    outgoing isentropic pipes keep the kappa of their initial data.
    """
    return _solve(problem, tol)[0]


def state_residuals(problem: JunctionProblem, states) -> dict:
    """The coupling conditions recomputed from one state per pipe, each
    divided by its row scale of ``problem``:

    * ``mass``: |sum of area * q|;
    * ``enthalpy_spread`` at a junction: max - min of the total enthalpies;
    * ``control`` at a compressor: |balance - control value|;
    * ``entropy``, only where an outgoing full-Euler pipe exists: the
      largest |s_j - mix| over those pipes, the mix recomputed from the
      incoming states.
    """
    g = problem.constants
    scales = problem.row_scales
    tq = [thermo_quantities(st, g) for st in states]
    mass = sum(p.spec.area * st.q for p, st in zip(problem.pipes, states))
    out = {"mass": abs(mass) / scales[0]}
    control = problem.control
    if control is None:
        hs = [t.h for t in tq]
        out["enthalpy_spread"] = (max(hs) - min(hs)) / scales[1]
    else:
        st_in, st_out = states
        rise = control.balance(temperature(st_in, g), pressure(st_in, g),
                               pressure(st_out, g), st_out.q, g)
        out["control"] = abs(rise - control.value) / scales[1]
    if problem.n0:
        mix = _entropy_mix_from(problem, [SimpleNamespace(q=st.q, s=t.s)
                                          for st, t in zip(states, tq)])
        out["entropy"] = max(abs(tq[j].s - mix) for j in problem.outgoing_m1) / scales[-1]
    return out


class CouplingDiagnostics(NamedTuple):
    mass_residual: float
    max_enthalpy_spread: float
    max_entropy_residual: float


def verify_coupling(sol: StarSolution, problem: JunctionProblem) -> CouplingDiagnostics:
    """The :func:`state_residuals` of a junction's star states; a compressor
    problem raises ValueError.  They are recomputed from the states alone,
    not from the curve parameters or ``h_star`` and ``s_star``;
    ``max_entropy_residual`` is 0.0 without an outgoing full-Euler pipe."""
    if problem.control is not None:
        raise ValueError("verify_coupling checks junctions; state_residuals checks a compressor")
    r = state_residuals(problem, sol.star_states)
    return CouplingDiagnostics(r["mass"], r["enthalpy_spread"], r.get("entropy", 0.0))
