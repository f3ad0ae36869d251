"""Entropy-preserving junction coupling for the generalized Riemann problem.

The trace state of every pipe is written as a point on its wave curve
(see :mod:`gasnet.laxcurves`); the coupling residual stacks

* total mass flux through the junction,
* pairwise equality of total enthalpy against a pivot pipe,
* for each outgoing full-Euler pipe, equality of its specific entropy
  with the flux-weighted entropy mix of the incoming pipes,

and is driven to zero by a damped Newton iteration started at the base
parameters, where the residual vanishes for balanced data.  The pivot is
the incoming pipe of maximal initial entropy, which keeps the entropy-mix
derivative of the pivot column non-positive and hence the base Jacobian
regular.

Pipes are renumbered internally into the canonical block order
[outgoing M1 | incoming M1 | incoming M2 | incoming M3 | outgoing M2/M3];
solutions are reported in the caller's original pipe order.

Junctions and compressors (:mod:`gasnet.compressor`) are one kind of
problem: a coupling condition on the curve parameters x = (sigma, tau).
Both problem classes provide

* ``base_parameters()``: the (sigma, tau) blocks of the starting point,
* ``traces(x)``: the per-pipe :class:`~gasnet.laxcurves.TraceEval`,
* ``residual(traces)`` and ``jacobian(traces)``, both unscaled,
* ``row_scales``: the per-row scales of the nondimensionalized residual,
* ``fd_floor``: the per-column floor of the finite-difference step
  (1e-6 for sigma columns, the pipe density for tau columns),

and one damped Newton (``_newton``) solves both.  ``coupling_residual``,
``coupling_jacobian`` and the central-difference reference
``fd_jacobian`` evaluate either kind at a parameter vector.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    NoConvergence,
    NonPositiveDensity,
    NonPositivePressure,
    NotSubsonic,
    SingularEntropyMix,
    SingularJacobian,
    SubsonicViolation,
)
from .laxcurves import M1_OUT, base_parameter, role_of, trace_eval
from .thermo import (
    FlowRegime,
    GasConstants,
    Model,
    PipeState,
    classify_subsonic,
    sound_speed,
    thermo_quantities,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50
MAX_BACKTRACKS = 30


class Orientation(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"


@dataclass(frozen=True)
class PipeSpec:
    """Geometry and model of one pipe attached to the junction."""

    id: str
    area: float
    model: Model
    orientation: Orientation = None

    def __post_init__(self):
        if not self.area > 0.0:
            raise ValueError(f"pipe {self.id!r}: area must be positive")


@dataclass(frozen=True)
class _Pipe:
    """Internal per-pipe record in canonical order."""

    spec: PipeSpec
    state: PipeState
    role: str
    outgoing: bool
    input_index: int


def _classify_pipe(spec: PipeSpec, state: PipeState, g: GasConstants, where):
    if spec.model is not state.model:
        raise ValueError(f"{where}: spec model {spec.model} != state model {state.model}")
    regime = classify_subsonic(state, g)
    if regime is FlowRegime.NOT_SUBSONIC:
        raise NotSubsonic(
            f"{where}: initial state must be strictly subsonic with nonzero "
            f"velocity (u={state.u}, c={sound_speed(state, g)})"
        )
    outgoing = regime is FlowRegime.D_PLUS
    if spec.orientation is not None:
        expect = Orientation.OUTGOING if outgoing else Orientation.INCOMING
        if spec.orientation is not expect:
            raise ValueError(
                f"{where}: declared orientation {spec.orientation.value} does not "
                f"match the flow direction of the initial state ({expect.value})"
            )
    return outgoing


def _group(model: Model, outgoing: bool):
    if model is Model.M1:
        return 0 if outgoing else 1
    if not outgoing:
        return 2 if model is Model.M2 else 3
    return 4 if model is Model.M2 else 5


class JunctionProblem:
    """A single junction with N pipes, their initial states, and constants.

    The parameter vector is x = (sigma_0..sigma_{N-1}, tau of each
    outgoing M1 pipe); rows are mass, N-1 enthalpy rows against the
    pivot, then one entropy row per outgoing M1 pipe.
    """

    def __init__(self, pipes, constants: GasConstants = None):
        g = constants if constants is not None else GasConstants()
        entries = []
        for idx, (spec, state) in enumerate(pipes):
            outgoing = _classify_pipe(spec, state, g, f"pipe {spec.id!r}")
            entries.append((spec, state, outgoing, idx))
        if len(entries) < 2:
            raise ValueError("a junction needs at least two pipes")
        n_in = sum(1 for e in entries if not e[2])
        if n_in == 0 or n_in == len(entries):
            raise ValueError(
                "a junction needs at least one incoming and one outgoing pipe"
            )
        entries.sort(key=lambda e: (_group(e[0].model, e[2]), e[3]))

        # Rotate the incoming pipe of maximal entropy to the head of its
        # model block, so it can serve as the enthalpy pivot.
        s_of = {}
        for spec, state, outgoing, idx in entries:
            s_of[idx] = thermo_quantities(state, g).s
        incoming = [e for e in entries if not e[2]]
        pivot_entry = max(incoming, key=lambda e: s_of[e[3]])
        block = _group(pivot_entry[0].model, False)
        first_of_block = next(i for i, e in enumerate(entries)
                              if _group(e[0].model, e[2]) == block)
        entries.remove(pivot_entry)
        entries.insert(first_of_block, pivot_entry)

        self.constants = g
        self.pipes = tuple(
            _Pipe(spec, state, role_of(spec.model, outgoing), outgoing, idx)
            for spec, state, outgoing, idx in entries
        )
        self.n = len(self.pipes)
        self.n0 = sum(1 for p in self.pipes if p.role == M1_OUT)
        self.incoming = tuple(i for i, p in enumerate(self.pipes) if not p.outgoing)
        self.outgoing_m1 = tuple(i for i, p in enumerate(self.pipes) if p.role == M1_OUT)
        self.pivot = next(i for i, p in enumerate(self.pipes)
                          if p.input_index == pivot_entry[3])
        self.dim = self.n + self.n0
        self._tau_col = {j: self.n + k for k, j in enumerate(self.outgoing_m1)}

        mass = sum(p.spec.area * p.state.rho * sound_speed(p.state, g) for p in self.pipes)
        h_sc = max(abs(thermo_quantities(p.state, g).h) for p in self.pipes)
        self.row_scales = np.array([mass] + [max(h_sc, 1e-300)] * (self.n - 1)
                                   + [g.gamma * g.cv] * self.n0)
        self.fd_floor = np.array([1e-6] * self.n
                                 + [self.pipes[j].state.rho for j in self.outgoing_m1])

    def base_parameters(self):
        sigma0 = np.array(
            [base_parameter(p.role, p.state, self.constants) for p in self.pipes]
        )
        tau0 = np.zeros(self.n0)
        return sigma0, tau0

    def to_input_order(self, values):
        out = [None] * self.n
        for i, p in enumerate(self.pipes):
            out[p.input_index] = values[i]
        return tuple(out)

    def traces(self, x):
        g = self.constants
        col = self._tau_col
        return [trace_eval(p.role, p.state, g, x[i], x[col[i]] if i in col else 0.0)
                for i, p in enumerate(self.pipes)]

    def residual(self, traces):
        """Coupling residual of dimension N + (number of outgoing M1 pipes)."""
        n, piv = self.n, self.pivot
        out = np.empty(self.dim)
        out[0] = sum(self.pipes[i].spec.area * traces[i].q for i in range(n))
        row = 1
        for j in range(n):
            if j == piv:
                continue
            out[row] = traces[piv].h - traces[j].h
            row += 1
        if self.n0:
            s_star = _entropy_mix_from(self, traces)
            for j in self.outgoing_m1:
                out[row] = traces[j].s - s_star
                row += 1
        return out

    def jacobian(self, traces):
        """Closed-form derivative of the residual w.r.t. (sigma, tau),
        exact on both curve branches."""
        n, piv = self.n, self.pivot
        tau_col = self._tau_col
        J = np.zeros((self.dim, self.dim))

        for i, p in enumerate(self.pipes):
            a = p.spec.area
            J[0, i] = a * traces[i].dq_dsigma
            if i in tau_col:
                J[0, tau_col[i]] = a * traces[i].dq_dtau

        row = 1
        for j in range(n):
            if j == piv:
                continue
            J[row, piv] = traces[piv].dh_dsigma
            J[row, j] -= traces[j].dh_dsigma
            if j in tau_col:
                J[row, tau_col[j]] = -traces[j].dh_dtau
            row += 1

        if self.n0:
            den = sum(self.pipes[i].spec.area * traces[i].q for i in self.incoming)
            s_star = _entropy_mix_from(self, traces)
            # d s*/d sigma_i for incoming pipes (zero columns otherwise)
            ds_star = {}
            for i in self.incoming:
                a = self.pipes[i].spec.area
                t = traces[i]
                ds_star[i] = a * (t.dq_dsigma * t.s + t.q * t.ds_dsigma - s_star * t.dq_dsigma) / den
            for j in self.outgoing_m1:
                J[row, j] = traces[j].ds_dsigma
                J[row, tau_col[j]] = traces[j].ds_dtau
                for i in self.incoming:
                    J[row, i] -= ds_star[i]
                row += 1
        return J


def coupling_residual(problem, x):
    """Unscaled coupling residual of a junction or compressor problem at x."""
    return problem.residual(problem.traces(x))


def coupling_jacobian(problem, x):
    """Closed-form Jacobian of the unscaled coupling residual at x."""
    return problem.jacobian(problem.traces(x))


def fd_jacobian(problem, x):
    """Central-difference Jacobian of the coupling residual at x: the
    independent reference for :func:`coupling_jacobian`.  Column k steps
    by 1e-6 * max(|x_k|, fd_floor_k)."""
    x = np.asarray(x, dtype=float)
    J = np.empty((problem.dim, problem.dim))
    for col in range(problem.dim):
        h = 1e-6 * max(abs(x[col]), problem.fd_floor[col])
        xp, xm = x.copy(), x.copy()
        xp[col] += h
        xm[col] -= h
        J[:, col] = (coupling_residual(problem, xp) - coupling_residual(problem, xm)) / (2.0 * h)
    return J


def entropy_mix(problem: JunctionProblem, sigma):
    """Flux-weighted entropy of the incoming pipes at parameters sigma."""
    x = np.concatenate([sigma, np.zeros(problem.n0)])
    return _entropy_mix_from(problem, problem.traces(x))


def _entropy_mix_from(problem: JunctionProblem, traces):
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


def pivot_blocks(problem: JunctionProblem, x=None):
    """The 3x3 blocks that control regularity when outgoing M1 pipes exist.

    Block j couples (sigma_j, sigma_pivot, tau_j) of outgoing M1 pipe j
    through the mass row, its enthalpy row, and its entropy row; x
    defaults to the base parameters.
    """
    if x is None:
        x = np.concatenate(problem.base_parameters())
    J = coupling_jacobian(problem, x)
    n, piv = problem.n, problem.pivot
    enth_row = {}
    row = 1
    for j in range(n):
        if j == piv:
            continue
        enth_row[j] = row
        row += 1
    blocks = []
    for k, j in enumerate(problem.outgoing_m1):
        er = enth_row[j]
        sr = n + k
        cols = (j, piv, problem._tau_col[j])
        block = np.array([
            [J[0, c] for c in cols],
            [J[er, c] for c in cols],
            [J[sr, c] for c in cols],
        ])
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class StarSolution:
    """Junction trace states and the parameters that generate them.

    All per-pipe tuples are in the caller's original pipe order; ``tau``
    holds None for pipes without a contact parameter.
    """

    star_states: tuple
    sigma: tuple
    tau: tuple
    h_star: float
    s_star: float
    residual_norm: float
    iterations: int
    extras: dict

    @property
    def assigned_kappa(self):
        return self.extras.get("assigned_kappa")


def _newton(problem, tol, max_iter, domain_errors):
    """Damped Newton with Armijo backtracking on the scaled residual,
    started at the base parameters.

    Returns (x, traces, residual, iterations), where ``traces`` are the
    traces of the accepted iterate x; the Jacobian of each step is built
    from the traces that gave its residual.
    """
    scales = problem.row_scales
    x = np.concatenate(problem.base_parameters())
    traces = problem.traces(x)
    fx = problem.residual(traces) / scales
    for it in range(max_iter + 1):
        res = np.linalg.norm(fx, np.inf)
        if res <= tol:
            return x, traces, res, it
        if it == max_iter:
            break
        J = problem.jacobian(traces) / scales[:, None]
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"coupling Jacobian is singular: {exc}") from exc
        norm0 = np.linalg.norm(fx)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            try:
                trial = problem.traces(x + alpha * step)
                fn = problem.residual(trial) / scales
            except domain_errors:
                alpha *= 0.5
                continue
            if np.linalg.norm(fn) <= (1.0 - 1e-4 * alpha) * norm0:
                break
            alpha *= 0.5
        else:
            raise NoConvergence("line search stalled", residual=res, iterations=it)
        x = x + alpha * step
        traces, fx = trial, fn
    raise NoConvergence(
        f"no convergence in {max_iter} iterations",
        residual=float(res),
        iterations=max_iter,
    )


def solve_junction(problem: JunctionProblem, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER) -> StarSolution:
    """Solve the junction coupling system for the trace star states.

    The returned entropy mix is assigned to outgoing isentropic pipes as
    solution metadata (``extras['assigned_kappa']``); their star states
    keep the kappa of their initial data.
    """
    g = problem.constants
    n = problem.n
    x, traces, res, it = _newton(problem, tol, max_iter,
                                 (NonPositiveDensity, NonPositivePressure, SingularEntropyMix))

    sigma, tau = x[:n], x[n:]
    s_star = _entropy_mix_from(problem, traces) if problem.incoming else None
    h_star = traces[problem.pivot].h

    states = []
    assigned = {}
    for i, p in enumerate(problem.pipes):
        st = traces[i].state
        regime = classify_subsonic(st, g)
        want = FlowRegime.D_PLUS if p.outgoing else FlowRegime.D_MINUS
        if regime is not want:
            raise SubsonicViolation(
                f"pipe {p.spec.id!r}: star state left {want.value} "
                f"(u={st.u:g}, c={sound_speed(st, g):g})"
            )
        if p.outgoing and p.spec.model.is_isentropic:
            assigned[p.spec.id] = g.kappa_from_entropy(s_star)
        states.append(st)

    tau_of = dict(zip(problem.outgoing_m1, tau))
    tau_full = [tau_of.get(i) for i in range(n)]
    return StarSolution(
        star_states=problem.to_input_order(states),
        sigma=problem.to_input_order(list(sigma)),
        tau=problem.to_input_order(tau_full),
        h_star=h_star,
        s_star=s_star,
        residual_norm=float(res),
        iterations=it,
        extras={"assigned_kappa": assigned},
    )


@dataclass(frozen=True)
class CouplingDiagnostics:
    mass_residual: float
    max_enthalpy_spread: float
    max_entropy_residual: float


def verify_coupling(sol: StarSolution, problem: JunctionProblem) -> CouplingDiagnostics:
    """Re-check the coupling conditions directly from the star states.

    This path recomputes q, h, s from the states (not from the curve
    parameters), so it exercises a different evaluation route than the
    solver.  Residuals are nondimensionalized against the problem's
    mass/enthalpy/entropy row scales.
    """
    g = problem.constants
    m_sc, h_sc = problem.row_scales[:2].tolist()
    states = {i: sol.star_states[problem.pipes[i].input_index] for i in range(problem.n)}
    mass = sum(problem.pipes[i].spec.area * states[i].q for i in range(problem.n))
    hs = [thermo_quantities(states[i], g).h for i in range(problem.n)]
    spread = (max(hs) - min(hs)) / h_sc
    ent = 0.0
    if problem.n0 and sol.s_star is not None:
        s_sc = float(problem.row_scales[-1])   # an entropy row
        for j in problem.outgoing_m1:
            s_j = thermo_quantities(states[j], g).s
            ent = max(ent, abs(s_j - sol.s_star) / s_sc)
    return CouplingDiagnostics(abs(mass) / m_sc, spread, ent)
