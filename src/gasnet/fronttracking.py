"""Wave-front tracking on a single coupled junction (or compressor).

The approximate solution is piecewise constant on each half-line pipe and
evolves by propagating finitely many fronts:

* the *accurate* step solves local Riemann problems exactly and slices
  rarefaction fans into jumps of scaled strength <= epsilon;
* the *simplified* step handles interactions whose scaled strength
  product falls below rho_simpl (and every interaction with a
  non-physical front) by reusing the incoming strengths and shedding
  the mismatch into a non-physical front at the fixed speed lambda_hat;
* fronts reaching x = 0 either trigger a full coupling re-solve, which
  emits waves on every pipe, or (non-physical, or strength below
  rho_simpl) are reflected into a single non-physical front so no other
  pipe is disturbed and the junction traces keep satisfying the coupling
  conditions;
* a source step (``apply_source``) shifts the momentum of the constant
  regions; a front whose adjacent regions moved is re-solved by the
  accurate step, or, when it is non-physical or its strength is below
  rho_simpl, absorbed: it is dropped and the bounded region behind it
  takes the state ahead of it.

The threshold is rho_simpl = epsilon * epsilon**2 = epsilon**3: two fan
slices have a strength product of at most epsilon**2, so the threshold
sits one factor epsilon below it.  Slice-slice interactions then go to
the accurate step, and only interactions already weaker than epsilon**3
shed a non-physical front, of strength of the order of that product.
Front tracking converges only if the total strength of non-physical
fronts tends to 0 with epsilon (Bressan, Hyperbolic Systems of
Conservation Laws, 2000, ch. 7; Baiti & Jenssen, J. Math. Anal. Appl.
217, 1998); with epsilon**2, nearly every slice-slice interaction took
the simplified path, and on the test ladder the live non-physical
strength stayed near 0.004 from epsilon 0.04 down to 0.005.  The source
step uses the same threshold because re-solving a weak jump whose two
sides moved emits a wave in each family, so each step could double the
fronts.  ``glimm()`` reports the live non-physical strength as
``np_strength``, and ``np_absorbed`` the L1 change the source steps made
by absorbing fronts.

Wave strength is measured as the jump of the curve parameter, divided by
a per-pipe scale fixed at t = 0 (pressure scale for full-Euler acoustic
families, density scale for contacts and isentropic families), so
strengths are dimensionless and comparable across models.  Non-physical
fronts carry the nondimensionalized norm of their state jump.  The
Glimm-type functionals V (weighted strength sum), Q (approaching-pair
potential) and Y = V + K_hat_J * Q are evaluated from these measures;
junction-bound families carry weight 2*K_J, junction-leaving ones and
non-physical fronts 1.

K_J is estimated once per scenario by probing the coupling solve with
small incident waves on every pipe and approaching family.  The probes
start from the traces of the t = 0 coupling solve and use the per-pipe
scales, neither of which depends on epsilon, so an epsilon-ladder member
(``ladder_of``) takes the estimate of the scenario's own run.  Each run
then chooses K_hat_J with K_hat_J * V(0) < min(K_J, 1), since V(0)
depends on epsilon; this makes Y non-increasing at interactions for
sufficiently weak data.

Every front the accurate step emits is an exact Lax jump to rounding,
which the strength floor ``_STRENGTH_FLOOR`` (1e-11) relies on: the
star solves of ``kernels`` return the two-rarefaction closed form or a
Newton root converged to rounding, so a front misses the curve point of
its own strength by about 1e-15 (scaled state norm).  A simplified
interaction rebuilds states from strengths and sheds any miss as a
non-physical front, so a miss above the floor would be one more front
that overtakes everything ahead of it.

Every front is a jump along a Lax wave curve of ``laxcurves``: fan
slices and the fronts of the simplified step take their parameters,
curve points and fan-edge speeds from it.  A front is a
``riemann.Front``, the type the Riemann solvers and the coupling
patterns build, and ``riemann._acoustic_wave`` alone builds every
acoustic wave and front but the fan slices, which are rarefactions by
construction, so it alone decides shock or rarefaction.

Cost per event.  Each pipe keeps the absolute meeting time of every
adjacent front pair in ``times``, parallel to ``fronts``.  Fronts enter
a pipe only through ``_splice``, which replaces a run of fronts by new
ones already in order, rechains them from the state behind them and
recomputes only the pair times next to them.  Initialization splices
each pipe's interior fronts into the empty pipe, a source step splices
its re-solved fronts over the whole pipe, and a collision, a junction
event or a reflection splices the fronts it replaces into each pipe it
touches, so an event costs its own fronts and a C-level minimum over
each touched pipe's pair times.  Every coupling solve goes through
``_emit``, which sets all traces and splices the emitted fronts at the
front of each pipe; the t = 0 solve also fixes each pipe's role.
Adjacent same-family rarefaction fronts diverge and contacts are
parallel, so a collision never pairs two of them.  No front moves: a
front is the line ``born_x + speed * (t - born_t)``; pair times and
collision midpoints evaluate it inline, and ``Front.at`` elsewhere.  A
front's scaled strength is one division, ``abs(strength)`` by its
pipe's ``family_scales`` entry for its family, and a fan slice's speed
is the one edge eigenvalue that ``fan_edge_speed`` computes.  The event
loop keeps no Glimm totals; ``glimm()`` evaluates (V, Q, TV) on demand,
and ``_pipe_glimm`` walks each pipe's fronts once, with running strength
sums per family for Q.

The weak-form diagnostic (``weak_form_residual``) is one pass after the
run over the retired segments, which a ladder member does not keep: one
Python step per segment computes its jump defect, with one
``flux_vector`` per distinct state, and numpy then evaluates every test
bump on every segment at once, as bumps x segments arrays at each of the
five Simpson nodes, with one ``math.exp`` per node inside a bump's
support, and sums each bump's terms by one sequential ``cumsum``.  It is
the only user of numpy in gasnet, and imports it when called, so the
coupling solves and the event loop run without it.
"""

import math
from typing import NamedTuple

from . import kernels
from .compressor import solve_compressor
from .errors import (
    EventBudgetExhausted,
    GasnetError,
    NonPositiveDensity,
    SubsonicViolation,
)
from .junction import DEFAULT_TOL, JunctionProblem, solve_junction
from .laxcurves import (
    ISO,
    M1_IN,
    M1_OUT,
    curve_parameter,
    curve_point,
    fan_edge_speed,
    lax_m1,
)
from .riemann import (
    CONTACT,
    RAREFACTION,
    SHOCK,
    Front,
    _acoustic_wave,
    solve_riemann_iso,
    solve_riemann_m1,
)
from .thermo import (
    GasConstants,
    Model,
    PipeState,
    eigenvalues,
    iso_state,
    m1_state,
    pressure,
    sound_speed,
)

NONPHYSICAL = 0
_STRENGTH_FLOOR = 1e-11   # scaled strength below which fronts are dropped
_SPEED_TIE = 1e-12        # relative speed gap treated as parallel
DEFAULT_MAX_EVENTS = 500_000

_APPROACHING = {M1_OUT: (1,), M1_IN: (1, 2), ISO: (1,)}


class PipeScales(NamedTuple):
    """Per-pipe nondimensionalization fixed at t = 0."""

    param: float   # pressure scale (M1) or density scale (M2/M3)
    rho: float
    q: float
    E: float

    def strength_scale(self, family, model):
        if model is Model.M1 and family == 2:
            return self.rho
        return self.param

    def state_norm(self, a: PipeState, b: PipeState):
        n = abs(a.rho - b.rho) / self.rho + abs(a.q - b.q) / self.q
        if a.model is Model.M1:
            n += abs(a.E - b.E) / self.E
        return n


class PipeTrack:
    """Piecewise-constant state of one pipe: trace state plus ordered fronts."""

    def __init__(self, trace):
        self.trace = trace
        self.fronts = []
        self.times = []      # times[k]: absolute meeting time of fronts k, k+1

    def states(self):
        yield self.trace
        for f in self.fronts:
            yield f.right

    def states_at(self, xs, pos):
        """The state at each ascending x in xs, in one pass, given the
        fronts' positions ``pos``; at a front the state to its right."""
        out = []
        k = 0
        for x in xs:
            while k < len(pos) and not x < pos[k]:
                k += 1
            out.append(self.fronts[k - 1].right if k else self.trace)
        return out


class GlimmDiagnostics(NamedTuple):
    """Glimm-type functionals of the current front configuration, and the
    summed scaled strength of its non-physical fronts."""

    V: float
    Q: float
    Y: float
    TV: float
    front_count: int
    np_strength: float


class InteractionRecord(NamedTuple):
    """One resolved event; a run makes one per event."""

    time: float
    kind: str  # "collision" | "junction" | "reflection"
    pipe: int
    v_minus: float
    v_plus: float


class Segment(NamedTuple):
    """Closed trajectory piece of one front, for weak-form diagnostics."""

    pipe: int
    t0: float
    t1: float
    x0: float
    speed: float
    left: PipeState
    right: PipeState


class FrictionSource:
    """Pipe friction, which acts on the momentum balance alone.

    The source step reads a source only through ``momentum_rate``, the
    rate of change of q at a state; rho, the M1 energy E and kappa stay.
    """

    def __init__(self, lambda_f, diameter):
        if not (lambda_f >= 0.0 and diameter > 0.0):
            raise ValueError("friction needs lambda_f >= 0 and diameter > 0")
        self.lambda_f = lambda_f
        self.diameter = diameter

    def momentum_rate(self, state):
        """-lambda_f * q|q| / (2 * D * rho)."""
        return -self.lambda_f * state.q * abs(state.q) / (2.0 * self.diameter * state.rho)


def flux_vector(state: PipeState, g: GasConstants):
    p = pressure(state, g)
    if state.model is Model.M1:
        return (state.q, state.q * state.u + p, state.u * (state.E + p))
    if state.model is Model.M2:
        return (state.q, state.q * state.u + p)
    return (state.q, p)


def _front_from_jump(family, left, right, g):
    """Physical front for a family-k jump: a contact, or the acoustic wave
    from the data side (left for family 1, else right) to the other."""
    if left.model is Model.M1 and family == 2:
        return Front(2, CONTACT, left.u, right.rho - left.rho, left, right)
    data, star = (left, right) if family == 1 else (right, left)
    return _acoustic_wave(family, data, star, curve_parameter(family, star, g), g)


def apply_wave(family, strength, left: PipeState, g: GasConstants) -> PipeState:
    """State to the right of a family-k wave of signed strength on ``left``.

    Positive strength is the compressive (shock) side for every family.
    """
    model = left.model
    gamma = g.gamma
    if family == 1:
        return curve_point(1, curve_parameter(1, left, g) + strength, left, g)
    if model is Model.M1:
        if family == 2:
            return lax_m1(2, strength, left, g)
        # family 3 applied from the left: invert the parameterization
        p_w = pressure(left, g)
        p_x = p_w - strength
        if p_x <= 0.0:
            raise NonPositiveDensity(f"wave of strength {strength} from p={p_w}")
        if p_w <= p_x:
            rho_x = left.rho * (p_x / p_w) ** (1.0 / gamma)
        else:
            mu2 = (gamma - 1.0) / (gamma + 1.0)
            rho_x = left.rho * (mu2 * p_w + p_x) / (p_w + mu2 * p_x)
        return m1_state(rho_x, left.u - kernels.psi(p_w, p_x, rho_x, gamma), p_x, g)
    rho_x = left.rho - strength
    if rho_x <= 0.0:
        raise NonPositiveDensity(f"wave of strength {strength} from rho={left.rho}")
    if model is Model.M2:
        inc = kernels.theta2(left.rho, rho_x, left.kappa, gamma)
        return iso_state(Model.M2, rho_x, (left.q - inc) / left.rho, left.kappa)
    inc = kernels.theta3(left.rho, rho_x, left.kappa, gamma)
    return PipeState(Model.M3, rho_x, left.q - inc, kappa=left.kappa)


def _slice_fan(wave: Front, g, eps_param):
    """Split a rarefaction into jumps of parameter width <= eps_param.

    Slice states lie on the exact wave curve; every slice travels at the
    characteristic speed of its right state, which orders the fan.
    """
    family = wave.family
    m = max(1, math.ceil(abs(wave.strength) / eps_param - 1e-12))
    data = wave.left if family == 1 else wave.right
    p0 = curve_parameter(family, wave.left, g)
    p1 = curve_parameter(family, wave.right, g)
    fronts = []
    prev, p_prev = wave.left, p0
    for k in range(1, m + 1):
        state = curve_point(family, p0 + (p1 - p0) * k / m, data, g) if k < m else wave.right
        p = curve_parameter(family, state, g)
        # the signed parameter step, positive on the shock side
        strength = p - p_prev if family == 1 else p_prev - p
        fronts.append(Front(family, RAREFACTION, fan_edge_speed(family, state, g),
                            strength, prev, state))
        prev, p_prev = state, p
    return fronts


def _wave_fronts(waves, g, epsilon, scales: PipeScales):
    """Fronts of the waves above the strength floor, left to right: each
    shock or contact is its own front, and each rarefaction is sliced into
    jumps of scaled strength <= epsilon."""
    fronts = []
    for w in waves:
        sc = scales.strength_scale(w.family, w.left.model)
        if abs(w.strength) < _STRENGTH_FLOOR * sc:
            continue
        if w.kind == RAREFACTION:
            fronts += _slice_fan(w, g, epsilon * sc)
        else:
            fronts.append(w)
    return fronts


def _placed(fronts, x, t):
    """``fronts``, each born at position x at time t."""
    for f in fronts:
        f.born_x, f.born_t = x, t
    return fronts


def accurate_solve(left: PipeState, right: PipeState, g: GasConstants,
                   epsilon, scales: PipeScales):
    """Exact local Riemann solution as a list of fronts.

    Shocks and contacts become single fronts at their exact speeds; each
    rarefaction is sliced into jumps of scaled strength <= epsilon.
    """
    if left.model is Model.M1:
        sol = solve_riemann_m1(left, right, g)
    else:
        sol = solve_riemann_iso(left, right, g)
    fronts = _wave_fronts(sol.waves, g, epsilon, scales)
    prev = left
    for f in fronts:
        f.left = prev
        prev = f.right
    if fronts:
        # snap the tail across dropped zero-strength waves
        fronts[-1].right = right
    return fronts


def coupling_wave_pattern(role, data: PipeState, trace: PipeState, sigma, g):
    """Waves a coupling solve emits into one pipe, left to right.

    ``trace`` is the solve's own star state of the pipe, at curve
    parameter ``sigma``; the waves lead from it to the pipe ``data``.
    That is one outbound acoustic wave, which for an outgoing M1 pipe
    follows the contact from the trace to ``lax_m1(3, sigma, data)``, the
    only state evaluated here."""
    if role == ISO:
        return [_acoustic_wave(2, data, trace, sigma, g)]
    if role == M1_IN:
        return [_acoustic_wave(3, data, trace, sigma, g)]
    mid = lax_m1(3, sigma, data, g)
    contact = Front(2, CONTACT, mid.u, mid.rho - trace.rho, trace, mid)
    return [contact, _acoustic_wave(3, data, mid, sigma, g)]


def solve_coupling(specs, data, g, control=None, tol=DEFAULT_TOL):
    """(problem, solution, patterns) of the coupling at x = 0 for the pipe
    traces ``data``: a junction, or with a ``control`` a compressor from
    specs[0] into specs[1].  ``patterns[i]`` is (waves, trace): the waves
    pipe i receives, left to right, and its new trace, the solution's
    star state, for the role the problem gives it."""
    problem = JunctionProblem(list(zip(specs, data)), g, control)
    solve = solve_junction if control is None else solve_compressor
    sol = solve(problem, tol=tol)
    patterns = [(coupling_wave_pattern(p.role, st, trace, sigma, g), trace)
                for p, st, trace, sigma in zip(problem.pipes, data, sol.star_states, sol.sigma)]
    return problem, sol, patterns


class FrontTrackingState:
    """Owns the evolving piecewise-constant approximation of one run.

    ``ladder_of`` is a run of the same data at another epsilon: this run
    then takes its K_J, which does not depend on epsilon, instead of
    probing the coupling again, and keeps no segments (``segments`` stays
    empty), since only that run's weak-form residual reads them.
    """

    def __init__(self, specs, profiles, constants: GasConstants, epsilon,
                 control=None, max_events=DEFAULT_MAX_EVENTS, tol=DEFAULT_TOL,
                 ladder_of=None):
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.g = constants
        self.epsilon = epsilon
        self.rho_simpl = epsilon ** 3
        self.control = control
        self.tol = tol
        self.max_events = max_events
        self.time = 0.0
        self.events = 0
        self.np_absorbed = 0.0   # L1 change of the regions absorbed by apply_source
        self.interactions = []
        self.segments = []
        self.keep_segments = ladder_of is None
        self.specs = list(specs)

        pieces = [_normalize_profile(p) for p in profiles]
        traces0 = [p[0][1] for p in pieces]

        self.scales = []
        # per pipe, the strength scale of each front family, indexed by
        # family; a non-physical strength is a scaled state norm already,
        # so its entry is 1.0, and a front's scaled strength is
        # abs(strength) / family_scales[i][family] for every front
        self.family_scales = []
        lam_max = 0.0
        for piecelist in pieces:
            st0 = piecelist[0][1]
            c0 = sound_speed(st0, self.g)
            E_sc = st0.E if st0.model is Model.M1 else 1.0
            sc = PipeScales(curve_parameter(1, st0, self.g), st0.rho, st0.rho * c0, E_sc)
            self.scales.append(sc)
            self.family_scales.append(
                (1.0,) + tuple(sc.strength_scale(fam, st0.model) for fam in (1, 2, 3)))
            for _, st in piecelist:
                lam_max = max(lam_max, max(abs(v) for v in eigenvalues(st, self.g)))
        self.lambda_max = lam_max
        self.lambda_hat = 1.1 * lam_max

        self.pipes = [PipeTrack(trace) for trace in traces0]
        for i, piecelist in enumerate(pieces):
            fronts = []
            for (x, left), (_, right) in zip(piecelist, piecelist[1:]):
                fronts += _placed(accurate_solve(left, right, self.g, epsilon,
                                                 self.scales[i]), x, 0.0)
            self._splice(i, 0, 0, fronts)
        # resolve the coupling, then probe around the solved traces, where
        # the coupling residual is zero; K_J weights V, so it is fixed
        # before V(0) is taken; the pipe roles are those of that solve
        self.roles = [p.role for p in self._emit(traces0)[0].pipes]
        if ladder_of is None:
            self.K_J, self.kj_probes_skipped = self._estimate_kj(self.traces())
        else:
            self.K_J, self.kj_probes_skipped = ladder_of.K_J, ladder_of.kj_probes_skipped
        v0 = sum(self._pipe_glimm(i)[0] for i in range(len(self.pipes)))
        self.K_hat_J = 0.5 * min(self.K_J, 1.0) / v0 if v0 > 0.0 else 1.0

    # -- coupling ------------------------------------------------------------

    def _coupling_patterns(self, data):
        """Solve the coupling at the pipe traces ``data``; the coupling
        problem, and per pipe the emitted waves and the new trace.  A wave
        that would run into the junction raises SubsonicViolation."""
        problem, _, patterns = solve_coupling(self.specs, data, self.g, self.control,
                                              self.tol)
        for spec, scales, (waves, _) in zip(self.specs, self.scales, patterns):
            for w in waves:
                sc = scales.strength_scale(w.family, w.left.model)
                if w.kind != RAREFACTION and w.speed <= 0.0 \
                        and abs(w.strength) > _STRENGTH_FLOOR * sc:
                    raise SubsonicViolation(
                        f"emitted wave on pipe {spec.id!r} has speed {w.speed:g}")
        return problem, patterns

    def _emit(self, data, hit=None):
        """Solve the coupling at the pipe traces ``data``, set every trace
        to its solved state and splice the emitted fronts, born at the
        junction now, in front of each pipe's fronts, in place of the
        first front of pipe ``hit``; returns the coupling problem and the
        fronts' summed scaled strength."""
        problem, patterns = self._coupling_patterns(data)
        v_plus = 0.0
        for j, (waves, trace) in enumerate(patterns):
            self.pipes[j].trace = trace
            new = _placed(_wave_fronts(waves, self.g, self.epsilon, self.scales[j]),
                          0.0, self.time)
            self._splice(j, 0, 1 if j == hit else 0, new)
            fs = self.family_scales[j]
            v_plus += sum(abs(f.strength) / fs[f.family] for f in new)
        return problem, v_plus

    def _estimate_kj(self, traces0):
        """(K_J, skipped): probe the coupling solve with small incident
        waves; ``skipped`` counts the probes whose solve raised."""
        ratio = 1.0
        h = 1e-4
        skipped = 0
        for i in range(len(self.specs)):
            for fam in _APPROACHING[self.roles[i]]:
                sc = self.scales[i].strength_scale(fam, traces0[i].model)
                for sign in (1.0, -1.0):
                    try:
                        data_i = apply_wave(fam, sign * h * sc, traces0[i], self.g)
                        data = list(traces0)
                        data[i] = data_i
                        _, patterns = self._coupling_patterns(data)
                    except GasnetError:
                        skipped += 1
                        continue
                    v_plus = sum(self._scaled_strength(j, w)
                                 for j in range(len(self.specs)) for w in patterns[j][0])
                    ratio = max(ratio, v_plus / h)
                    # reflection route: the jump goes into one non-physical front
                    ratio = max(ratio, self.scales[i].state_norm(data_i, traces0[i]) / h)
        return 2.0 * ratio, skipped

    # -- strengths and functionals --------------------------------------------

    def _scaled_strength(self, pipe_index, front):
        return abs(front.strength) / self.family_scales[pipe_index][front.family]

    def _pipe_glimm(self, i):
        """(V, Q, TV, non-physical strength) of pipe i's fronts, in one pass
        from the rear (the junction) forward.

        Non-physical fronts take family index 4, the fastest family, and V
        weight 1; a physical front weighs 2 * K_J if its family runs toward
        the junction, else 1.  A rear front approaches one ahead when its
        family is strictly larger, or equal with at least one shock;
        same-family rarefaction or contact pairs never approach (their
        curves compose exactly).  Q sums, over the fronts, the strength
        times the strengths of the approaching fronts behind it, read off
        running sums per family (``behind``) and of its shocks
        (``behind_shock``).  TV sums the scaled state jumps.
        """
        towards = _APPROACHING[self.roles[i]]
        weight = [2.0 * self.K_J if fam in towards else 1.0 for fam in range(5)]
        scales, fs = self.scales[i], self.family_scales[i]
        behind = [0.0] * 5
        behind_shock = [0.0] * 5
        v = q = tv = 0.0
        for f in self.pipes[i].fronts:
            st = abs(f.strength) / fs[f.family]
            fam = 4 if f.family == NONPHYSICAL else f.family
            shock = f.kind == SHOCK
            v += weight[fam] * st
            tv += scales.state_norm(f.left, f.right)
            if fam != 4:
                q += st * (sum(behind[fam + 1:])
                           + (behind[fam] if shock else behind_shock[fam]))
            behind[fam] += st
            if shock:
                behind_shock[fam] += st
        return v, q, tv, behind[4]

    def glimm(self) -> GlimmDiagnostics:
        """Glimm functionals of the live fronts, one pass over each pipe."""
        v = q = tv = np_strength = 0.0
        for i in range(len(self.pipes)):
            pv, pq, ptv, pnp = self._pipe_glimm(i)
            v += pv
            q += pq
            tv += ptv
            np_strength += pnp
        n = sum(len(t.fronts) for t in self.pipes)
        return GlimmDiagnostics(v, q, v + self.K_hat_J * q, tv, n, np_strength)

    def traces(self):
        return [t.trace for t in self.pipes]

    def state_at(self, pipe_index, x):
        track = self.pipes[pipe_index]
        return track.states_at([x], [f.at(self.time) for f in track.fronts])[0]

    # -- event loop ------------------------------------------------------------

    def _next_event(self):
        """(time, kind, pipe, index) of the earliest future event, or None.

        Each pipe offers its junction arrival and its earliest stored pair
        time.  Ties go to the lower pipe, then to the junction, then to
        the lower index.
        """
        best = None
        for i, track in enumerate(self.pipes):
            fronts = track.fronts
            if not fronts:
                continue
            f = fronts[0]
            if f.speed < 0.0:
                t = max(f.born_t + f.born_x / -f.speed, self.time)
                if best is None or t < best[0]:
                    best = (t, "junction", i, 0)
            t = min(track.times)
            if t != math.inf and (best is None or t < best[0]):
                best = (t, "collision", i, track.times.index(t))
        return best

    def _pair_time(self, fronts, k):
        """Absolute time at which fronts k and k+1 meet, inf if never."""
        a, b = fronts[k], fronts[k + 1]
        rel = a.speed - b.speed
        if rel <= _SPEED_TIE * max(abs(a.speed), abs(b.speed)):
            return math.inf
        t = self.time
        gap = (b.born_x + b.speed * (t - b.born_t)) - (a.born_x + a.speed * (t - a.born_t))
        return t + max(gap / rel, 0.0)

    def _splice(self, i, k, n_old, new):
        """Replace fronts k..k+n_old-1 of pipe i by ``new``, rechain them
        and the front after them, and recompute the pair times touched."""
        track = self.pipes[i]
        fronts, times = track.fronts, track.times
        fronts[k:k + n_old] = new
        times[k:k + n_old] = [math.inf] * len(new)
        prev = fronts[k - 1].right if k else track.trace
        for f in fronts[k:k + len(new) + 1]:
            f.left = prev
            prev = f.right
        for j in range(max(k - 1, 0), min(k + len(new), len(fronts) - 1)):
            times[j] = self._pair_time(fronts, j)

    def _retire(self, pipe_index, front, t1):
        if self.keep_segments and t1 > front.born_t:
            self.segments.append(Segment(pipe_index, front.born_t, t1, front.born_x,
                                         front.speed, front.left, front.right))

    def advance(self, horizon):
        """Advance to the next event before ``horizon`` and resolve it.

        Returns the new time; when no event precedes the horizon the state
        is moved there instead.  A GasnetError raised for the event, the
        budget's included, carries a note naming epsilon, the event number
        and kind, the pipe and the time.
        """
        ev = self._next_event()
        if ev is None or ev[0] > horizon:
            self.time = max(self.time, horizon)
            return self.time
        self.time, kind, i, k = ev
        self.events += 1
        try:
            if self.events > self.max_events:
                live = sum(len(t.fronts) for t in self.pipes)
                raise EventBudgetExhausted(
                    f"event budget {self.max_events} exhausted at time {self.time:.6g} "
                    f"after {self.events} events with {live} live fronts",
                    time=self.time, events=self.events, live_fronts=live)
            if kind == "junction":
                rec_kind, pipe, v_minus, v_plus = self._handle_junction(i)
            else:
                rec_kind, pipe, v_minus, v_plus = self._handle_collision(i, k)
        except GasnetError as exc:
            self._add_context(exc, f"event {self.events} ({kind})", i)
            raise
        self.interactions.append(InteractionRecord(
            self.time, rec_kind, pipe, v_minus, v_plus))
        return self.time

    def run(self, horizon):
        while self.time < horizon:
            if self.advance(horizon) >= horizon:
                break
        return self

    # -- interaction handlers ----------------------------------------------

    def _handle_collision(self, i, k):
        track = self.pipes[i]
        a, b = track.fronts[k], track.fronts[k + 1]
        t = self.time
        x = 0.5 * ((a.born_x + a.speed * (t - a.born_t)) + (b.born_x + b.speed * (t - b.born_t)))
        fs = self.family_scales[i]
        va, vb = abs(a.strength) / fs[a.family], abs(b.strength) / fs[b.family]
        self._retire(i, a, self.time)
        self._retire(i, b, self.time)
        if a.family == NONPHYSICAL or va * vb < self.rho_simpl:
            new = self._simplified_interaction(i, a, b)
        else:
            new = accurate_solve(a.left, b.right, self.g, self.epsilon, self.scales[i])
        self._splice(i, k, 2, _placed(new, x, t))
        return "collision", i, va + vb, sum(abs(f.strength) / fs[f.family] for f in new)

    def _np_front(self, i, left, right):
        return Front(NONPHYSICAL, "nonphysical", self.lambda_hat,
                     self.scales[i].state_norm(left, right), left, right)

    def _simplified_interaction(self, i, a, b):
        """Reuse the incoming strengths; shed the defect into a non-physical
        front traveling at lambda_hat."""
        if a.family == NONPHYSICAL:
            waves = [(b.family, b.strength)]
        elif a.family == b.family:
            waves = [(a.family, a.strength + b.strength)]
        else:
            waves = sorted([(a.family, a.strength), (b.family, b.strength)])
        out = []
        left = a.left
        for family, strength in waves:
            right = apply_wave(family, strength, left, self.g)
            out.append(_front_from_jump(family, left, right, self.g))
            left = right
        np_f = self._np_front(i, left, b.right)
        return out + [np_f] if np_f.strength >= _STRENGTH_FLOOR else out

    def _handle_junction(self, i):
        track = self.pipes[i]
        front = track.fronts[0]
        self._retire(i, front, self.time)
        v_minus = self._scaled_strength(i, front)
        data_i = front.right
        if v_minus < self.rho_simpl or front.family == NONPHYSICAL:
            new = _placed([self._np_front(i, track.trace, data_i)], 0.0, self.time)
            self._splice(i, 0, 1, new)
            return "reflection", i, v_minus, new[0].strength
        data = self.traces()
        data[i] = data_i
        return "junction", i, v_minus, self._emit(data, hit=i)[1]

    # -- operator splitting ------------------------------------------------

    def apply_source(self, source, dt):
        """Add dt * ``source.momentum_rate`` to the momentum of every
        constant region, then re-resolve.

        Each pipe's fronts are walked right to left.  A front whose
        adjacent states are unchanged (rate 0 on both sides) is kept
        bit-for-bit.  A non-physical front, or a physical one of scaled
        strength below rho_simpl, whose adjacent states changed is
        absorbed: it is dropped, and the bounded region behind it takes
        the state ahead of it, so the far field never changes and a run of
        absorbed fronts collapses into the next jump.  Every other front
        is re-solved by the accurate step between its shifted left state
        and the state ahead of it.  ``np_absorbed`` grows by the scaled
        state change of each absorbed region times its width.  Finally
        the coupling is re-solved at the new traces.
        """
        changed_any = False
        for i in range(len(self.pipes)):
            try:
                if self._source_step(i, source, dt):
                    changed_any = True
            except GasnetError as exc:
                self._add_context(exc, "source step", i)
                raise
        if changed_any:
            # traces moved: re-establish the coupling conditions at x = 0
            try:
                self._emit(self.traces())
            except GasnetError as exc:
                self._add_context(exc, "coupling re-solve after the source step")
                raise

    def _source_step(self, i, source, dt):
        """The source step of ``apply_source`` on pipe i, without the
        coupling re-solve; returns whether any region of the pipe moved."""
        g = self.g
        track = self.pipes[i]
        regions = list(track.states())
        shifted = []
        for st in regions:
            rate = source.momentum_rate(st)
            if rate == 0.0:
                shifted.append(st)
                continue
            new = PipeState(st.model, st.rho, st.q + dt * rate, E=st.E, kappa=st.kappa)
            c = sound_speed(new, g)
            if not abs(new.u) < c:
                raise SubsonicViolation(
                    f"source pushed a state on pipe {self.specs[i].id!r} out of "
                    f"the subsonic region (u={new.u:g}, c={c:g})")
            shifted.append(new)
        if all(a is b for a, b in zip(regions, shifted)):
            return False
        fronts = track.fronts
        pos = [f.at(self.time) for f in fronts]
        ahead = shifted[-1]
        new_fronts = []     # right to left
        for k in range(len(fronts) - 1, -1, -1):
            f, behind = fronts[k], shifted[k]
            if behind is regions[k] and ahead is regions[k + 1]:
                new_fronts.append(f)
                ahead = behind
                continue
            self._retire(i, f, self.time)
            if f.family == NONPHYSICAL or self._scaled_strength(i, f) < self.rho_simpl:
                width = pos[k] - (pos[k - 1] if k else 0.0)
                self.np_absorbed += self.scales[i].state_norm(behind, ahead) * width
                continue
            solved = accurate_solve(behind, ahead, g, self.epsilon, self.scales[i])
            new_fronts += reversed(_placed(solved, pos[k], self.time))
            ahead = behind
        track.trace = ahead
        self._splice(i, 0, len(fronts), new_fronts[::-1])
        return True

    def _add_context(self, exc, what, pipe=None):
        """Note on ``exc`` where the run raised it: epsilon, ``what``, the
        pipe of index ``pipe`` if given, and the time."""
        where = "" if pipe is None else f" on pipe {self.specs[pipe].id!r}"
        exc.add_note(f"epsilon {self.epsilon:g}: {what}{where} at t = {self.time:.6g}")

    def finalize_segments(self):
        """Close the open trajectory pieces of all live fronts."""
        for i, track in enumerate(self.pipes):
            for f in track.fronts:
                self._retire(i, f, self.time)


def _normalize_profile(profile):
    """Normalize to a list of (x_right, state) pieces ending with (None, .)."""
    if isinstance(profile, PipeState):
        return [(None, profile)]
    pieces = list(profile)
    if not pieces or pieces[-1][0] is not None:
        raise ValueError("piecewise profile must end with an unbounded piece "
                         "(x_right=None)")
    xs = [x for x, _ in pieces[:-1]]
    if any(x <= 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("piece edges must be positive and strictly increasing")
    return pieces


def init_approximation(specs, profiles, constants: GasConstants, epsilon,
                       control=None, tol=DEFAULT_TOL, **options) -> FrontTrackingState:
    """Build the t=0 piecewise-constant approximation.

    ``profiles`` holds, per pipe, a constant PipeState or a list of
    (x_right, state) pieces whose last entry has x_right=None.  Interior
    jumps are resolved by the accurate solver and the coupling problem at
    x=0 by :func:`solve_coupling`; this and every later coupling solve of
    the run use the Newton tolerance ``tol``.  The other ``options``,
    ``max_events`` and ``ladder_of``, are those of :class:`FrontTrackingState`.
    """
    return FrontTrackingState(specs, profiles, constants, epsilon,
                              control=control, tol=tol, **options)


def operator_split_run(state: FrontTrackingState, source, horizon, dt_split):
    """Euler polygonal: homogeneous evolution over each dt_split, then the
    source step."""
    while state.time < horizon * (1.0 - 1e-15):
        dt = min(dt_split, horizon - state.time)
        state.run(state.time + dt)
        state.apply_source(source, dt)
    return state


def default_split_step(state: FrontTrackingState, grid_dx):
    """Splitting step keeping the source error subordinate to the tracking
    error: a quarter of the grid crossing time at the fastest speed."""
    return grid_dx / (4.0 * state.lambda_max)


def l1_distance(state_a: FrontTrackingState, state_b: FrontTrackingState, x_max):
    """Exact L1 distance between two piecewise-constant approximations,
    componentwise-scaled by state_a's per-pipe scales, over [0, x_max]."""
    total = 0.0
    for i, (ta, tb) in enumerate(zip(state_a.pipes, state_b.pipes)):
        sc = state_a.scales[i]
        pa = [f.at(state_a.time) for f in ta.fronts]
        pb = [f.at(state_b.time) for f in tb.fronts]
        edges = sorted({0.0, x_max} | {x for x in pa + pb if 0 < x < x_max})
        mids = [0.5 * (xl + xr) for xl, xr in zip(edges, edges[1:])]
        for xl, xr, sa, sb in zip(edges, edges[1:], ta.states_at(mids, pa),
                                  tb.states_at(mids, pb)):
            total += sc.state_norm(sa, sb) * (xr - xl)
    return total


def weak_form_residual(state: FrontTrackingState, test_functions, horizon):
    """Weak-solution defect of a completed run against test functions.

    The volume integral of the weak form telescopes into a sum over front
    trajectory segments of the time integral of phi times the jump defect
    speed*[U] - [F] (exact shocks and contacts contribute nothing).  The
    result is the maximum over test functions of the componentwise-scaled
    defect sum, divided by the horizon, i.e. a dimensionless time-averaged
    conservation error, as a Python float (exactly 0.0 when no segment
    carries a defect).  The test functions are ``Bump`` objects: a
    segment whose space-time bounding box lies outside a bump's open
    support, by a relative margin of 1e-9, contributes zero and is skipped.

    The defect of each segment is computed once, from the ``flux_vector``
    of its two states, each evaluated once per state object; the segments
    that carry a defect become float columns.  All bumps are then
    evaluated at once on the five Simpson nodes of all segments, one
    bumps x segments array per node, with exp taken by ``math.exp`` on
    the points inside a bump's support of the segments not skipped for
    it, and each bump's segment terms are summed sequentially in segment
    order.  Every operation and its order are those of the scalar rule
    (``Bump.__call__`` per node, one running sum per bump); a skipped
    segment adds an exact 0.0 to a non-negative sum, which leaves it
    unchanged, so the result is bit-identical to that rule.
    """
    import numpy as np

    g = state.g
    fluxes = {}   # id of a state -> its flux; adjacent segments share states
    cols = []
    for seg in state.segments:
        sc = state.scales[seg.pipe]
        fl = fluxes.get(id(seg.left))
        if fl is None:
            fl = fluxes[id(seg.left)] = flux_vector(seg.left, g)
        fr = fluxes.get(id(seg.right))
        if fr is None:
            fr = fluxes[id(seg.right)] = flux_vector(seg.right, g)
        du = (seg.right.rho - seg.left.rho, seg.right.q - seg.left.q)
        f_scales = (sc.q, sc.q * sc.q / sc.rho)
        defect = 0.0
        for c in range(2):
            defect += abs(seg.speed * du[c] - (fr[c] - fl[c])) / f_scales[c]
        if seg.left.model is Model.M1:
            dE = seg.speed * (seg.right.E - seg.left.E) - (fr[2] - fl[2])
            defect += abs(dE) / (sc.q * sc.E / sc.rho)
        if defect != 0.0:
            cols += (seg.t0, seg.t1, seg.x0, seg.speed, defect)
    bumps = [(*phi_f.support, phi_f.xc, phi_f.wx, phi_f.tc, phi_f.wt)
             for phi_f in test_functions]
    if not cols or not bumps:
        return 0.0
    t0, t1, x0, speed, defect = np.array(cols, dtype=float).reshape(-1, 5).T
    x1 = x0 + speed * (t1 - t0)
    x_lo, x_hi = np.minimum(x0, x1), np.maximum(x0, x1)
    # bump parameters as columns: every array below has one row per bump
    # and one column per segment
    xa, xb, ta, tb, xc, wx, tc, wt = np.array(bumps, dtype=float).T[:, :, None]
    mx = 1e-9 * (np.abs(xa) + np.abs(xb))
    mt = 1e-9 * (np.abs(ta) + np.abs(tb))
    near = (x_hi > xa - mx) & (x_lo < xb + mx) & (t1 > ta - mt) & (t0 < tb + mt)
    h = (t1 - t0) / 4
    acc = 0.0
    for j, w in enumerate((1, 4, 2, 4, 1)):
        t = t0 + j * h
        acc = acc + w * _bump_values(xc, wx, tc, wt, x0 + speed * (t - t0), t, near)
    totals = np.cumsum(defect * np.abs(acc * h / 3.0), axis=1)[:, -1]
    worst = 0.0
    for total in totals.tolist():
        worst = max(worst, total / max(horizon, 1e-300))
    return worst


class Bump:
    """Smooth bump on the open box (xc - wx, xc + wx) x (tc - wt, tc + wt),
    zero outside it; ``support`` is that box as (x_lo, x_hi, t_lo, t_hi)."""

    __slots__ = ("xc", "wx", "tc", "wt", "support")

    def __init__(self, xc, wx, tc, wt):
        self.xc, self.wx, self.tc, self.wt = xc, wx, tc, wt
        self.support = (xc - wx, xc + wx, tc - wt, tc + wt)

    def __call__(self, x, t):
        sx = (x - self.xc) / self.wx
        st = (t - self.tc) / self.wt
        if abs(sx) >= 1.0 or abs(st) >= 1.0:
            return 0.0
        return math.exp(2.0 - 1.0 / (1.0 - sx * sx) - 1.0 / (1.0 - st * st))


def _bump_values(xc, wx, tc, wt, x, t, keep):
    """``Bump(xc, wx, tc, wt)(x, t)`` on float arrays, broadcast, bit for
    bit (the same operations in the same order, exp by ``math.exp``);
    0.0 where the boolean array ``keep`` is false."""
    import numpy as np

    sx = (x - xc) / wx
    st = (t - tc) / wt
    inside = (np.abs(sx) < 1.0) & (np.abs(st) < 1.0) & keep
    sx, st = sx[inside], st[inside]
    arg = 2.0 - 1.0 / (1.0 - sx * sx) - 1.0 / (1.0 - st * st)
    out = np.zeros(inside.shape)
    out[inside] = np.fromiter(map(math.exp, arg.tolist()), float, arg.size)
    return out


_BUMPS = 10


def bump_test_functions(x_max, t_max):
    """Ten smooth compactly supported bumps covering [0, x_max] x (0, t_max)."""
    funcs = []
    for k in range(_BUMPS):
        xc = (k % 5) * x_max / 5.0
        wx = x_max / 3.0 + (k % 3) * x_max / 10.0
        tc = t_max * (0.25 + 0.5 * ((k * 7) % _BUMPS) / (_BUMPS - 1))
        wt = t_max / 4.0
        funcs.append(Bump(xc, wx, tc, wt))
    return funcs
