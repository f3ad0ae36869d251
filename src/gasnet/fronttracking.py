"""Wave-front tracking on a single coupled junction (or compressor).

The approximate solution is piecewise constant on each half-line pipe and
evolves by propagating finitely many fronts:

* the *accurate* step solves local Riemann problems exactly and slices
  rarefaction fans into jumps of scaled strength <= epsilon;
* the *simplified* step handles interactions whose scaled strength
  product falls below rho_simpl = epsilon**2 (and every interaction with
  a non-physical front) by reusing the incoming strengths and shedding
  the mismatch into a non-physical front at the fixed speed lambda_hat;
* fronts reaching x = 0 either trigger a full coupling re-solve, which
  emits waves on every pipe, or (strength below rho_simpl) are reflected
  into a single non-physical front so no other pipe is disturbed and the
  junction traces keep satisfying the coupling conditions.

Wave strength is measured as the jump of the curve parameter, divided by
a per-pipe scale fixed at t = 0 (pressure scale for full-Euler acoustic
families, density scale for contacts and isentropic families), so
strengths are dimensionless and comparable across models.  Non-physical
fronts carry the nondimensionalized norm of their state jump.  The
Glimm-type functionals V (weighted strength sum), Q (approaching-pair
potential) and Y = V + K_hat_J * Q are evaluated from these measures;
junction-bound families carry weight 2*K_J, junction-leaving ones 1.

K_J is estimated once per run by probing the coupling solve with small
incident waves on every pipe and approaching family; K_hat_J is then
chosen with K_hat_J * V(0) < min(K_J, 1), which makes Y non-increasing
at interactions for sufficiently weak data.

Cost per event.  Each pipe keeps the absolute meeting time of every
adjacent front pair, in ``times``, and its running (V, Q, TV) in a
``PipeGlimm``, both parallel to ``fronts``.  A collision, a junction
event or a reflection splices the fronts it replaces into each pipe it
touches, rechains them and recomputes only the pair times next to them;
(V, Q, TV) change by the terms of the window it changed (the new fronts,
and the front after them when rechaining gave it a new left), with Q's
pairs between the window and the fronts behind and ahead of it read off
per-class strength sums that numpy reduces.  An event then costs the
window's terms, two C-level reductions and a C-level minimum over each
touched pipe's pair times; no front moves: a front is the line
``born_x + speed * (t - born_t)`` and ``Front.at`` evaluates it.  A
running total is re-derived by one pass over its pipe once the
magnitudes moved through it exceed ``_DRIFT_LIMIT`` times its value, which
bounds its relative rounding error; ``apply_source``
rebuilds every pipe it rewrites.  Code that edits ``PipeTrack.fronts``
directly must call ``_rechain()`` and then ``_dirty_all()``, which
recomputes every pipe's pair times and (V, Q, TV) from its fronts.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .compressor import CompressorProblem, solve_compressor
from .errors import (
    EventBudgetExhausted,
    EventStarvation,
    GasnetError,
    NonPositiveDensity,
    SubsonicViolation,
)
from .junction import DEFAULT_TOL, JunctionProblem, solve_junction
from .laxcurves import ISO, M1_IN, M1_OUT, lax_iso, lax_m1, role_of
from .riemann import (
    CONTACT,
    RAREFACTION,
    SHOCK,
    Wave,
    solve_riemann_iso,
    solve_riemann_m1,
)
from .thermo import (
    GasConstants,
    Model,
    PipeState,
    eigenvalues,
    pressure,
    sound_speed,
)

NONPHYSICAL = 0
_STRENGTH_FLOOR = 1e-11   # scaled strength below which fronts are dropped
_SPEED_TIE = 1e-12        # relative speed gap treated as parallel
DEFAULT_MAX_EVENTS = 500_000

_APPROACHING = {M1_OUT: (1,), M1_IN: (1, 2), ISO: (1,)}


class Front:
    """A moving discontinuity inside one pipe."""

    __slots__ = ("family", "kind", "speed", "strength",
                 "left", "right", "born_t", "born_x")

    def __init__(self, family, kind, born_x, speed, strength, left, right):
        self.family = family
        self.kind = kind
        self.speed = speed
        self.strength = strength
        self.left = left
        self.right = right
        self.born_t = 0.0
        self.born_x = born_x

    def at(self, t):
        """Position at time t."""
        return self.born_x + self.speed * (t - self.born_t)

    def __repr__(self):
        return (f"Front(fam={self.family}, {self.kind}, x0={self.born_x:.6g}, "
                f"t0={self.born_t:.6g}, s={self.speed:.6g}, v={self.strength:.6g})")


@dataclass
class PipeScales:
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

    def __init__(self, spec, trace, scales):
        self.spec = spec
        self.trace = trace
        self.fronts = []
        self.scales = scales
        self.times = []      # times[k]: absolute meeting time of fronts k, k+1
        self.glimm = None    # PipeGlimm: running (V, Q, TV) of this pipe

    def states(self):
        yield self.trace
        for f in self.fronts:
            yield f.right

    def state_at(self, x, t):
        state = self.trace
        for f in self.fronts:
            if x < f.at(t):
                return state
            state = f.right
        return state

    def states_at(self, xs, pos):
        """``state_at(x, t)`` for each ascending x in xs, in one pass, given
        the fronts' positions ``pos`` at t."""
        out = []
        k = 0
        for x in xs:
            while k < len(pos) and not x < pos[k]:
                k += 1
            out.append(self.fronts[k - 1].right if k else self.trace)
        return out


def _window_glimm(terms, weight):
    """(V, Q, TV, behind, behind_shock) of a run of fronts, rear first.

    ``terms`` holds (scaled strength, family index, shock, state-jump
    norm) per front, family index 4 for non-physical fronts; ``weight``
    the V weight per family index.  A rear front approaches one ahead
    when its family is strictly larger, or equal with at least one
    shock; same-family rarefaction or contact pairs never approach (their
    curves compose exactly).  Non-physical fronts count as the fastest
    family.  Q sums, over the fronts, the strength times the strengths of
    the approaching fronts behind it, read off running sums per family
    (``behind``) and of its shocks (``behind_shock``); these class sums
    of the whole run are returned with the totals.
    """
    behind = [0.0] * 5
    behind_shock = [0.0] * 5
    v = q = tv = 0.0
    for st, fam, shock, norm in terms:
        v += weight[fam] * st
        tv += norm
        if fam != 4:
            q += st * (sum(behind[fam + 1:])
                       + (behind[fam] if shock else behind_shock[fam]))
        behind[fam] += st
        if shock:
            behind_shock[fam] += st
    return v, q, tv, behind, behind_shock


def _cross_q(rear, rear_shock, ahead, ahead_shock):
    """Q of the approaching pairs between two runs of fronts, one behind
    the other: ``_window_glimm``'s rule applied class by class to the
    per-family sums of the run behind (all fronts, shocks) and of the run
    ahead (non-shocks, shocks)."""
    r34 = rear[3] + rear[4]
    return ((ahead[1] + ahead_shock[1]) * (rear[2] + r34)
            + ahead_shock[1] * rear[1] + ahead[1] * rear_shock[1]
            + (ahead[2] + ahead_shock[2]) * r34
            + ahead_shock[2] * rear[2] + ahead[2] * rear_shock[2]
            + (ahead[3] + ahead_shock[3]) * rear[4]
            + ahead_shock[3] * rear[3] + ahead[3] * rear_shock[3])


def _class_ids(terms):
    """Class index per front: family index, plus 5 for shocks."""
    return [fam + 5 * shock for _, fam, shock, _ in terms]


def _class_sums(ids, st):
    """Strength sums per class index of a slice of the class arrays:
    non-shocks of each family index at [0:5], shocks at [5:10]."""
    return np.bincount(ids, st, 10).tolist() if len(ids) else [0.0] * 10


# A running total is re-derived by one exact pass once the magnitudes
# that went through it since its last exact pass (removed and added
# window terms, and its own value after each splice) exceed this multiple
# of its value.  Rounding error is a small multiple of 2**-53 times those
# magnitudes, so this bounds it relative to the value, also when a splice
# removes nearly all of it (a front of strength 1 replaced by one of
# 1e-12 would leave V off by 2e-5 relative), and a total whose terms all
# left is exactly 0.0 again.  As each splice adds the value itself, a
# pass comes at most every 64 splices of a pipe of n fronts: n/64 terms
# per splice, amortized.
_DRIFT_LIMIT = 64.0


class PipeGlimm:
    """Running (V, Q, TV) of one pipe, updated by splice deltas.

    ``terms`` is parallel to the pipe's fronts (see ``_window_glimm``); the
    first ``len(terms)`` entries of ``ids`` and ``st`` hold each front's
    class index and scaled strength, so the class sums of the fronts
    behind and ahead of a splice are C-level reductions.  Construction is one exact pass over
    ``terms``.
    """

    __slots__ = ("weight", "terms", "ids", "st", "v", "q", "tv", "churn")

    def __init__(self, weight, terms):
        self.weight = weight
        self.terms = terms
        self._exact()

    def _exact(self):
        self.v, self.q, self.tv, _, _ = _window_glimm(self.terms, self.weight)
        n = len(self.terms)
        # spare room, so most splices shift the tail in place
        self.ids = np.zeros(max(64, 2 * n), dtype=np.intp)
        self.st = np.zeros(max(64, 2 * n))
        self.ids[:n] = _class_ids(self.terms)
        self.st[:n] = [t[0] for t in self.terms]
        self.churn = [0.0, 0.0, 0.0]

    def splice(self, k, n_old, new):
        """Replace the terms of fronts k..k+n_old-1 by ``new``.

        The change of V and TV is that of the window's own terms; the
        change of Q adds, for the old and the new window, its inner pairs
        and its pairs with the fronts behind and ahead of it.
        """
        end, n = k + n_old, len(self.terms)
        ids, st = self.ids, self.st
        r = _class_sums(ids[:k], st[:k])
        rear, rear_shock = [r[fam] + r[fam + 5] for fam in range(5)], r[5:]
        a = _class_sums(ids[end:n], st[end:n])
        ahead, ahead_shock = a[:5], a[5:]
        v0, q0, tv0, w0, w0_shock = _window_glimm(self.terms[k:end], self.weight)
        v1, q1, tv1, w1, w1_shock = _window_glimm(new, self.weight)
        q0 += (_cross_q(rear, rear_shock, [x - y for x, y in zip(w0, w0_shock)], w0_shock)
               + _cross_q(w0, w0_shock, ahead, ahead_shock))
        q1 += (_cross_q(rear, rear_shock, [x - y for x, y in zip(w1, w1_shock)], w1_shock)
               + _cross_q(w1, w1_shock, ahead, ahead_shock))
        self.v += v1 - v0
        self.q += q1 - q0
        self.tv += tv1 - tv0
        self.terms[k:end] = new
        m = len(new)
        size = n + m - n_old
        if size > len(ids):
            self.ids = ids = np.concatenate((ids, np.zeros(2 * size - len(ids), dtype=np.intp)))
            self.st = st = np.concatenate((st, np.zeros(2 * size - len(st))))
        if m != n_old:
            ids[k + m:size] = ids[end:n]
            st[k + m:size] = st[end:n]
        ids[k:k + m] = _class_ids(new)
        st[k:k + m] = [t[0] for t in new]
        churn = self.churn
        churn[0] += v0 + v1 + abs(self.v)
        churn[1] += q0 + q1 + abs(self.q)
        churn[2] += tv0 + tv1 + abs(self.tv)
        if (churn[0] > _DRIFT_LIMIT * self.v or churn[1] > _DRIFT_LIMIT * self.q
                or churn[2] > _DRIFT_LIMIT * self.tv):
            self._exact()


@dataclass(frozen=True)
class GlimmDiagnostics:
    """Glimm-type functionals of the current front configuration."""

    V: float
    Q: float
    Y: float
    TV: float
    front_count: int
    K_J: float
    K_hat_J: float


@dataclass(frozen=True)
class InteractionRecord:
    time: float
    kind: str  # "collision" | "junction" | "reflection"
    pipe: int
    v_minus: float
    v_plus: float
    V_before: float
    V_after: float
    Y_before: float
    Y_after: float


@dataclass(frozen=True)
class Segment:
    """Closed trajectory piece of one front, for weak-form diagnostics."""

    pipe: int
    t0: float
    t1: float
    x0: float
    speed: float
    left: PipeState
    right: PipeState


class ZeroSource:
    """G = 0."""

    def evaluate(self, t, state, g):
        return (0.0, 0.0, 0.0) if state.model is Model.M1 else (0.0, 0.0)


class FrictionSource:
    """Pipe friction acting on the momentum balance.

    Rate (0, -lambda_f * q|q| / (2 * D * rho) [, 0]); the energy component
    of the full Euler model is left untouched.
    """

    def __init__(self, lambda_f, diameter):
        if not (lambda_f >= 0.0 and diameter > 0.0):
            raise ValueError("friction needs lambda_f >= 0 and diameter > 0")
        self.lambda_f = lambda_f
        self.diameter = diameter

    def evaluate(self, t, state, g):
        dq = -self.lambda_f * state.q * abs(state.q) / (2.0 * self.diameter * state.rho)
        if state.model is Model.M1:
            return (0.0, dq, 0.0)
        return (0.0, dq)


def flux_vector(state: PipeState, g: GasConstants):
    p = pressure(state, g)
    if state.model is Model.M1:
        return (state.q, state.q * state.u + p, state.u * (state.E + p))
    if state.model is Model.M2:
        return (state.q, state.q * state.u + p)
    return (state.q, p)


def _char_speed(family, state, g):
    lam = eigenvalues(state, g)
    if state.model is Model.M1:
        return lam[family - 1]
    return lam[0] if family == 1 else lam[1]


def _param(family, state, g):
    """Curve parameter carried by a state for the given wave family."""
    if state.model is Model.M1 and family != 2:
        return pressure(state, g)
    return state.rho


def _front_from_jump(family, left, right, g):
    """Physical front for a family-k jump with its exact speed."""
    if left.model is Model.M1 and family == 2:
        return Front(2, CONTACT, 0.0, left.u, right.rho - left.rho, left, right)
    pl = _param(family, left, g)
    pr = _param(family, right, g)
    strength = pr - pl if family == 1 else pl - pr
    if strength > 0.0:
        speed = (right.q - left.q) / (right.rho - left.rho)
        kind = SHOCK
    else:
        speed = _char_speed(family, right, g)
        kind = RAREFACTION
    return Front(family, kind, 0.0, speed, strength, left, right)


def apply_wave(family, strength, left: PipeState, g: GasConstants) -> PipeState:
    """State to the right of a family-k wave of signed strength on ``left``.

    Positive strength is the compressive (shock) side for every family.
    """
    model = left.model
    gamma = g.gamma
    if model is Model.M1:
        if family == 1:
            return lax_m1(1, pressure(left, g) + strength, left, g)
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
        u_x = left.u - kernels.psi(p_w, p_x, rho_x, gamma)
        E_x = p_x / (gamma - 1.0) + 0.5 * rho_x * u_x * u_x
        return PipeState(Model.M1, rho_x, rho_x * u_x, E=E_x)
    if family == 1:
        return lax_iso(model, 1, left.rho + strength, left, g)
    rho_x = left.rho - strength
    if rho_x <= 0.0:
        raise NonPositiveDensity(f"wave of strength {strength} from rho={left.rho}")
    if model is Model.M2:
        inc = kernels.theta2(left.rho, rho_x, left.kappa, gamma)
        u_x = (left.q - inc) / left.rho
        return PipeState(Model.M2, rho_x, rho_x * u_x, kappa=left.kappa)
    inc = kernels.theta3(left.rho, rho_x, left.kappa, gamma)
    return PipeState(Model.M3, rho_x, left.q - inc, kappa=left.kappa)


def _slice_fan(wave: Wave, g, eps_param):
    """Split a rarefaction into jumps of parameter width <= eps_param.

    Slice states lie on the exact wave curve; every slice travels at the
    characteristic speed of its right state, which orders the fan.
    """
    width = abs(wave.strength)
    m = max(1, math.ceil(width / eps_param - 1e-12))
    model = wave.left.model
    if model is Model.M1 and wave.family == 1:
        data, data_left = wave.left, True
        curve = lambda p: lax_m1(1, p, data, g)
    elif model is Model.M1:
        data, data_left = wave.right, False
        curve = lambda p: lax_m1(3, p, data, g)
    elif wave.family == 1:
        data, data_left = wave.left, True
        curve = lambda p: lax_iso(model, 1, p, data, g)
    else:
        data, data_left = wave.right, False
        curve = lambda p: lax_iso(model, 2, p, data, g)
    p0 = _param(wave.family, wave.left, g)
    p1 = _param(wave.family, wave.right, g)
    fronts = []
    prev = wave.left
    for k in range(1, m + 1):
        state = curve(p0 + (p1 - p0) * k / m) if k < m else wave.right
        if data_left:
            strength = _param(wave.family, state, g) - _param(wave.family, prev, g)
        else:
            strength = _param(wave.family, prev, g) - _param(wave.family, state, g)
        speed = _char_speed(wave.family, state, g)
        fronts.append(Front(wave.family, RAREFACTION, 0.0, speed, strength, prev, state))
        prev = state
    return fronts


def wave_to_fronts(wave: Wave, g, eps_param):
    if wave.kind == RAREFACTION:
        return _slice_fan(wave, g, eps_param)
    return [Front(wave.family, wave.kind, 0.0, wave.speeds[0], wave.strength,
                  wave.left, wave.right)]


def accurate_solve(left: PipeState, right: PipeState, g: GasConstants,
                   epsilon, scales: PipeScales = None):
    """Exact local Riemann solution as a list of fronts.

    Shocks and contacts become single fronts at their exact speeds; each
    rarefaction is sliced into jumps of scaled strength <= epsilon.
    """
    if scales is None:
        scales = PipeScales(1.0, 1.0, 1.0, 1.0)
    if left.model is Model.M1:
        sol = solve_riemann_m1(left, right, g)
    else:
        sol = solve_riemann_iso(left, right, left.model, g)
    fronts = []
    for wave in sol.waves:
        sc = scales.strength_scale(wave.family, left.model)
        if abs(wave.strength) < _STRENGTH_FLOOR * sc:
            continue
        fronts.extend(wave_to_fronts(wave, g, epsilon * sc))
    prev = left
    for f in fronts:
        f.left = prev
        prev = f.right
    if fronts:
        # snap the tail across dropped zero-strength waves
        last = fronts[-1]
        fronts[-1] = Front(last.family, last.kind, last.born_x, last.speed,
                           last.strength, last.left, right)
    return fronts


def solve_coupling(specs, data, g, control=None, tol=DEFAULT_TOL):
    """(problem, solution) of the coupling at x = 0 for the pipe traces
    ``data``: a junction, or with a ``control`` a compressor from
    specs[0] into specs[1]."""
    if control is None:
        problem = JunctionProblem(list(zip(specs, data)), g)
        return problem, solve_junction(problem, tol=tol)
    problem = CompressorProblem((specs[0], data[0]), (specs[1], data[1]), control, g)
    return problem, solve_compressor(problem, tol=tol)


def coupling_wave_pattern(role, data: PipeState, sigma, tau, g):
    """Waves emitted into one pipe by a coupling solve, left to right,
    together with the new trace state."""
    from .riemann import _acoustic_wave_iso, _acoustic_wave_m1

    if role == ISO:
        star = lax_iso(data.model, 2, sigma, data, g)
        return [_acoustic_wave_iso(2, data, star, g)], star
    mid = lax_m1(3, sigma, data, g)
    wave3 = _acoustic_wave_m1(3, data, mid, sigma, g)
    if role == M1_IN:
        return [wave3], mid
    trace = lax_m1(2, tau, mid, g)
    contact = Wave(2, CONTACT, trace, mid, (mid.u,), tau)
    return [contact, wave3], trace


class FrontTrackingState:
    """Owns the evolving piecewise-constant approximation of one run."""

    def __init__(self, specs, profiles, constants: GasConstants, epsilon,
                 control=None, max_events=DEFAULT_MAX_EVENTS, tol=DEFAULT_TOL):
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.g = constants
        self.epsilon = epsilon
        self.rho_simpl = epsilon * epsilon
        self.control = control
        self.tol = tol
        self.max_events = max_events
        self.time = 0.0
        self.events = 0
        self.interactions = []
        self.segments = []
        self.specs = list(specs)

        pieces = [_normalize_profile(p) for p in profiles]
        traces0 = [p[0][1] for p in pieces]

        self.scales = []
        self.roles = []
        lam_max = 0.0
        for spec, piecelist in zip(self.specs, pieces):
            st0 = piecelist[0][1]
            c0 = sound_speed(st0, self.g)
            param = pressure(st0, self.g) if st0.model is Model.M1 else st0.rho
            E_sc = st0.E if st0.model is Model.M1 else 1.0
            self.scales.append(PipeScales(param, st0.rho, st0.rho * c0, E_sc))
            self.roles.append(role_of(st0.model, st0.u > 0.0))
            for _, st in piecelist:
                lam_max = max(lam_max, max(abs(v) for v in eigenvalues(st, self.g)))
        self.lambda_max = lam_max
        self.lambda_hat = 1.1 * lam_max

        # resolve the coupling and the interior jumps of the initial data
        patterns = self._coupling_patterns(traces0)
        self.pipes = []
        for i, spec in enumerate(self.specs):
            track = PipeTrack(spec, patterns[i][1], self.scales[i])
            track.fronts = self._pattern_fronts(i, patterns[i][0])
            self.pipes.append(track)
        for i, piecelist in enumerate(pieces):
            track = self.pipes[i]
            for k in range(1, len(piecelist)):
                x = piecelist[k - 1][0]
                for f in accurate_solve(piecelist[k - 1][1], piecelist[k][1],
                                        self.g, epsilon, self.scales[i]):
                    f.born_x = x
                    track.fronts.append(f)
            track.fronts.sort(key=lambda f: (f.born_x, f.speed))
        self._rechain()

        # probe around the solved traces, where the coupling residual is
        # zero; K_J weights V, so it is fixed before the Glimm totals are built
        self.K_J = self._estimate_kj([t.trace for t in self.pipes])
        self._dirty_all()
        v0 = sum(track.glimm.v for track in self.pipes)
        self.K_hat_J = 0.5 * min(self.K_J, 1.0) / v0 if v0 > 0.0 else 1.0

    # -- coupling ------------------------------------------------------------

    def _coupling_patterns(self, data):
        """Solve the coupling at the pipe traces ``data``; per pipe, the
        emitted waves and the new trace."""
        _, sol = solve_coupling(self.specs, data, self.g, self.control, self.tol)
        patterns = []
        for i, spec in enumerate(self.specs):
            tau = sol.tau[i] if sol.tau[i] is not None else 0.0
            waves, trace = coupling_wave_pattern(self.roles[i], data[i],
                                                 sol.sigma[i], tau, self.g)
            for w in waves:
                sc = self.scales[i].strength_scale(w.family, data[i].model)
                if w.kind != RAREFACTION and w.rightmost_speed <= 0.0 \
                        and abs(w.strength) > _STRENGTH_FLOOR * sc:
                    raise SubsonicViolation(
                        f"emitted wave on pipe {spec.id!r} has speed "
                        f"{w.rightmost_speed:g}")
            patterns.append((waves, trace))
        return patterns

    def _pattern_fronts(self, i, waves):
        fronts = []
        for w in waves:
            sc = self.scales[i].strength_scale(w.family, w.left.model)
            if abs(w.strength) < _STRENGTH_FLOOR * sc:
                continue
            fronts.extend(wave_to_fronts(w, self.g, self.epsilon * sc))
        for f in fronts:
            f.born_t = self.time
        return fronts

    def _estimate_kj(self, traces0):
        """Probe the coupling solve with small incident waves."""
        ratio = 1.0
        h = 1e-4
        for i in range(len(self.specs)):
            for fam in _APPROACHING[self.roles[i]]:
                sc = self.scales[i].strength_scale(fam, traces0[i].model)
                for sign in (1.0, -1.0):
                    try:
                        data_i = apply_wave(fam, sign * h * sc, traces0[i], self.g)
                        data = list(traces0)
                        data[i] = data_i
                        patterns = self._coupling_patterns(data)
                    except GasnetError:
                        continue
                    v_plus = sum(
                        abs(w.strength) / self.scales[j].strength_scale(w.family, w.left.model)
                        for j in range(len(self.specs)) for w in patterns[j][0])
                    ratio = max(ratio, v_plus / h)
                    # reflection route: the jump goes into one non-physical front
                    ratio = max(ratio, self.scales[i].state_norm(data_i, traces0[i]) / h)
        return 2.0 * ratio

    # -- strengths and functionals --------------------------------------------

    def _scaled_strength(self, pipe_index, front):
        if front.family == NONPHYSICAL:
            return front.strength
        sc = self.scales[pipe_index].strength_scale(front.family, front.left.model)
        return abs(front.strength) / sc

    def _weight(self, pipe_index, front):
        if front.family == NONPHYSICAL:
            return 1.0
        towards = _APPROACHING[self.roles[pipe_index]]
        return 2.0 * self.K_J if front.family in towards else 1.0

    def _front_terms(self, i, f):
        """(scaled strength, family index, shock, state-jump norm) of a
        front on pipe i; non-physical fronts get family index 4."""
        return (self._scaled_strength(i, f), 4 if f.family == NONPHYSICAL else f.family,
                f.kind == SHOCK, self.scales[i].state_norm(f.left, f.right))

    def _rebuild_glimm(self, i):
        """Derive pipe i's (V, Q, TV) from all of its fronts in one pass."""
        towards = _APPROACHING[self.roles[i]]
        weight = [2.0 * self.K_J if fam in towards else 1.0 for fam in range(5)]
        track = self.pipes[i]
        track.glimm = PipeGlimm(weight, [self._front_terms(i, f) for f in track.fronts])

    def _dirty_all(self):
        """Rebuild every pipe's pair times and Glimm totals from its fronts."""
        for i in range(len(self.pipes)):
            self._reschedule(i)
            self._rebuild_glimm(i)

    def total_variation(self):
        return sum(track.glimm.tv for track in self.pipes)

    def glimm(self) -> GlimmDiagnostics:
        v = q = tv = 0.0
        for track in self.pipes:
            pg = track.glimm
            v += pg.v
            q += pg.q
            tv += pg.tv
        n = sum(len(t.fronts) for t in self.pipes)
        return GlimmDiagnostics(v, q, v + self.K_hat_J * q, tv, n,
                                self.K_J, self.K_hat_J)

    def _v_y(self):
        """(V, Y) of ``glimm()``, read off the running totals."""
        v = q = 0.0
        for track in self.pipes:
            v += track.glimm.v
            q += track.glimm.q
        return v, v + self.K_hat_J * q

    def traces(self):
        return [t.trace for t in self.pipes]

    def state_at(self, pipe_index, x):
        return self.pipes[pipe_index].state_at(x, self.time)

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
        return self.time + max((b.at(self.time) - a.at(self.time)) / rel, 0.0)

    def _reschedule(self, i):
        """Recompute every pair time of pipe i."""
        track = self.pipes[i]
        fronts = track.fronts
        track.times = [self._pair_time(fronts, k) for k in range(len(fronts) - 1)]
        if fronts:
            track.times.append(math.inf)

    def _splice(self, i, k, n_old, new):
        """Replace fronts k..k+n_old-1 of pipe i by ``new``, rechain them
        and the front after them, recompute the pair times touched, and
        update the pipe's (V, Q, TV) over the window of changed fronts:
        ``new``, and the front after it when rechaining changed its left."""
        track = self.pipes[i]
        fronts, times = track.fronts, track.times
        end = k + n_old
        after_left = fronts[end].left if end < len(fronts) else None
        fronts[k:end] = new
        times[k:end] = [math.inf] * len(new)
        prev = fronts[k - 1].right if k else track.trace
        for f in fronts[k:k + len(new) + 1]:
            f.left = prev
            prev = f.right
        for j in range(max(k - 1, 0), min(k + len(new), len(fronts) - 1)):
            times[j] = self._pair_time(fronts, j)
        end = k + len(new)
        tail = int(end < len(fronts) and fronts[end].left is not after_left)
        track.glimm.splice(k, n_old + tail,
                           [self._front_terms(i, f) for f in fronts[k:end + tail]])

    def _retire(self, pipe_index, front, t1):
        if t1 > front.born_t:
            self.segments.append(Segment(pipe_index, front.born_t, t1, front.born_x,
                                         front.speed, front.left, front.right))

    def advance(self, horizon=None):
        """Advance to the next event and resolve it.

        Returns the new time; when no event precedes the horizon the state
        is moved there instead.  Raises EventStarvation when no event
        exists and no horizon was given.
        """
        ev = self._next_event()
        if ev is None and horizon is None:
            raise EventStarvation("no pending event and no horizon")
        if ev is None or (horizon is not None and ev[0] > horizon):
            self.time = max(self.time, horizon)
            return self.time
        self.time, kind, i, k = ev
        self.events += 1
        if self.events > self.max_events:
            live = sum(len(t.fronts) for t in self.pipes)
            raise EventBudgetExhausted(
                f"event budget {self.max_events} exhausted at time {self.time:.6g} "
                f"after {self.events} events with {live} live fronts",
                time=self.time, events=self.events, live_fronts=live)
        v_before, y_before = self._v_y()
        if kind == "junction":
            rec_kind, pipe, v_minus, v_plus = self._handle_junction(i)
        else:
            rec_kind, pipe, v_minus, v_plus = self._handle_collision(i, k)
        v_after, y_after = self._v_y()
        self.interactions.append(InteractionRecord(
            self.time, rec_kind, pipe, v_minus, v_plus,
            v_before, v_after, y_before, y_after))
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
        x = 0.5 * (a.at(self.time) + b.at(self.time))
        terms = track.glimm.terms   # spliced in place below
        va, vb = terms[k][0], terms[k + 1][0]
        self._retire(i, a, self.time)
        self._retire(i, b, self.time)
        if (a.family == b.family and a.family != NONPHYSICAL
                and a.kind != SHOCK and b.kind != SHOCK):
            # same-family rarefaction (or contact) jumps compose exactly:
            # merge on the curve and re-slice, no defect is produced
            merged = Wave(a.family, a.kind, a.left, b.right, (a.speed,),
                          a.strength + b.strength)
            sc = self.scales[i].strength_scale(a.family, a.left.model)
            new = wave_to_fronts(merged, self.g, self.epsilon * sc)
        elif a.family == NONPHYSICAL or va * vb < self.rho_simpl:
            new = self._simplified_interaction(i, a, b)
        else:
            new = accurate_solve(a.left, b.right, self.g, self.epsilon, self.scales[i])
        for f in new:
            f.born_x = x
            f.born_t = self.time
        self._splice(i, k, 2, new)
        v_plus = sum(t[0] for t in terms[k:k + len(new)])
        return "collision", i, va + vb, v_plus

    def _np_front(self, i, left, right):
        strength = self.scales[i].state_norm(left, right)
        return Front(NONPHYSICAL, "nonphysical", 0.0, self.lambda_hat,
                     strength, left, right)

    def _simplified_interaction(self, i, a, b):
        """Reuse the incoming strengths; shed the defect into a non-physical
        front traveling at lambda_hat."""
        g = self.g
        out = []
        if a.family == NONPHYSICAL:
            mid = apply_wave(b.family, b.strength, a.left, g)
            out.append(_front_from_jump(b.family, a.left, mid, g))
            out.append(self._np_front(i, mid, b.right))
        elif a.family == b.family:
            mid = apply_wave(a.family, a.strength + b.strength, a.left, g)
            out.append(_front_from_jump(a.family, a.left, mid, g))
            out.append(self._np_front(i, mid, b.right))
        else:
            lo, hi = (a, b) if a.family < b.family else (b, a)
            mid1 = apply_wave(lo.family, lo.strength, a.left, g)
            mid2 = apply_wave(hi.family, hi.strength, mid1, g)
            out.append(_front_from_jump(lo.family, a.left, mid1, g))
            out.append(_front_from_jump(hi.family, mid1, mid2, g))
            out.append(self._np_front(i, mid2, b.right))
        return [f for f in out
                if self._scaled_strength(i, f) >= _STRENGTH_FLOOR
                or f.family != NONPHYSICAL]

    def _handle_junction(self, i):
        track = self.pipes[i]
        front = track.fronts[0]
        self._retire(i, front, self.time)
        v_minus = self._scaled_strength(i, front)
        data_i = front.right
        if v_minus < self.rho_simpl or front.family == NONPHYSICAL:
            np_f = self._np_front(i, track.trace, data_i)
            np_f.born_t = self.time
            self._splice(i, 0, 1, [np_f])
            return "reflection", i, v_minus, np_f.strength
        data = [t.trace for t in self.pipes]
        data[i] = data_i
        patterns = self._coupling_patterns(data)
        v_plus = 0.0
        for j, track_j in enumerate(self.pipes):
            track_j.trace = patterns[j][1]
            new = self._pattern_fronts(j, patterns[j][0])
            self._splice(j, 0, 1 if j == i else 0, new)
            v_plus += sum(self._scaled_strength(j, f) for f in new)
        return "junction", i, v_minus, v_plus

    def _rechain_pipe(self, i):
        track = self.pipes[i]
        prev = track.trace
        for f in track.fronts:
            f.left = prev
            prev = f.right

    def _rechain(self):
        for i in range(len(self.pipes)):
            self._rechain_pipe(i)

    # -- operator splitting ------------------------------------------------

    def apply_source(self, source, t0, dt):
        """Add dt * G(t0, .) to every constant region, then re-resolve.

        Physical front jumps whose adjacent states changed are re-solved
        with the accurate solver; untouched fronts (G = 0 on both sides)
        are kept bit-for-bit.  Non-physical fronts persist with updated
        states.  Finally the coupling is re-solved at the new traces.
        """
        g = self.g
        changed_any = False
        for i, track in enumerate(self.pipes):
            regions = list(track.states())
            shifted = []
            for st in regions:
                rates = source.evaluate(t0, st, g)
                if all(r == 0.0 for r in rates):
                    shifted.append(st)
                    continue
                if st.model is Model.M1:
                    new = PipeState(st.model, st.rho + dt * rates[0],
                                    st.q + dt * rates[1], E=st.E + dt * rates[2])
                else:
                    new = PipeState(st.model, st.rho + dt * rates[0],
                                    st.q + dt * rates[1], kappa=st.kappa)
                c = sound_speed(new, g)
                if not abs(new.u) < c:
                    raise SubsonicViolation(
                        f"source pushed a state on pipe {track.spec.id!r} out of "
                        f"the subsonic region (u={new.u:g}, c={c:g})")
                shifted.append(new)
            if all(a is b for a, b in zip(regions, shifted)):
                continue
            changed_any = True
            new_fronts = []
            for k, f in enumerate(track.fronts):
                l_new, r_new = shifted[k], shifted[k + 1]
                if l_new is regions[k] and r_new is regions[k + 1]:
                    new_fronts.append(f)
                    continue
                self._retire(i, f, self.time)
                x = f.at(self.time)
                if f.family == NONPHYSICAL:
                    solved = [self._np_front(i, l_new, r_new)]
                else:
                    solved = accurate_solve(l_new, r_new, g, self.epsilon, self.scales[i])
                for f2 in solved:
                    f2.born_x, f2.born_t = x, self.time
                new_fronts.extend(solved)
            track.trace = shifted[0]
            track.fronts = sorted(new_fronts, key=lambda f: (f.at(self.time), f.speed))
        if not changed_any:
            return
        # traces moved: re-establish the coupling conditions at x = 0
        patterns = self._coupling_patterns([t.trace for t in self.pipes])
        for j, track_j in enumerate(self.pipes):
            track_j.trace = patterns[j][1]
            new = self._pattern_fronts(j, patterns[j][0])
            track_j.fronts = new + track_j.fronts
            track_j.fronts.sort(key=lambda f: (f.at(self.time), f.speed))
            self._rechain_pipe(j)
            self._reschedule(j)
            self._rebuild_glimm(j)

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
                       control=None, tv_bound=None, tol=DEFAULT_TOL,
                       **options) -> FrontTrackingState:
    """Build the t=0 piecewise-constant approximation.

    ``profiles`` holds, per pipe, a constant PipeState or a list of
    (x_right, state) pieces whose last entry has x_right=None.  Interior
    jumps are resolved by the accurate solver and the coupling problem at
    x=0 by :func:`solve_coupling`; this and every later coupling solve of
    the run use the Newton tolerance ``tol``.  With ``tv_bound`` the scaled
    total variation of the data is checked against the configured bound.
    """
    state = FrontTrackingState(specs, profiles, constants, epsilon,
                               control=control, tol=tol, **options)
    if tv_bound is not None:
        tv = state.total_variation()
        if tv > tv_bound:
            raise ValueError(f"initial total variation {tv:g} exceeds bound {tv_bound:g}")
    return state


def operator_split_step(state: FrontTrackingState, source, t0, dt) -> FrontTrackingState:
    """One splitting step: homogeneous evolution over dt, then the source."""
    state.run(state.time + dt)
    state.apply_source(source, t0, dt)
    return state


def operator_split_run(state: FrontTrackingState, source, horizon, dt_split):
    """Euler polygonal: homogeneous evolution corrected every dt_split."""
    while state.time < horizon * (1.0 - 1e-15):
        dt = min(dt_split, horizon - state.time)
        operator_split_step(state, source, state.time, dt)
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
    conservation error.  The test functions are ``Bump`` objects: a
    segment whose space-time bounding box lies outside a bump's open
    support, by a relative margin of 1e-9, contributes zero and is skipped.
    """
    g = state.g
    defects = []
    for seg in state.segments:
        sc = state.scales[seg.pipe]
        fl = flux_vector(seg.left, g)
        fr = flux_vector(seg.right, g)
        du = (seg.right.rho - seg.left.rho, seg.right.q - seg.left.q)
        f_scales = (sc.q, sc.q * sc.q / sc.rho)
        defect = 0.0
        for c in range(2):
            defect += abs(seg.speed * du[c] - (fr[c] - fl[c])) / f_scales[c]
        if seg.left.model is Model.M1:
            dE = seg.speed * (seg.right.E - seg.left.E) - (fr[2] - fl[2])
            defect += abs(dE) / (sc.q * sc.E / sc.rho)
        if defect != 0.0:
            defects.append((seg, defect))
    t0 = np.array([seg.t0 for seg, _ in defects])
    t1 = np.array([seg.t1 for seg, _ in defects])
    x0 = np.array([seg.x0 for seg, _ in defects])
    x1 = x0 + np.array([seg.speed for seg, _ in defects]) * (t1 - t0)
    x_lo, x_hi = np.minimum(x0, x1), np.maximum(x0, x1)
    worst = 0.0
    for phi_f in test_functions:
        xa, xb, ta, tb = phi_f.support
        mx = 1e-9 * (abs(xa) + abs(xb))
        mt = 1e-9 * (abs(ta) + abs(tb))
        near = np.flatnonzero((x_hi > xa - mx) & (x_lo < xb + mx)
                              & (t1 > ta - mt) & (t0 < tb + mt))
        total = 0.0
        for m in near.tolist():
            seg, defect = defects[m]
            n = 4
            h = (seg.t1 - seg.t0) / n
            acc = 0.0
            for j in range(n + 1):
                t = seg.t0 + j * h
                x = seg.x0 + seg.speed * (t - seg.t0)
                w = 1 if j in (0, n) else (4 if j % 2 else 2)
                acc += w * phi_f(x, t)
            total += defect * abs(acc * h / 3.0)
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


def bump_test_functions(x_max, t_max, n=10):
    """Smooth compactly supported bumps covering [0, x_max] x (0, t_max)."""
    funcs = []
    for k in range(n):
        xc = (k % 5) * x_max / 5.0
        wx = x_max / 3.0 + (k % 3) * x_max / 10.0
        tc = t_max * (0.25 + 0.5 * ((k * 7) % n) / max(n - 1, 1))
        wt = t_max / 4.0
        funcs.append(Bump(xc, wx, tc, wt))
    return funcs
