"""Test-only references for the coupling problem, on numpy: the
base-point closed forms of the trace derivatives, the central-difference
Jacobian, the entropy mix at given parameters, the determinants of the
regularity argument, the dense closed-form Jacobian that the
elimination of ``newton_step`` avoids, and the coupling Newton with
numpy's LAPACK solve on it.  ``JunctionProblem`` returns Python lists;
these helpers take and return arrays and floats.  Also the zero source of operator splitting,
CSV output as one string and as one ``csv.writer`` row per grid point,
the per-point sampler of a Riemann solution and the per-point pipe
records that a snapshot's runs expand to.  And
the definitions that faster code must repeat bit for bit: the
characteristic speeds as one tuple, the fan-edge speed read off it, the
tracker's fronts of a list of waves with every rarefaction sliced, and
its accurate step on M2/M3 data built from the public Riemann solver.  And
the jump defect of a front segment from the flux vector, with the two
diagnostics built on it: the run's error indicator, which the tracker
repeats bit for bit, and the weak-form residual by the scalar Simpson
rule, segment by segment and bump by bump, which the array pass repeats
to within a stated tolerance."""

import csv
import io

import numpy as np

from gasnet.errors import NotSubsonic
from gasnet.fronttracking import _STRENGTH_FLOOR, _slice_fan
from gasnet.junction import _DOMAIN_ERRORS, MAX_BACKTRACKS, _entropy_mix_from
from gasnet.laxcurves import ISO, M1_IN, M1_OUT, fan_edge_speed
from gasnet.output import CSV_COLUMNS, write_csv
from gasnet.riemann import RAREFACTION, fan_state, solve_riemann_iso, solve_riemann_m1
from gasnet.thermo import Model, pressure, sound_speed


def curve_derivatives_at_base(role, base, g):
    """Base-point derivative formulas of the trace quantities.

    These are the closed forms in (rho, u, c) that the coupling Jacobian
    takes at the base parameters; they are kept independent of
    ``laxcurves.trace_eval`` so the two can be checked against each other.
    Requires |u| < c (a flow direction is not needed here).
    """
    if not abs(base.u) < sound_speed(base, g):
        raise NotSubsonic(f"base state with u={base.u} is not subsonic")
    gamma = g.gamma
    rho = base.rho
    u = base.u
    c = sound_speed(base, g)
    out = {}
    if role in (M1_OUT, M1_IN):
        lam3 = u + c
        out["dq_dsigma"] = lam3 / c**2
        out["dh_dsigma"] = lam3 / (c * rho)
        out["ds_dsigma"] = 0.0
        out["dp_dsigma"] = 1.0
        out["dT_dsigma"] = (gamma - 1.0) / (gamma * g.R * rho)
        if role == M1_OUT:
            out["dq_dtau"] = u
            out["dh_dtau"] = -(c**2) / ((gamma - 1.0) * rho)
            out["ds_dtau"] = -gamma * g.cv / rho
            out["dp_dtau"] = 0.0
            out["dT_dtau"] = -(c**2) / (gamma * g.R * rho)
    elif role == ISO:
        lam2 = u + c if base.model is Model.M2 else c
        out["dq_dsigma"] = lam2
        out["dh_dsigma"] = lam2 * c / rho
        out["ds_dsigma"] = 0.0
        out["dp_dsigma"] = c**2
        out["dT_dsigma"] = (gamma - 1.0) * base.kappa * rho ** (gamma - 2.0) / g.R
    else:
        raise ValueError(f"unknown pipe role {role!r}")
    return out


def residual_at(problem, x):
    """The unscaled coupling residual at parameters x, as an array."""
    return np.array(problem.residual(problem.traces([float(v) for v in x])))


def dense_jacobian(problem, traces):
    """Closed-form derivative of the unscaled residual w.r.t. (sigma, tau)
    at ``traces``, as a dense array: the oracle of the elimination in
    ``problem.newton_step``, exact on both curve branches."""
    n, piv, pipes = problem.n, problem.pivot, problem.pipes
    tau_col = {j: n + k for k, j in enumerate(problem.outgoing_m1)}
    J = np.zeros((problem.dim, problem.dim))
    for i, p in enumerate(pipes):
        J[0, i] = p.spec.area * traces[i].dq_dsigma
        if i in tau_col:
            J[0, tau_col[i]] = p.spec.area * traces[i].dq_dtau
    others = [j for j in range(n) if j != piv]
    if problem.control is None:
        for row, j in enumerate(others, 1):
            J[row, piv] = traces[piv].dh_dsigma
            J[row, j] -= traces[j].dh_dsigma
            if j in tau_col:
                J[row, tau_col[j]] = -traces[j].dh_dtau
    else:
        J[1, 0], J[1, 1], d_tau = problem.control.gradient(traces[0], traces[1],
                                                           problem.constants)
        if 1 in tau_col:
            J[1, tau_col[1]] = d_tau
    if problem.n0:
        den = sum(pipes[i].spec.area * traces[i].q for i in problem.incoming)
        s_star = _entropy_mix_from(problem, traces)
        for row, j in enumerate(problem.outgoing_m1, n):
            J[row, j] = traces[j].ds_dsigma
            J[row, tau_col[j]] = traces[j].ds_dtau
            for i in problem.incoming:
                t = traces[i]
                J[row, i] -= pipes[i].spec.area * (t.dq_dsigma * t.s + t.q * t.ds_dsigma
                                                   - s_star * t.dq_dsigma) / den
    return J


def jacobian_at(problem, x):
    """The closed-form Jacobian at parameters x, as an array."""
    return dense_jacobian(problem, problem.traces([float(v) for v in x]))


def fd_jacobian(problem, x):
    """Central-difference Jacobian of the coupling residual at x: the
    independent reference for ``dense_jacobian``.  Column k steps by
    1e-6 * max(|x_k|, floor_k), where the floor is 1e-6 for a sigma
    column and the pipe density for a tau column."""
    x = np.asarray(x, dtype=float)
    floor = [1e-6] * problem.n + [problem.pipes[j].state.rho for j in problem.outgoing_m1]
    J = np.empty((problem.dim, problem.dim))
    for col in range(problem.dim):
        h = 1e-6 * max(abs(x[col]), floor[col])
        xp, xm = x.copy(), x.copy()
        xp[col] += h
        xm[col] -= h
        J[:, col] = (residual_at(problem, xp) - residual_at(problem, xm)) / (2.0 * h)
    return J


def base_point(problem):
    """The base parameters (sigma, tau) as one array."""
    return np.concatenate(problem.base_parameters())


def entropy_mix(problem, sigma):
    """Flux-weighted entropy of the incoming pipes at parameters sigma."""
    x = [float(v) for v in sigma] + [0.0] * problem.n0
    return _entropy_mix_from(problem, problem.traces(x))


def pivot_blocks(problem, x=None):
    """The 3x3 blocks that control regularity when outgoing M1 pipes exist.

    Block j couples (sigma_j, sigma_pivot, tau_j) of outgoing M1 pipe j
    through the mass row, its enthalpy row, and its entropy row; x
    defaults to the base parameters.  Rows are mass, one enthalpy row per
    pipe other than the pivot (in pipe order), then one entropy row per
    outgoing M1 pipe; the tau columns follow the N sigma columns.
    """
    J = jacobian_at(problem, base_point(problem) if x is None else x)
    others = [j for j in range(problem.n) if j != problem.pivot]
    blocks = []
    for k, j in enumerate(problem.outgoing_m1):
        er, sr = 1 + others.index(j), problem.n + k
        cols = [j, problem.pivot, problem.n + k]
        blocks.append(J[np.ix_([0, er, sr], cols)])
    return blocks


def proof_determinant(problem, params=None):
    """Base-point Jacobian determinant of a compressor in the orientation
    used by the regularity argument: rows (mass, control - balance,
    s_out - s_in), so only the balance row is flipped."""
    J = jacobian_at(problem, base_point(problem) if params is None else params)
    J[1] = -J[1]
    return float(np.linalg.det(J))


def numpy_newton(problem, tol, max_iter):
    """The coupling Newton of ``junction._newton`` with numpy's LAPACK
    solve and norms: (x, iterations) as arrays, for drift checks of the
    list-based solve."""
    scales = np.array(problem.row_scales)
    x = base_point(problem)
    fx = residual_at(problem, x) / scales
    for it in range(max_iter + 1):
        if np.linalg.norm(fx, np.inf) <= tol:
            return x, it
        step = np.linalg.solve(jacobian_at(problem, x) / scales[:, None], -fx)
        norm0 = np.linalg.norm(fx)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            try:
                fn = residual_at(problem, x + alpha * step) / scales
            except _DOMAIN_ERRORS:
                alpha *= 0.5
                continue
            if np.linalg.norm(fn) <= (1.0 - 1e-4 * alpha) * norm0:
                break
            alpha *= 0.5
        else:
            raise AssertionError("reference line search stalled")
        x, fx = x + alpha * step, fn
    raise AssertionError("reference Newton did not converge")


class ZeroSource:
    """A momentum rate of 0."""

    def momentum_rate(self, state):
        return 0.0


def render_csv(records):
    """``output.write_csv`` of ``records`` as one string."""
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def sample_at(waves, left, right, xi, g):
    """Per-point reference of ``riemann.sample_waves``: scan the waves
    left to right for one xi = x/t; at a wave's left edge the state to
    its right, and a fan's left edge is its head."""
    state = left
    for wave in waves:
        fan = wave.kind == RAREFACTION
        if xi < (fan_edge_speed(wave.family, wave.left, g) if fan else wave.speed):
            return state
        if fan and xi < wave.speed:
            return fan_state(wave, xi, g)
        state = wave.right
    return right


def expand_pipes(record):
    """The per-point pipe records ``{pipe id: {"x": [...], "states":
    [field dicts]}}`` that the ``[count, field dict]`` runs of a snapshot
    record expand to, one field dict per grid point."""
    return {pipe_id: {"x": record["x"],
                      "states": [fields for count, fields in runs for _ in range(count)]}
            for pipe_id, runs in record["pipes"].items()}


def per_point_csv(records):
    """The CSV of ``records`` as one ``csv.writer`` row per grid point of
    each pipe's ``expand_pipes`` record, which ``write_csv`` repeats byte
    for byte."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rec in records:
        t = repr(float(rec["time"]))
        for pipe_id, pipe in expand_pipes(rec).items():
            w.writerows([t, pipe_id, repr(float(x))] + [repr(float(st[c])) for c in CSV_COLUMNS[3:]]
                        for x, st in zip(pipe["x"], pipe["states"]))
    return buf.getvalue()


def eigenvalue_tuple(state, g):
    """The characteristic speeds of ``state``, ordered, all computed
    together: the definition ``thermo.eigenvalues`` and
    ``thermo.edge_eigenvalue`` must match bit for bit."""
    c = sound_speed(state, g)
    u = state.u
    if state.model is Model.M1:
        return (u - c, u, u + c)
    if state.model is Model.M2:
        return (u - c, u + c)
    return (-c, c)


def fan_edge_speed_from_tuple(family, state, g):
    """The fan-edge speed read off the whole tuple of speeds: the slowest
    for family 1, else the fastest."""
    return eigenvalue_tuple(state, g)[0 if family == 1 else -1]


def sliced_wave_fronts(waves, g, epsilon, scales, keep_weak=False):
    """The fronts of the waves above the strength floor, left to right,
    each shock or contact its own front and each rarefaction sliced by
    ``_slice_fan`` into jumps of scaled strength <= epsilon, a single slice
    included; with ``keep_weak``, a rarefaction already that weak is its
    own front, which is ``fronttracking._wave_fronts`` by its definition.
    The chain is not closed across a dropped wave here;
    ``accurate_fronts`` closes it."""
    fronts = []
    for w in waves:
        sc = scales.family[w.family]
        if abs(w.strength) < _STRENGTH_FLOOR * sc:
            continue
        if w.kind == RAREFACTION and not (keep_weak and abs(w.strength) <= epsilon * sc):
            fronts += _slice_fan(w, g, epsilon * sc)
        else:
            fronts.append(w)
    return fronts


def accurate_fronts(left, right, g, epsilon, scales):
    """``fronttracking.accurate_solve`` by its definition: the waves of
    ``solve_riemann_m1`` (M1 data) or ``solve_riemann_iso`` (M2/M3 data)
    through ``sliced_wave_fronts`` with ``keep_weak``, then rechained from
    ``left``, each front's left state the right state of the front before
    it, and the last front's right state ``right``."""
    solve = solve_riemann_m1 if left.model is Model.M1 else solve_riemann_iso
    fronts = sliced_wave_fronts(solve(left, right, g).waves, g, epsilon, scales,
                                keep_weak=True)
    prev = left
    for f in fronts:
        f.left = prev
        prev = f.right
    if fronts:
        fronts[-1].right = right
    return fronts


def flux_vector(state, g):
    """The flux of the conservation law at ``state``: (q, q u + p) on M2,
    (q, p) on M3, and on M1 also the energy flux u (E + p)."""
    p = pressure(state, g)
    if state.model is Model.M1:
        return (state.q, state.q * state.u + p, state.u * (state.E + p))
    if state.model is Model.M2:
        return (state.q, state.q * state.u + p)
    return (state.q, p)


def jump_defect(state, seg):
    """The componentwise-scaled jump defect |speed [U] - [F]| of one
    segment of a run, with the run's per-pipe scales."""
    g = state.g
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
    return defect


def scalar_error_indicator(state):
    """``fronttracking.error_indicator`` by its definition: the jump
    defect of every segment times its lifetime, summed in segment order
    by front kind."""
    group = {"rarefaction": "slices", "nonphysical": "nonphysical",
             "shock": "jumps", "contact": "jumps"}
    totals = {"slices": 0.0, "nonphysical": 0.0, "jumps": 0.0}
    for seg in state.segments:
        totals[group[seg.kind]] += jump_defect(state, seg) * (seg.t1 - seg.t0)
    return totals


def scalar_weak_form_residual(state, test_functions, horizon):
    """``fronttracking.weak_form_residual`` by its definition: the jump
    defect of every segment, then for each test function one running sum
    over every segment of the Simpson rule on five nodes, each node a
    scalar call of the test function."""
    defects = [(seg, d) for seg in state.segments if (d := jump_defect(state, seg)) != 0.0]
    worst = 0.0
    for phi_f in test_functions:
        total = 0.0
        for seg, defect in defects:
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
