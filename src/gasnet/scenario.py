"""Scenario documents: parsing, validation, and execution.

A scenario is one YAML document (human-writable, comment-friendly) with
three blocks::

    constants: {gamma: 1.4, R: 287.0, s0: 0.0}
    topology:
      kind: junction                      # or: compressor
      pipes:
        - id: feed
          area: 2.0
          model: M3                       # M1 | M2 | M3
          initial: {rho: 1.0, u: -0.3, kappa: 1.0}
      # compressor topologies instead carry inlet:, outlet:, control:
      #   control: {kind: CP1, h_star: 60000.0}
      #   control: {kind: CP2, p_star: 5.0e6, cp_coeff: 0.9}
    run:
      mode: riemann                       # or: simulate
      horizon: 0.5                        # riemann mode: or sample_times: [..], not both
      epsilon: 0.02
      tol: 1.0e-10
      grid: {points: 64, length: 2.0}
      source: {kind: none}                # or: {kind: friction, lambda_f: .., diameter: ..}

M1 initial states are given as {rho, u, p}, isentropic ones as
{rho, u, kappa}; piecewise-constant profiles use
``initial: {pieces: [{x_right: 0.5, rho: ..}, {x_right: null, ..}]}``.
``parse_scenario`` loads a document's text, read by its caller, as
``yaml.safe_load`` would (``document``, imported on the first parse),
and validates it once, with the caller's ``run`` fields in place of the
document's own.
Validation aggregates all violations with their field paths before
raising; a key its block does not read is one too (``unknown field``).
The one exception is the cross-pipe rule of the coupling problem, which
``junction.classify_pipes`` alone judges: it reports only its first
failure, at ``topology``, once every field has parsed.
"""

import math
import sys
from collections import Counter
from itertools import groupby
from typing import NamedTuple

from .compressor import ADIABATIC_HEAD, POWER, CompressorControl
from .errors import NotSubsonic, ScenarioValidationError
from .fronttracking import (
    DEFAULT_MAX_EVENTS,
    FrictionSource,
    default_split_step,
    error_indicator,
    init_approximation,
    l1_distance,
    operator_split_run,
    solve_coupling,
)
from .junction import DEFAULT_TOL, JunctionProblem, PipeSpec, classify_pipes, state_residuals
from .output import FieldMemo, snapshot_record
from .riemann import sample_waves
from .thermo import M1, GasConstants, Model, PipeState, iso_state, m1_state


class RunConfig(NamedTuple):
    mode: str = "riemann"
    horizon: float = 1.0
    epsilon: float = 0.01
    epsilon_ladder: list = None
    tol: float = DEFAULT_TOL
    snapshots: int = 10
    sample_times: list = None
    grid_points: int = 32
    grid_length: float = 1.0
    source: object = None
    tv_bound: float = None
    max_events: int = DEFAULT_MAX_EVENTS


class Scenario(NamedTuple):
    constants: GasConstants
    kind: str                       # "junction" | "compressor"
    specs: list
    profiles: list                  # per pipe: PipeState or [(x_right, state), ...]
    control: CompressorControl
    run: RunConfig

    def trace_states(self):
        return [p if isinstance(p, PipeState) else p[0][1] for p in self.profiles]


class _Collector:
    def __init__(self):
        self.violations = []

    def add(self, path, message):
        self.violations.append(f"{path}: {message}")

    def raise_if_any(self):
        if self.violations:
            raise ScenarioValidationError(self.violations)


def _is_int(v):
    # YAML booleans load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    """v is a number, not a bool, with a finite float value; an integer
    beyond the float range has none."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _num(doc, path, key, errs, default=None, positive=False, required=False):
    if key not in doc:
        if required:
            errs.add(f"{path}.{key}", "missing required field")
        return default
    v = doc[key]
    if not _is_finite(v):
        errs.add(f"{path}.{key}", f"must be a finite number, got {v!r}")
        return default
    if positive and not v > 0:
        errs.add(f"{path}.{key}", f"must be > 0, got {v!r}")
        return default
    return float(v)


def _int(doc, path, key, errs, default, minimum):
    v = doc.get(key, default)
    if not _is_int(v) or v < minimum:
        errs.add(f"{path}.{key}", f"must be an integer >= {minimum}, got {v!r}")
        return default
    return v


def _unknown(doc, path, known, errs):
    """One violation per key of the mapping ``doc`` that its block, at
    ``path`` (empty at the top level), does not read."""
    for key in doc:
        if key not in known:
            errs.add(f"{path}.{key}" if path else str(key), "unknown field")


def _positive_list(doc, path, key, errs):
    """doc[key] as a non-empty list of finite floats > 0; None if absent."""
    if key not in doc:
        return None
    vs = doc[key]
    if not isinstance(vs, list) or not vs or not all(
            _is_finite(v) and v > 0 for v in vs):
        errs.add(f"{path}.{key}", "must be a non-empty list of finite positive numbers")
        return None
    return [float(v) for v in vs]


def _parse_state(doc, path, model, g, errs):
    if not isinstance(doc, dict):
        errs.add(path, "state must be a mapping")
        return None
    # an M1 state carries p, an isentropic one kappa
    third = "p" if model is M1 else "kappa"
    _unknown(doc, path, ("rho", "u", third), errs)
    rho = _num(doc, path, "rho", errs, positive=True, required=True)
    u = _num(doc, path, "u", errs, required=True)
    p_or_kappa = _num(doc, path, third, errs, positive=True, required=True)
    if None in (rho, u, p_or_kappa):
        return None
    if model is M1:
        return m1_state(rho, u, p_or_kappa, g)
    return iso_state(model, rho, u, p_or_kappa)


def _parse_profile(doc, path, model, g, errs):
    if isinstance(doc, dict) and "pieces" in doc:
        _unknown(doc, path, ("pieces",), errs)
        pieces = doc["pieces"]
        if not isinstance(pieces, list) or not pieces:
            errs.add(f"{path}.pieces", "must be a non-empty list")
            return None
        out = []
        prev_x = 0.0
        for k, piece in enumerate(pieces):
            ppath = f"{path}.pieces[{k}]"
            if not isinstance(piece, dict):
                errs.add(ppath, "must be a mapping")
                return None
            x = piece.get("x_right")
            last = k == len(pieces) - 1
            if last:
                if x is not None:
                    errs.add(f"{ppath}.x_right", "last piece must have x_right: null")
            else:
                if not _is_finite(x) or not x > prev_x:
                    errs.add(f"{ppath}.x_right",
                             f"must be a finite number > {prev_x}, got {x!r}")
                    return None
                prev_x = float(x)
            body = {k2: v for k2, v in piece.items() if k2 != "x_right"}
            st = _parse_state(body, ppath, model, g, errs)
            if st is None:
                return None
            out.append((float(x) if x is not None else None, st))
        return out
    return _parse_state(doc, path, model, g, errs)


def _parse_pipe(doc, path, g, errs):
    if not isinstance(doc, dict):
        errs.add(path, "pipe must be a mapping")
        return None, None
    _unknown(doc, path, ("id", "area", "model", "initial"), errs)
    pid = doc.get("id")
    if not isinstance(pid, str) or not pid:
        errs.add(f"{path}.id", "missing or empty pipe id")
        pid = f"<{path}>"
    area = _num(doc, path, "area", errs, positive=True, required=True)
    model_name = doc.get("model")
    try:
        model = Model(model_name)
    except ValueError:
        errs.add(f"{path}.model", f"must be one of M1/M2/M3, got {model_name!r}")
        return None, None
    if "initial" not in doc:
        errs.add(f"{path}.initial", "missing initial state")
        return None, None
    profile = _parse_profile(doc["initial"], f"{path}.initial", model, g, errs)
    if profile is None or area is None:
        return None, None
    spec = PipeSpec(pid, area, model)
    return spec, profile


def _parse_control(doc, path, errs):
    if not isinstance(doc, dict):
        errs.add(path, "control must be a mapping")
        return None
    kind = doc.get("kind")
    if kind not in (ADIABATIC_HEAD, POWER):
        errs.add(f"{path}.kind", f"must be CP1 or CP2, got {kind!r}")
        return None
    _unknown(doc, path, ("kind", "h_star") if kind == ADIABATIC_HEAD
             else ("kind", "p_star", "cp_coeff"), errs)
    value = _num(doc, path, "h_star" if kind == ADIABATIC_HEAD else "p_star", errs,
                 required=True)
    cp = _num(doc, path, "cp_coeff", errs, required=True) if kind == POWER else None
    if value is None or (kind == POWER and cp is None):
        return None
    # CompressorControl alone checks the values
    try:
        return CompressorControl(kind, value, cp_coeff=cp)
    except ValueError as exc:
        errs.add(path, str(exc))
        return None


# run keys that a mode never reads; ``epsilon`` stays allowed in a riemann
# document, which ``gasnet simulate`` also runs with the document's epsilon
_UNREAD = {"riemann": ("epsilon_ladder", "tv_bound", "snapshots", "source", "max_events"),
           "simulate": ("sample_times",)}


def _parse_run(doc, path, errs, overrides):
    """The run block ``doc``, with the fields of ``overrides`` in place of
    its own."""
    run = RunConfig()
    if not isinstance(doc, dict):
        errs.add(path, "run must be a mapping")
        return run
    declared = doc.get("mode", "riemann")
    doc = {**doc, **overrides}
    _unknown(doc, path, ("mode", "horizon", "epsilon", "tol", "tv_bound", "snapshots",
                         "sample_times", "epsilon_ladder", "grid", "source", "max_events"),
             errs)
    mode = doc.get("mode", declared)
    if mode not in ("riemann", "simulate"):
        errs.add(f"{path}.mode", f"must be riemann or simulate, got {mode!r}")
    if mode == "riemann" and "sample_times" in doc and "horizon" in doc:
        errs.add(f"{path}.horizon", "riemann mode samples at sample_times and never reads it")
    fields = {"mode": mode}     # replace the defaults in ``run``, at the end
    fields["horizon"] = _num(doc, path, "horizon", errs, default=run.horizon, positive=True)
    fields["epsilon"] = _num(doc, path, "epsilon", errs, default=run.epsilon, positive=True)
    fields["tol"] = _num(doc, path, "tol", errs, default=run.tol, positive=True)
    fields["tv_bound"] = _num(doc, path, "tv_bound", errs, default=None, positive=True)
    fields["snapshots"] = _int(doc, path, "snapshots", errs, run.snapshots, 1)
    fields["sample_times"] = _positive_list(doc, path, "sample_times", errs)
    fields["epsilon_ladder"] = _positive_list(doc, path, "epsilon_ladder", errs)
    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        errs.add(f"{path}.grid", "must be a mapping")
    else:
        _unknown(grid, f"{path}.grid", ("points", "length"), errs)
        fields["grid_points"] = _int(grid, f"{path}.grid", "points", errs, run.grid_points, 2)
        fields["grid_length"] = _num(grid, f"{path}.grid", "length", errs,
                                     default=run.grid_length, positive=True)
    src = doc.get("source", {"kind": "none"})
    if not isinstance(src, dict) or src.get("kind", "none") not in ("none", "friction"):
        errs.add(f"{path}.source", "must be a mapping with kind none or friction")
    elif src.get("kind") != "friction":
        _unknown(src, f"{path}.source", ("kind",), errs)
    else:
        _unknown(src, f"{path}.source", ("kind", "lambda_f", "diameter"), errs)
        lf = _num(src, f"{path}.source", "lambda_f", errs, required=True)
        dia = _num(src, f"{path}.source", "diameter", errs, positive=True, required=True)
        if lf is not None and lf < 0:
            errs.add(f"{path}.source.lambda_f", "must be >= 0")
        elif lf is not None and dia is not None:
            fields["source"] = FrictionSource(lf, dia)
    fields["max_events"] = _int(doc, path, "max_events", errs, run.max_events, 1)
    # a key the mode never reads, and that has no violation of its own, is
    # one; a document run in the other mode keeps the keys of its own
    if mode == declared and isinstance(mode, str):  # a list or mapping is no dict key
        for key in _UNREAD.get(mode, ()):
            at = f"{path}.{key}"
            if key in doc and not any(v.startswith((f"{at}:", f"{at}."))
                                      for v in errs.violations):
                errs.add(at, f"{mode} mode never reads it")
    return run._replace(**fields)


def parse_scenario(text, **run) -> Scenario:
    """Parse and validate a scenario document's text, with the ``run``
    fields given in place of the document's own.  The loader, and PyYAML
    with it, is imported on the first call."""
    from .document import load_document

    return _scenario_from(load_document(text), run)


def _scenario_from(doc, run_overrides) -> Scenario:
    """Validate a loaded scenario mapping, with the ``run_overrides``
    fields in place of its run block's own."""
    errs = _Collector()
    _unknown(doc, "", ("constants", "topology", "run"), errs)
    cdoc = doc.get("constants", {})
    if not isinstance(cdoc, dict):
        errs.add("constants", "constants must be a mapping")
        cdoc = {}
    _unknown(cdoc, "constants", ("gamma", "R", "s0"), errs)
    # GasConstants alone holds the defaults of the keys a document leaves out
    given = {key: _num(cdoc, "constants", key, errs) for key in ("gamma", "R", "s0")}
    try:
        g = GasConstants(**{key: v for key, v in given.items() if v is not None})
    except ValueError as exc:
        errs.add("constants", str(exc))
        errs.raise_if_any()

    topo = doc.get("topology")
    if not isinstance(topo, dict):
        errs.add("topology", "missing topology block" if topo is None
                 else "topology must be a mapping")
        errs.raise_if_any()
    kind = topo.get("kind", "junction")
    specs, profiles, control = [], [], None
    if kind == "junction":
        _unknown(topo, "topology", ("kind", "pipes"), errs)
        pipes = topo.get("pipes")
        if not isinstance(pipes, list) or len(pipes) < 2:
            errs.add("topology.pipes", "a junction needs a list of at least two pipes")
            errs.raise_if_any()
        for k, pdoc in enumerate(pipes):
            spec, profile = _parse_pipe(pdoc, f"topology.pipes[{k}]", g, errs)
            if spec is not None:
                specs.append(spec)
                profiles.append(profile)
    elif kind == "compressor":
        _unknown(topo, "topology", ("kind", "inlet", "outlet", "control"), errs)
        for name in ("inlet", "outlet"):
            if name not in topo:
                errs.add(f"topology.{name}", "missing pipe")
                continue
            spec, profile = _parse_pipe(topo[name], f"topology.{name}", g, errs)
            if spec is not None:
                specs.append(spec)
                profiles.append(profile)
        control = _parse_control(topo.get("control"), "topology.control", errs)
    else:
        errs.add("topology.kind", f"must be junction or compressor, got {kind!r}")
    errs.raise_if_any()

    ids = [s.id for s in specs]
    for pid in set(ids):
        if ids.count(pid) > 1:
            errs.add("topology", f"pipe id {pid!r} defined more than once")

    run = _parse_run(doc.get("run", {}), "run", errs, run_overrides)
    errs.raise_if_any()

    scenario = Scenario(g, kind, specs, profiles, control, run)
    _validate_solver_invariants(scenario, errs)
    errs.raise_if_any()
    return scenario


def _validate_solver_invariants(sc: Scenario, errs):
    """Checks across pipes, on a scenario whose fields all parsed (so a
    compressor has both pipes).  ``classify_pipes`` alone judges whether
    the pipes form a coupling problem; its first violation is recorded at
    ``topology``."""
    try:
        classify_pipes(list(zip(sc.specs, sc.trace_states())), sc.constants, sc.control)
    except (NotSubsonic, ValueError) as exc:
        errs.add("topology", str(exc))
    if sc.run.mode == "riemann":
        pipes = ([f"pipes[{k}]" for k in range(len(sc.specs))] if sc.kind == "junction"
                 else ["inlet", "outlet"])
        for pipe, prof in zip(pipes, sc.profiles):
            if not isinstance(prof, PipeState):
                errs.add(f"topology.{pipe}.initial", "riemann mode needs constant initial states")


# -- execution ---------------------------------------------------------------


class RunResult(NamedTuple):
    records: list
    summary: dict


def _grid(sc: Scenario):
    n = sc.run.grid_points
    return [sc.run.grid_length * (k + 0.5) / n for k in range(n)]


def _runs(states):
    """``[(state, count), ...]``, one run per stretch of the same state
    object in a list of per-point states."""
    return [(same[0], len(same)) for same in (list(g) for _, g in groupby(states, id))]


def _run_riemann(sc: Scenario) -> RunResult:
    g = sc.constants
    data = sc.trace_states()
    problem = JunctionProblem(list(zip(sc.specs, data)), g, sc.control)
    sol, waves = solve_coupling(problem, sc.run.tol)

    xs = _grid(sc)
    times = sc.run.sample_times or [sc.run.horizon]
    fields = FieldMemo(g)
    traces = {spec.id: trace for spec, trace in zip(sc.specs, sol.star_states)}
    records = []
    for t in times:
        xis = [x / t for x in xs]
        pipes = {spec.id: sample_waves(w, trace, d, xis, g)
                 for spec, w, trace, d in zip(sc.specs, waves, sol.star_states, data)}
        diag = {"residual_norm": sol.residual_norm, "iterations": sol.iterations}
        records.append(snapshot_record(t, xs, pipes, traces, diag, fields))

    summary = {
        "mode": "riemann",
        "kind": sc.kind,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "sigma": {s.id: sol.sigma[i] for i, s in enumerate(sc.specs)},
        "tau": {s.id: sol.tau[i] for i, s in enumerate(sc.specs)
                if sol.tau[i] is not None},
        "s_star": sol.s_star,
    }
    if sc.kind == "junction":
        summary["h_star"] = sol.h_star
    else:
        summary["pressure_ratio"] = sol.extras["pressure_ratio"]
        summary["head"] = sol.extras["head"]
        if "power" in sol.extras:
            summary["power"] = sol.extras["power"]
    summary["max_residuals"] = state_residuals(problem, sol.star_states)
    if sol.extras.get("idle_control"):
        summary["warnings"] = ["idle control value 0: uniqueness outside "
                               "the guaranteed neighborhood"]
    return RunResult(records, summary)


def trace_residuals(state, specs, g: GasConstants, control=None):
    """:func:`~gasnet.junction.state_residuals` of the current traces,
    against the row scales of a coupling problem built on them."""
    traces = state.traces()
    return state_residuals(JunctionProblem(list(zip(specs, traces)), g, control), traces)


def _stops(sc: Scenario):
    """Snapshot times: every horizon / snapshots, the last at the horizon
    itself."""
    horizon = sc.run.horizon
    return [horizon * k / sc.run.snapshots for k in range(1, sc.run.snapshots)] + [horizon]


def _absorbed(sc: Scenario, state):
    """``np_absorbed`` of a run with a source; only source steps absorb
    fronts, so homogeneous runs report nothing."""
    return {} if sc.run.source is None else {"np_absorbed": state.np_absorbed}


def _simulate(sc: Scenario, epsilon, records=None, ladder_of=None):
    """The tracked run at ``epsilon``, stopped at each of ``_stops``; with
    a friction source it is operator-split between the stops, so the run
    at the scenario's epsilon is the same with or without ``records``.
    With a ``records`` list a snapshot record is appended at each stop.
    A ladder member passes the scenario's own run as ``ladder_of``
    (see ``FrontTrackingState``)."""
    g = sc.constants
    state = init_approximation(sc.specs, sc.profiles, g, epsilon, control=sc.control,
                               tol=sc.run.tol, max_events=sc.run.max_events,
                               ladder_of=ladder_of)
    if sc.run.tv_bound is not None:
        tv = state.glimm().TV
        if tv > sc.run.tv_bound:
            raise ScenarioValidationError([
                f"run.tv_bound: initial total variation {tv:g} at epsilon {epsilon:g} "
                f"exceeds the bound {sc.run.tv_bound:g}"])
    dt_split = None if sc.run.source is None else default_split_step(
        state, sc.run.grid_length / sc.run.grid_points)
    xs = _grid(sc)
    fields = FieldMemo(g)
    for t in _stops(sc):
        if dt_split is None:
            state.run(t)
        else:
            operator_split_run(state, sc.run.source, t, dt_split)
        if records is None:
            continue
        glimm = state.glimm()
        pipes = {}
        traces = {}
        for spec, track in zip(sc.specs, state.pipes):
            pos = [f.at(state.time) for f in track.fronts]
            pipes[spec.id] = _runs(track.states_at(xs, pos))
            traces[spec.id] = track.trace
        diag = {"V": glimm.V, "Q": glimm.Q, "Y": glimm.Y, "TV": glimm.TV,
                "np_strength": glimm.np_strength, **_absorbed(sc, state),
                "front_count": glimm.front_count, "events": state.events}
        diag.update(trace_residuals(state, sc.specs, g, sc.control))
        records.append(snapshot_record(t, xs, pipes, traces, diag, fields))
    _log_run(state)
    return state


def info_log():
    """The ``gasnet`` logger if it logs INFO, else None.  Only a loaded
    logging module can have enabled it, so this does not import one
    (that takes about 7 ms)."""
    logging = sys.modules.get("logging")
    log = None if logging is None else logging.getLogger("gasnet")
    return log if log is not None and log.isEnabledFor(logging.INFO) else None


def _log_run(state):
    """One INFO line on the ``gasnet`` logger about a finished tracked run."""
    if (log := info_log()) is None:
        return
    kinds = Counter(r.kind for r in state.interactions)
    log.info("tracked run at epsilon %g: %d events (%d collision, %d junction, "
             "%d reflection), %d live fronts, K_J %.6g (probes that raised and "
             "were skipped: %d)", state.epsilon, state.events, kinds["collision"],
             kinds["junction"], kinds["reflection"],
             sum(len(t.fronts) for t in state.pipes), state.K_J,
             state.kj_probes_skipped)


def _run_simulate(sc: Scenario) -> RunResult:
    g = sc.constants
    records = []
    state = _simulate(sc, sc.run.epsilon, records)
    state.finalize_segments()
    glimm = state.glimm()
    ratios = [r.v_plus / r.v_minus for r in state.interactions
              if r.kind in ("junction", "reflection") and r.v_minus > 0]
    kinds = Counter(r.kind for r in state.interactions)
    indicator = error_indicator(state)
    if log := info_log():
        log.info("error indicator at epsilon %g: slices %.6g, nonphysical %.6g, "
                 "jumps %.6g", state.epsilon, *indicator.values())
    summary = {
        "mode": "simulate",
        "kind": sc.kind,
        "epsilon": sc.run.epsilon,
        "horizon": sc.run.horizon,
        "events": state.events,
        "interactions": {k: kinds[k] for k in ("collision", "junction", "reflection")},
        "front_count": glimm.front_count,
        "K_J": state.K_J,
        "K_hat_J": state.K_hat_J,
        "max_junction_amplification": max(ratios) if ratios else 0.0,
        "final": {"V": glimm.V, "Q": glimm.Q, "Y": glimm.Y, "TV": glimm.TV,
                  "np_strength": glimm.np_strength, **_absorbed(sc, state)},
        "max_residuals": trace_residuals(state, sc.specs, g, sc.control),
        "error_indicator": indicator,
    }
    if sc.run.epsilon_ladder:
        # members only feed the L1 distances: they take the run's K_J and
        # keep no segments, so they report no error indicator
        finals = [state if eps == sc.run.epsilon else _simulate(sc, eps, ladder_of=state)
                  for eps in sc.run.epsilon_ladder]
        x_max = max(sc.run.grid_length, state.lambda_hat * sc.run.horizon)
        summary["epsilon_ladder"] = sc.run.epsilon_ladder
        summary["l1_distances"] = [
            l1_distance(a, b, x_max) for a, b in zip(finals, finals[1:])
        ]
    return RunResult(records, summary)


def run_scenario(sc: Scenario) -> RunResult:
    """Dispatch a validated scenario to the appropriate solver."""
    if sc.run.mode == "riemann":
        return _run_riemann(sc)
    return _run_simulate(sc)
