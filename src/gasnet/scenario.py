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
      horizon: 0.5
      epsilon: 0.02
      tol: 1.0e-10
      grid: {points: 64, length: 2.0}
      source: {kind: none}                # or: {kind: friction, lambda_f: .., diameter: ..}

M1 initial states are given as {rho, u, p}, isentropic ones as
{rho, u, kappa}; piecewise-constant profiles use
``initial: {pieces: [{x_right: 0.5, rho: ..}, {x_right: null, ..}]}``.
Validation aggregates all violations with their field paths before
raising.
"""

import math
from dataclasses import dataclass, field

import yaml

from .compressor import ADIABATIC_HEAD, POWER, CompressorControl
from .errors import ScenarioParseError, ScenarioValidationError
from .fronttracking import (
    DEFAULT_MAX_EVENTS,
    FrictionSource,
    bump_test_functions,
    coupling_wave_pattern,
    default_split_step,
    init_approximation,
    l1_distance,
    operator_split_run,
    solve_coupling,
    weak_form_residual,
)
from .junction import PipeSpec, verify_coupling
from .laxcurves import role_of
from .output import FieldMemo, snapshot_record
from .riemann import sample_waves
from .thermo import (
    FlowRegime,
    GasConstants,
    Model,
    PipeState,
    classify_subsonic,
    iso_state,
    m1_state,
    thermo_quantities,
)


@dataclass
class RunConfig:
    mode: str = "riemann"
    horizon: float = 1.0
    epsilon: float = 0.01
    epsilon_ladder: list = None
    tol: float = 1e-10
    snapshots: int = 10
    sample_times: list = None
    grid_points: int = 32
    grid_length: float = None
    source: object = None
    tv_bound: float = None
    max_events: int = DEFAULT_MAX_EVENTS


@dataclass
class Scenario:
    constants: GasConstants
    kind: str                       # "junction" | "compressor"
    specs: list
    profiles: list                  # per pipe: PipeState or [(x_right, state), ...]
    control: CompressorControl
    run: RunConfig
    raw: dict = field(repr=False, default=None)

    @property
    def pipe_ids(self):
        return [s.id for s in self.specs]

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


def _num(doc, path, key, errs, default=None, positive=False, required=False):
    if key not in doc:
        if required:
            errs.add(f"{path}.{key}", "missing required field")
        return default
    v = doc[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        errs.add(f"{path}.{key}", f"must be a finite number, got {v!r}")
        return default
    if positive and not v > 0:
        errs.add(f"{path}.{key}", f"must be > 0, got {v!r}")
        return default
    return float(v)


def _parse_state(doc, path, model, g, errs):
    if not isinstance(doc, dict):
        errs.add(path, "state must be a mapping")
        return None
    rho = _num(doc, path, "rho", errs, positive=True, required=True)
    u = _num(doc, path, "u", errs, required=True)
    if model is Model.M1:
        p = _num(doc, path, "p", errs, positive=True, required=True)
        if "kappa" in doc:
            errs.add(f"{path}.kappa", "M1 states take p, not kappa")
        if None in (rho, u, p):
            return None
        return m1_state(rho, u, p, g)
    kappa = _num(doc, path, "kappa", errs, positive=True, required=True)
    if "p" in doc:
        errs.add(f"{path}.p", f"{model.value} states take kappa, not p")
    if None in (rho, u, kappa):
        return None
    return iso_state(model, rho, u, kappa)


def _parse_profile(doc, path, model, g, errs):
    if isinstance(doc, dict) and "pieces" in doc:
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
                if not isinstance(x, (int, float)) or isinstance(x, bool) or not x > prev_x:
                    errs.add(f"{ppath}.x_right",
                             f"must be a number > {prev_x}, got {x!r}")
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
    if kind == ADIABATIC_HEAD:
        h = _num(doc, path, "h_star", errs, required=True)
        if h is None or h < 0:
            errs.add(f"{path}.h_star", "must be >= 0")
            return None
        return CompressorControl(ADIABATIC_HEAD, h)
    if kind == POWER:
        p = _num(doc, path, "p_star", errs, required=True)
        cp = _num(doc, path, "cp_coeff", errs, positive=True, required=True)
        if p is None or cp is None or p < 0:
            return None
        return CompressorControl(POWER, p, cp_coeff=cp)
    errs.add(f"{path}.kind", f"must be CP1 or CP2, got {kind!r}")
    return None


def _parse_run(doc, path, errs):
    run = RunConfig()
    if doc is None:
        return run
    if not isinstance(doc, dict):
        errs.add(path, "run must be a mapping")
        return run
    mode = doc.get("mode", "riemann")
    if mode not in ("riemann", "simulate"):
        errs.add(f"{path}.mode", f"must be riemann or simulate, got {mode!r}")
    run.mode = mode
    run.horizon = _num(doc, path, "horizon", errs, default=run.horizon, positive=True)
    run.epsilon = _num(doc, path, "epsilon", errs, default=run.epsilon, positive=True)
    run.tol = _num(doc, path, "tol", errs, default=run.tol, positive=True)
    run.tv_bound = _num(doc, path, "tv_bound", errs, default=None, positive=True)
    snaps = doc.get("snapshots", run.snapshots)
    if not isinstance(snaps, int) or snaps < 1:
        errs.add(f"{path}.snapshots", f"must be a positive integer, got {snaps!r}")
    else:
        run.snapshots = snaps
    if "sample_times" in doc:
        ts = doc["sample_times"]
        if not isinstance(ts, list) or not all(
                isinstance(t, (int, float)) and t > 0 for t in ts):
            errs.add(f"{path}.sample_times", "must be a list of positive numbers")
        else:
            run.sample_times = [float(t) for t in ts]
    if "epsilon_ladder" in doc:
        ls = doc["epsilon_ladder"]
        if not isinstance(ls, list) or not all(
                isinstance(e, (int, float)) and e > 0 for e in ls):
            errs.add(f"{path}.epsilon_ladder", "must be a list of positive numbers")
        else:
            run.epsilon_ladder = [float(e) for e in ls]
    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        errs.add(f"{path}.grid", "must be a mapping")
    else:
        pts = grid.get("points", run.grid_points)
        if not isinstance(pts, int) or pts < 2:
            errs.add(f"{path}.grid.points", f"must be an integer >= 2, got {pts!r}")
        else:
            run.grid_points = pts
        run.grid_length = _num(grid, f"{path}.grid", "length", errs,
                               default=None, positive=True)
    src = doc.get("source", {"kind": "none"})
    if not isinstance(src, dict) or src.get("kind", "none") not in ("none", "friction"):
        errs.add(f"{path}.source", "kind must be none or friction")
    elif src.get("kind") == "friction":
        lf = _num(src, f"{path}.source", "lambda_f", errs, required=True)
        dia = _num(src, f"{path}.source", "diameter", errs, positive=True, required=True)
        if lf is not None and lf < 0:
            errs.add(f"{path}.source.lambda_f", "must be >= 0")
        elif lf is not None and dia is not None:
            run.source = FrictionSource(lf, dia)
    if run.epsilon_ladder is not None and run.source is not None:
        errs.add(f"{path}.epsilon_ladder",
                 "cannot be combined with a friction source: ladder runs are homogeneous")
    max_events = doc.get("max_events", run.max_events)
    if not isinstance(max_events, int) or max_events < 1:
        errs.add(f"{path}.max_events", "must be a positive integer")
    else:
        run.max_events = max_events
    return run


# libyaml's parser when PyYAML was built with it; both report line and column
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario document (text or file path)."""
    text = source
    if "\n" not in source and (source.endswith((".yaml", ".yml")) or "/" in source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"not a well-formed YAML document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a YAML mapping")

    errs = _Collector()
    cdoc = doc.get("constants", {})
    gamma = _num(cdoc, "constants", "gamma", errs, default=1.4)
    R = _num(cdoc, "constants", "R", errs, default=287.0)
    s0 = _num(cdoc, "constants", "s0", errs, default=0.0)
    try:
        g = GasConstants(gamma=gamma, R=R, s0=s0)
    except (ValueError, TypeError) as exc:
        errs.add("constants", str(exc))
        errs.raise_if_any()

    topo = doc.get("topology")
    if not isinstance(topo, dict):
        errs.add("topology", "missing topology block")
        errs.raise_if_any()
    kind = topo.get("kind", "junction")
    specs, profiles, control = [], [], None
    if kind == "junction":
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

    run = _parse_run(doc.get("run"), "run", errs)
    errs.raise_if_any()

    scenario = Scenario(g, kind, specs, profiles, control, run, raw=doc)
    _validate_solver_invariants(scenario, errs)
    errs.raise_if_any()
    return scenario


def _validate_solver_invariants(sc: Scenario, errs):
    g = sc.constants
    traces = sc.trace_states()
    regimes = []
    for spec, st, k in zip(sc.specs, traces, range(len(traces))):
        regime = classify_subsonic(st, g)
        if regime is FlowRegime.NOT_SUBSONIC:
            errs.add(f"topology.pipes[{k}].initial" if sc.kind == "junction"
                     else f"topology.{'inlet' if k == 0 else 'outlet'}.initial",
                     "state must be strictly subsonic with nonzero velocity")
        regimes.append(regime)
    if any(r is FlowRegime.NOT_SUBSONIC for r in regimes):
        return
    if sc.kind == "junction":
        n_in = sum(1 for r in regimes if r is FlowRegime.D_MINUS)
        if not 0 < n_in < len(regimes):
            errs.add("topology.pipes",
                     "need at least one incoming and one outgoing pipe "
                     "(N > dim(I_i) > 0)")
    else:
        if regimes[0] is not FlowRegime.D_MINUS:
            errs.add("topology.inlet.initial", "inlet flow must run toward the compressor")
        if len(regimes) > 1 and regimes[1] is not FlowRegime.D_PLUS:
            errs.add("topology.outlet.initial", "outlet flow must run away from the compressor")
        if len(sc.specs) == 2 and sc.specs[0].area != sc.specs[1].area:
            errs.add("topology.outlet.area", "compressor pipes must have equal areas")
        for k, prof in enumerate(sc.profiles):
            if not isinstance(prof, PipeState) and sc.run.mode == "riemann":
                errs.add("run.mode", "riemann mode needs constant initial states")
    if sc.kind == "junction" and sc.run.mode == "riemann":
        for k, prof in enumerate(sc.profiles):
            if not isinstance(prof, PipeState):
                errs.add(f"topology.pipes[{k}].initial",
                         "riemann mode needs constant initial states")


def normalized_document(sc: Scenario) -> dict:
    """Canonical dict form of a scenario (stable field order and types)."""
    doc = {"constants": {"gamma": sc.constants.gamma, "R": sc.constants.R,
                         "s0": sc.constants.s0}}

    def state_doc(st):
        from .thermo import pressure as _p

        if st.model is Model.M1:
            return {"rho": st.rho, "u": st.u, "p": _p(st, sc.constants)}
        return {"rho": st.rho, "u": st.u, "kappa": st.kappa}

    def profile_doc(prof):
        if isinstance(prof, PipeState):
            return state_doc(prof)
        return {"pieces": [dict(x_right=x, **state_doc(st)) for x, st in prof]}

    if sc.kind == "junction":
        doc["topology"] = {"kind": "junction", "pipes": [
            dict(id=s.id, area=s.area, model=s.model.value,
                 initial=profile_doc(p))
            for s, p in zip(sc.specs, sc.profiles)]}
    else:
        control = {"kind": sc.control.kind}
        if sc.control.kind == ADIABATIC_HEAD:
            control["h_star"] = sc.control.value
        else:
            control["p_star"] = sc.control.value
            control["cp_coeff"] = sc.control.cp_coeff
        doc["topology"] = {
            "kind": "compressor",
            "inlet": dict(id=sc.specs[0].id, area=sc.specs[0].area,
                          model=sc.specs[0].model.value,
                          initial=profile_doc(sc.profiles[0])),
            "outlet": dict(id=sc.specs[1].id, area=sc.specs[1].area,
                           model=sc.specs[1].model.value,
                           initial=profile_doc(sc.profiles[1])),
            "control": control,
        }
    run = {"mode": sc.run.mode, "horizon": sc.run.horizon,
           "epsilon": sc.run.epsilon, "tol": sc.run.tol,
           "snapshots": sc.run.snapshots,
           "grid": {"points": sc.run.grid_points}}
    if sc.run.grid_length is not None:
        run["grid"]["length"] = sc.run.grid_length
    if sc.run.sample_times is not None:
        run["sample_times"] = sc.run.sample_times
    if sc.run.epsilon_ladder is not None:
        run["epsilon_ladder"] = sc.run.epsilon_ladder
    if sc.run.tv_bound is not None:
        run["tv_bound"] = sc.run.tv_bound
    if isinstance(sc.run.source, FrictionSource):
        run["source"] = {"kind": "friction", "lambda_f": sc.run.source.lambda_f,
                         "diameter": sc.run.source.diameter}
    else:
        run["source"] = {"kind": "none"}
    run["max_events"] = sc.run.max_events
    doc["run"] = run
    return doc


def serialize_scenario(sc: Scenario) -> str:
    return yaml.safe_dump(normalized_document(sc), sort_keys=False)


# -- execution ---------------------------------------------------------------


@dataclass
class RunResult:
    records: list
    summary: dict


def _grid(sc: Scenario):
    length = sc.run.grid_length
    if length is None:
        length = 1.0
    n = sc.run.grid_points
    return [length * (k + 0.5) / n for k in range(n)]


def _run_riemann(sc: Scenario) -> RunResult:
    g = sc.constants
    data = sc.trace_states()
    problem, sol = solve_coupling(sc.specs, data, g, sc.control, tol=sc.run.tol)
    patterns = []
    for i, spec in enumerate(sc.specs):
        tau = sol.tau[i] if sol.tau[i] is not None else 0.0
        role = role_of(spec.model, data[i].u > 0.0)
        waves, trace = coupling_wave_pattern(role, data[i], sol.sigma[i], tau, g)
        patterns.append((waves, trace))

    xs = _grid(sc)
    times = sc.run.sample_times or [sc.run.horizon]
    fields = FieldMemo(g)
    records = []
    for t in times:
        pipes = {}
        traces = {}
        for i, spec in enumerate(sc.specs):
            waves, trace = patterns[i]
            states = sample_waves(waves, trace, data[i], [x / t for x in xs], g)
            pipes[spec.id] = {"x": xs, "states": list(map(fields, states))}
            traces[spec.id] = fields(trace)
        diag = {"residual_norm": sol.residual_norm, "iterations": sol.iterations}
        records.append(snapshot_record(t, pipes, traces, diag))

    summary = {
        "mode": "riemann",
        "kind": sc.kind,
        "converged": True,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "sigma": {s.id: sol.sigma[i] for i, s in enumerate(sc.specs)},
        "tau": {s.id: sol.tau[i] for i, s in enumerate(sc.specs)
                if sol.tau[i] is not None},
        "s_star": sol.s_star,
    }
    if sc.kind == "junction":
        diag = verify_coupling(sol, problem)
        summary["h_star"] = sol.h_star
        summary["max_residuals"] = {
            "mass": diag.mass_residual,
            "enthalpy_spread": diag.max_enthalpy_spread,
            "entropy": diag.max_entropy_residual,
        }
    else:
        summary["pressure_ratio"] = sol.extras["pressure_ratio"]
        summary["head"] = sol.extras["head"]
        summary["control_residual"] = sol.residual_norm
        if "power" in sol.extras:
            summary["power"] = sol.extras["power"]
        if sol.extras.get("idle_control"):
            summary["warnings"] = ["idle control value 0: uniqueness outside "
                                   "the guaranteed neighborhood"]
    return RunResult(records, summary)


def trace_residuals(state, specs, g: GasConstants, control=None):
    """Coupling residuals recomputed directly from the current traces."""
    traces = state.traces()
    mass = sum(s.area * tr.q for s, tr in zip(specs, traces))
    mass_scale = sum(s.area * tr.rho * thermo_quantities(tr, g).c
                     for s, tr in zip(specs, traces))
    out = {"mass": abs(mass) / mass_scale}
    if control is None:
        hs = [thermo_quantities(tr, g).h for tr in traces]
        out["enthalpy_spread"] = (max(hs) - min(hs)) / max(abs(h) for h in hs)
        incoming = [(s, tr) for s, tr in zip(specs, traces) if tr.u < 0]
        den = sum(s.area * tr.q for s, tr in incoming)
        if den != 0.0:
            s_star = sum(s.area * tr.q * thermo_quantities(tr, g).s
                         for s, tr in incoming) / den
            ent = 0.0
            for s, tr in zip(specs, traces):
                if tr.u > 0 and tr.model is Model.M1:
                    ent = max(ent, abs(thermo_quantities(tr, g).s - s_star))
            out["entropy"] = ent / (g.gamma * g.cv)
    return out


def _simulate_once(sc: Scenario):
    """One tracked run with a snapshot record every horizon / snapshots;
    with a friction source the run is operator-split between snapshots."""
    g = sc.constants
    state = init_approximation(sc.specs, sc.profiles, g, sc.run.epsilon,
                               control=sc.control, tv_bound=sc.run.tv_bound,
                               tol=sc.run.tol, max_events=sc.run.max_events)
    if sc.run.source is not None:
        dx = (sc.run.grid_length or 1.0) / sc.run.grid_points
        dt_split = default_split_step(state, dx)
    horizon = sc.run.horizon
    xs = _grid(sc)
    # the last record is at the horizon itself, where ladder members stop
    times = [horizon * k / sc.run.snapshots for k in range(1, sc.run.snapshots)] + [horizon]
    fields = FieldMemo(g)
    records = []
    for t in times:
        if sc.run.source is None:
            state.run(t)
        else:
            operator_split_run(state, sc.run.source, t, dt_split)
        glimm = state.glimm()
        pipes = {}
        traces = {}
        for spec, track in zip(sc.specs, state.pipes):
            pos = [f.at(state.time) for f in track.fronts]
            pipes[spec.id] = {"x": xs, "states": list(map(fields, track.states_at(xs, pos)))}
            traces[spec.id] = fields(track.trace)
        diag = {"V": glimm.V, "Q": glimm.Q, "Y": glimm.Y, "TV": glimm.TV,
                "front_count": glimm.front_count, "events": state.events}
        diag.update(trace_residuals(state, sc.specs, g, sc.control))
        records.append(snapshot_record(t, pipes, traces, diag))
    return state, records


def _run_simulate(sc: Scenario) -> RunResult:
    g = sc.constants
    state, records = _simulate_once(sc)
    state.finalize_segments()
    glimm = state.glimm()
    ratios = [r.v_plus / r.v_minus for r in state.interactions
              if r.kind in ("junction", "reflection") and r.v_minus > 0]
    test_funcs = bump_test_functions((sc.run.grid_length or 1.0), sc.run.horizon)
    summary = {
        "mode": "simulate",
        "kind": sc.kind,
        "converged": True,
        "epsilon": sc.run.epsilon,
        "horizon": sc.run.horizon,
        "events": state.events,
        "interactions": len(state.interactions),
        "front_count": glimm.front_count,
        "K_J": state.K_J,
        "K_hat_J": state.K_hat_J,
        "max_junction_amplification": max(ratios) if ratios else 0.0,
        "final": {"V": glimm.V, "Q": glimm.Q, "Y": glimm.Y, "TV": glimm.TV},
        "max_residuals": trace_residuals(state, sc.specs, g, sc.control),
        "weak_form_residual": weak_form_residual(state, test_funcs, sc.run.horizon),
    }
    if sc.run.epsilon_ladder:
        # members only feed the L1 distances: no snapshots; snapshot stops
        # do not change a run, so the simulate run is the member at its epsilon
        finals = [state if eps == sc.run.epsilon else
                  init_approximation(sc.specs, sc.profiles, g, eps, control=sc.control,
                                     tv_bound=sc.run.tv_bound, tol=sc.run.tol,
                                     max_events=sc.run.max_events).run(sc.run.horizon)
                  for eps in sc.run.epsilon_ladder]
        x_max = max(sc.run.grid_length or 1.0,
                    state.lambda_hat * sc.run.horizon)
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
