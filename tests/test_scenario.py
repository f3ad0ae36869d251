"""Scenario parsing, validation paths, execution, and output round trips."""

import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from gasnet import (
    GasConstants,
    Model,
    NotSubsonic,
    ScenarioParseError,
    ScenarioValidationError,
    document,
    iso_state,
    output,
    scenario,
)
from gasnet.compressor import CompressorControl
from gasnet.fronttracking import init_approximation
from gasnet.junction import JunctionProblem, PipeSpec
from gasnet.output import (
    FieldMemo,
    read_json,
    render_json,
    state_fields,
    summary_text,
    write_json,
)
from gasnet.scenario import parse_scenario, run_scenario
from reference import expand_pipes, per_point_csv, render_csv, sample_at

MINIMAL = """
constants: {gamma: 1.4, R: 1.0}
topology:
  kind: junction
  pipes:
    - {id: a, area: 1.0, model: M3, initial: {rho: 1.0, u: -0.3, kappa: 1.0}}
    - {id: b, area: 1.0, model: M3, initial: {rho: 1.0, u: 0.3, kappa: 1.0}}
run:
  mode: riemann
  grid: {points: 4, length: 1.0}
"""

COMPRESSOR = """
constants: {gamma: 1.4, R: 287.0}
topology:
  kind: compressor
  inlet:  {id: lo, area: 1.0, model: M3, initial: {rho: 1.0, u: -80.0, kappa: 90000.0}}
  outlet: {id: hi, area: 1.0, model: M3, initial: {rho: 1.3, u: 61.54, kappa: 90000.0}}
  control: {kind: CP1, h_star: 25000.0}
run: {mode: riemann, grid: {points: 4, length: 1.0}}
"""


def test_minimal_document_parses():
    sc = parse_scenario(MINIMAL)
    assert sc.kind == "junction"
    assert [s.id for s in sc.specs] == ["a", "b"]
    assert sc.run.mode == "riemann"


def test_malformed_yaml_raises_parse_error():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("topology: [unclosed")
    assert "line" in str(err.value) and "column" in str(err.value)
    with pytest.raises(ScenarioParseError):
        parse_scenario("- just\n- a list\n")


def test_zero_area_reports_field_path():
    doc = MINIMAL.replace("{id: a, area: 1.0", "{id: a, area: 0.0")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any("pipes[0].area" in v for v in err.value.violations)


def test_all_incoming_rejected():
    doc = MINIMAL.replace("u: 0.3", "u: -0.3")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any("N > dim(I_i) > 0" in v for v in err.value.violations)


def test_sonic_state_rejected():
    doc = MINIMAL.replace("u: 0.3", "u: 3.0")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any("subsonic" in v for v in err.value.violations)


@pytest.mark.parametrize("doc, old, new", [
    (MINIMAL, "u: 0.3", "u: 3.0"),
    (MINIMAL, "u: 0.3", "u: -0.3"),
    (COMPRESSOR, "u: -80.0", "u: 80.0"),
    (COMPRESSOR, "u: 61.54", "u: -61.54"),
    (COMPRESSOR, "outlet: {id: hi, area: 1.0", "outlet: {id: hi, area: 2.0"),
], ids=["sonic-pipe", "all-incoming", "inlet-flows-away", "outlet-flows-in", "unequal-areas"])
def test_cross_pipe_violation_is_the_coupling_problems_error(doc, old, new):
    # the validator reports the error JunctionProblem raises on the same
    # data, word for word, once, at topology
    text = doc.replace(old, new)
    assert text != doc
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(text)
    raw = yaml.safe_load(text)
    topo = raw["topology"]
    pipes = topo["pipes"] if topo["kind"] == "junction" else [topo["inlet"], topo["outlet"]]
    data = []
    for p in pipes:
        model, st = Model(p["model"]), p["initial"]
        data.append((PipeSpec(p["id"], float(p["area"]), model),
                     iso_state(model, float(st["rho"]), float(st["u"]), float(st["kappa"]))))
    control = topo.get("control")
    if control is not None:
        control = CompressorControl(control["kind"], float(control["h_star"]))
    with pytest.raises((NotSubsonic, ValueError)) as exc:
        JunctionProblem(data, GasConstants(**raw["constants"]), control)
    assert err.value.violations == [f"topology: {exc.value}"]


# (document, text, its replacement, path of the unknown key)
UNKNOWN_FIELDS = [
    (MINIMAL, "model: M3, initial: {rho: 1.0, u: -0.3, kappa: 1.0}",
     "model: M1, initial: {rho: 1.0, u: -0.3, p: 1.0, kappa: 1.0}",
     "topology.pipes[0].initial.kappa"),
    (MINIMAL, "initial: {rho: 1.0, u: 0.3, kappa: 1.0}",
     "initial: {rho: 1.0, u: 0.3, kappa: 1.0, p: 1.0}", "topology.pipes[1].initial.p"),
    (MINIMAL, "initial: {rho: 1.0, u: 0.3, kappa: 1.0}",
     "initial: {pieces: [{x_right: null, rho: 1.0, u: 0.3, kappa: 1.0}], x_right: 0.5}",
     "topology.pipes[1].initial.x_right"),
    (MINIMAL, "initial: {rho: 1.0, u: 0.3, kappa: 1.0}",
     "initial: {pieces: [{x_right: null, rho: 1.0, u: 0.3, kappa: 1.0, E: 2.0}]}",
     "topology.pipes[1].initial.pieces[0].E"),
    (MINIMAL, "{id: b, area: 1.0,", "{id: b, area: 1.0, diameter: 0.5,",
     "topology.pipes[1].diameter"),
    (MINIMAL, "kind: junction", "kind: junction\n  control: {kind: CP1, h_star: 1.0}",
     "topology.control"),
    (COMPRESSOR, "kind: compressor", "kind: compressor\n  pipes: []", "topology.pipes"),
    (COMPRESSOR, "h_star: 25000.0}", "h_star: 25000.0, cp_coeff: 1.0}",
     "topology.control.cp_coeff"),
    (COMPRESSOR, "{kind: CP1, h_star: 25000.0}", "{kind: CP2, p_star: 1.0, cp_coeff: 1.0, "
     "h_star: 1.0}", "topology.control.h_star"),
    (MINIMAL, "grid:", "source: {kind: none, lambda_f: 0.1}\n  grid:", "run.source.lambda_f"),
    (MINIMAL, "grid:", "source: {kind: friction, lambda_f: 0.1, diameter: 0.5, D: 0.5}\n  grid:",
     "run.source.D"),
    (MINIMAL, "constants: {gamma: 1.4, R: 1.0}", "constants: {gamma: 1.4, R: 1.0, cv: 2.5}",
     "constants.cv"),
    (MINIMAL, "run:", "runs: {}\nrun:", "runs"),
]


@pytest.mark.parametrize("doc, old, new, path", UNKNOWN_FIELDS,
                         ids=["M1-state", "M3-state", "profile", "piece", "pipe",
                              "junction-topology", "compressor-topology", "CP1-control",
                              "CP2-control", "none-source", "friction-source", "constants",
                              "top-level"])
def test_unknown_field_in_each_block(doc, old, new, path):
    # a key that its block, of its kind, does not read is one violation
    text = doc.replace(old, new, 1)
    assert text != doc
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(text)
    assert err.value.violations == [f"{path}: unknown field"]


def test_violations_are_aggregated():
    doc = MINIMAL.replace("area: 1.0, model: M3", "area: -1.0, model: M9")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert len(err.value.violations) >= 3


B_INITIAL = "initial: {rho: 1.0, u: 0.3, kappa: 1.0}"


# (document, text, its replacement, the one violation it makes)
VIOLATIONS = [
    (MINIMAL, B_INITIAL, "initial: {pieces: []}",
     "topology.pipes[1].initial.pieces: must be a non-empty list"),
    (MINIMAL, B_INITIAL, "initial: {pieces: 3}",
     "topology.pipes[1].initial.pieces: must be a non-empty list"),
    (MINIMAL, B_INITIAL, "initial: {pieces: [3]}",
     "topology.pipes[1].initial.pieces[0]: must be a mapping"),
    (MINIMAL, B_INITIAL, "initial: {pieces: [{x_right: 0.5, rho: 1.0, u: 0.3, kappa: 1.0}]}",
     "topology.pipes[1].initial.pieces[0].x_right: last piece must have x_right: null"),
    (MINIMAL, "{id: a, ", "{", "topology.pipes[0].id: missing or empty pipe id"),
    (MINIMAL, "{id: a, ", "{id: '', ", "topology.pipes[0].id: missing or empty pipe id"),
    (MINIMAL, ", initial: {rho: 1.0, u: -0.3, kappa: 1.0}}", "}",
     "topology.pipes[0].initial: missing initial state"),
    (MINIMAL, "mode: riemann", "mode: sideways",
     "run.mode: must be riemann or simulate, got 'sideways'"),
    (MINIMAL, "mode: riemann", "mode: []", "run.mode: must be riemann or simulate, got []"),
    (MINIMAL, "mode: riemann", "mode: {}", "run.mode: must be riemann or simulate, got {}"),
    (MINIMAL, "mode: riemann", "mode: [riemann]",
     "run.mode: must be riemann or simulate, got ['riemann']"),
    (MINIMAL, "mode: riemann",
     "mode: simulate\n  source: {kind: friction, lambda_f: -1.0, diameter: 0.1}",
     "run.source.lambda_f: must be >= 0"),
    (MINIMAL, "gamma: 1.4", "gamma: 1.0", "constants: gamma must exceed 1, got 1.0"),
    (MINIMAL, "- {id: a,", "# - {id: a,",
     "topology.pipes: a junction needs a list of at least two pipes"),
    (COMPRESSOR, "  inlet:", "  # inlet:", "topology.inlet: missing pipe"),
    (COMPRESSOR, "  outlet:", "  # outlet:", "topology.outlet: missing pipe"),
    (MINIMAL, "kind: junction", "kind: ring",
     "topology.kind: must be junction or compressor, got 'ring'"),
]


@pytest.mark.parametrize("doc, old, new, violation", VIOLATIONS,
                         ids=["empty-pieces", "pieces-not-a-list", "piece-not-a-mapping",
                              "last-x_right", "no-id", "empty-id", "no-initial", "mode",
                              "mode-list", "mode-mapping", "mode-in-a-list",
                              "negative-lambda_f", "gamma", "one-pipe", "no-inlet",
                              "no-outlet", "topology-kind"])
def test_each_violation_names_its_path(doc, old, new, violation):
    assert doc.count(old) == 1
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc.replace(old, new))
    assert err.value.violations == [violation]


@pytest.mark.parametrize("value, shown", [("[]", "[]"), ("{}", "{}"), ("bogus", "'bogus'")])
def test_a_replaced_mode_is_still_checked(value, shown):
    # a mode given in place of the document's does not hide an invalid one
    doc = MINIMAL.replace("mode: riemann", f"mode: {value}")
    for mode in ("riemann", "simulate"):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc, mode=mode)
        assert err.value.violations == [f"run.mode: must be riemann or simulate, got {shown}"]


@pytest.mark.parametrize("mode, line", [
    ("riemann", "epsilon_ladder: [0.1]"),
    ("riemann", "tv_bound: 1.0e-12"),
    ("riemann", "snapshots: 3"),
    ("riemann", "source: {kind: friction, lambda_f: 100.0, diameter: 0.01}"),
    ("riemann", "max_events: 10"),
    ("simulate", "sample_times: [0.5]"),
], ids=["epsilon_ladder", "tv_bound", "snapshots", "source", "max_events", "sample_times"])
def test_run_key_the_mode_never_reads_is_a_violation(mode, line):
    # riemann mode runs no tracker and simulate mode samples at its
    # snapshots, so each of these keys would be ignored without a word
    key = line.split(":")[0]
    doc = MINIMAL.replace("mode: riemann", f"mode: {mode}\n  {line}")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert err.value.violations == [f"run.{key}: {mode} mode never reads it"]
    # run in the other mode, a document keeps the keys of its own mode
    other = "simulate" if mode == "riemann" else "riemann"
    assert parse_scenario(doc, mode=other).run.mode == other


@pytest.mark.parametrize("field, value", [
    ("snapshots", "true"),
    ("max_events", "true"),
    ("sample_times", "[0.5, true]"),
    ("epsilon_ladder", "[true]"),
    ("snapshots", "0"),
    ("grid.points", "1"),
    ("max_events", "0"),
    ("sample_times", "[]"),
    ("epsilon_ladder", "[]"),
])
def test_booleans_rejected_in_integer_and_number_list_fields(field, value):
    # YAML booleans load as bool, a subclass of int: true would read as 1;
    # the integer fields also reject values below their minimum, and the
    # list fields an empty list, which would sample at the default horizon
    # or drop the ladder.  Only simulate mode reads epsilon_ladder, so it
    # is checked there: in riemann mode it is refused as never read.
    mode = "simulate" if field == "epsilon_ladder" else "riemann"
    if field == "grid.points":
        doc = MINIMAL.replace("points: 4", f"points: {value}")
    else:
        doc = MINIMAL.replace("mode: riemann", f"mode: {mode}\n  {field}: {value}")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any(v.startswith(f"run.{field}:") for v in err.value.violations)
    if value == "[]":
        assert err.value.violations == [
            f"run.{field}: must be a non-empty list of finite positive numbers"]


PIECEWISE = MINIMAL.replace(
    "{rho: 1.0, u: -0.3, kappa: 1.0}",
    "{pieces: [{x_right: 0.5, rho: 1.0, u: -0.3, kappa: 1.0},"
    " {x_right: null, rho: 1.02, u: -0.3, kappa: 1.0}]}").replace("riemann", "simulate")


# an integer beyond the float range has no finite float value
@pytest.mark.parametrize("value", [".inf", ".nan", pytest.param("1" + "0" * 400, id="1e400")])
@pytest.mark.parametrize("path, old, new", [
    ("run.sample_times", "mode: simulate", "mode: simulate\n  sample_times: [{}]"),
    ("run.epsilon_ladder", "mode: simulate", "mode: simulate\n  epsilon_ladder: [{}, 0.05]"),
    ("topology.pipes[0].initial.pieces[0].x_right", "x_right: 0.5", "x_right: {}"),
    ("run.horizon", "mode: simulate", "mode: simulate\n  horizon: {}"),
    ("topology.pipes[0].area", "a, area: 1.0", "a, area: {}"),
], ids=["sample_times", "epsilon_ladder", "x_right", "horizon", "area"])
def test_non_finite_values_rejected(path, old, new, value):
    doc = PIECEWISE.replace(old, new.format(value))
    assert doc != PIECEWISE
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any(v.startswith(f"{path}:") for v in err.value.violations)


def test_duplicate_pipe_ids_rejected():
    doc = MINIMAL.replace("id: b", "id: a")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any("more than once" in v for v in err.value.violations)


def test_m1_state_takes_p_not_kappa():
    doc = MINIMAL.replace("model: M3, initial: {rho: 1.0, u: -0.3, kappa: 1.0}",
                          "model: M1, initial: {rho: 1.0, u: -0.3, kappa: 1.0}")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any(".p" in v for v in err.value.violations)


@pytest.mark.parametrize("control, violation", [
    ("{kind: CP1, h_star: abc}", "topology.control.h_star: must be a finite number, got 'abc'"),
    ("{kind: CP1, h_star: -1.0}", "topology.control: control value must be non-negative"),
    ("{kind: CP2, p_star: 1.0, cp_coeff: 0}",
     "topology.control: power control needs a positive cp_coeff"),
    ("{kind: CP2, cp_coeff: 1.0}", "topology.control.p_star: missing required field"),
    ("{kind: CP3, h_star: 1.0}", "topology.control.kind: must be CP1 or CP2, got 'CP3'"),
], ids=["h_star-not-a-number", "h_star-negative", "cp_coeff-zero", "p_star-missing",
        "unknown-kind"])
def test_control_violations(control, violation):
    # each bad control gives exactly one violation
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(COMPRESSOR.replace("{kind: CP1, h_star: 25000.0}", control))
    assert err.value.violations == [violation]


def test_riemann_run_and_outputs():
    sc = parse_scenario(MINIMAL)
    res = run_scenario(sc)
    assert "converged" not in res.summary
    assert res.summary["max_residuals"]["mass"] <= 1e-10
    csv_text = render_csv(res.records)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("t,pipe,x,rho,q,E,p,u,s,h,c")
    assert len(lines) == 1 + len(res.records) * 2 * 4   # 2 pipes x 4 points
    # json round trip
    json_text = render_json(res.records, res.summary)
    records, summary = read_json(io.StringIO(json_text))
    assert records == res.records or _records_equal(records, res.records)
    assert "converged" not in summary


def _records_equal(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_deterministic_outputs():
    sc1 = parse_scenario(MINIMAL)
    sc2 = parse_scenario(MINIMAL)
    r1 = run_scenario(sc1)
    r2 = run_scenario(sc2)
    assert render_csv(r1.records) == render_csv(r2.records)
    assert render_json(r1.records) == render_json(r2.records)


def test_empty_record_stream_gives_header_only():
    assert render_csv([]) == "t,pipe,x,rho,q,E,p,u,s,h,c\n"


def test_compressor_scenario_runs():
    sc = parse_scenario(COMPRESSOR)
    res = run_scenario(sc)
    assert res.summary["kind"] == "compressor"
    assert "pressure_ratio" in res.summary
    assert "head" in res.summary
    assert "converged" not in res.summary
    assert res.summary["max_residuals"]["mass"] <= 1e-10
    assert res.summary["max_residuals"]["control"] <= 1e-8


def _two_pipe_document(kind, m_in, m_out, mode):
    def state(model, rho, u):
        eos = f"p: {rho ** 1.4!r}" if model == "M1" else "kappa: 1.0"
        return f"{{rho: {rho!r}, u: {u!r}, {eos}}}"

    pipe_in = f"{{id: a, area: 1.0, model: {m_in}, initial: {state(m_in, 1.0, -0.3)}}}"
    if kind == "junction":
        pipe_out = f"{{id: b, area: 1.0, model: {m_out}, initial: {state(m_out, 1.0, 0.3)}}}"
        topology = f"  kind: junction\n  pipes:\n    - {pipe_in}\n    - {pipe_out}\n"
    else:
        pipe_out = f"{{id: b, area: 1.0, model: {m_out}, initial: {state(m_out, 1.3, 0.23)}}}"
        topology = (f"  kind: compressor\n  inlet: {pipe_in}\n  outlet: {pipe_out}\n"
                    "  control: {kind: CP1, h_star: 0.4}\n")
    run = ("{mode: riemann" if mode == "riemann" else
           "{mode: simulate, horizon: 0.2, epsilon: 0.04, snapshots: 1")
    return (f"constants: {{gamma: 1.4, R: 1.0}}\ntopology:\n{topology}"
            f"run: {run}, grid: {{points: 4, length: 1.0}}}}\n")


@pytest.mark.parametrize("mode", ["riemann", "simulate"])
@pytest.mark.parametrize("kind", ["junction", "compressor"])
@pytest.mark.parametrize("m_in, m_out", [("M1", "M1"), ("M3", "M1"), ("M1", "M2"), ("M2", "M3")])
def test_entropy_residual_only_with_an_outgoing_full_euler_pipe(mode, kind, m_in, m_out):
    # the entropy condition exists only for an outgoing M1 pipe; elsewhere
    # no entropy residual is reported, in the summary or in any record
    res = run_scenario(parse_scenario(_two_pipe_document(kind, m_in, m_out, mode)))
    residuals = res.summary["max_residuals"]
    assert list(residuals)[:2] == ["mass", "enthalpy_spread" if kind == "junction" else "control"]
    assert ("entropy" in residuals) == (m_out == "M1")
    if mode == "simulate":
        for rec in res.records:
            assert ("entropy" in rec["diagnostics"]) == (m_out == "M1")


def test_simulate_mode_with_snapshots():
    doc = MINIMAL.replace("mode: riemann",
                          "mode: simulate\n  horizon: 0.5\n  epsilon: 0.02\n"
                          "  snapshots: 3")
    doc = doc.replace("{rho: 1.0, u: -0.3, kappa: 1.0}",
                      "{pieces: [{x_right: 0.4, rho: 1.0, u: -0.3, kappa: 1.0},"
                      " {x_right: null, rho: 1.02, u: -0.3, kappa: 1.0}]}")
    sc = parse_scenario(doc)
    res = run_scenario(sc)
    assert len(res.records) == 3
    assert res.summary["mode"] == "simulate"
    for rec in res.records:
        assert rec["diagnostics"]["mass"] <= 1e-9
        assert "V" in rec["diagnostics"]
    assert res.summary["events"] > 0
    # one interaction record per event, counted by kind, zeros included
    counts = res.summary["interactions"]
    assert list(counts) == ["collision", "junction", "reflection"]
    assert sum(counts.values()) == res.summary["events"]


def test_simulate_honours_run_tol(monkeypatch):
    # every coupling solve of a tracked run uses run.tol, not the default
    import gasnet.fronttracking as ft

    seen = []
    solve = ft.solve_junction

    def spy(problem, **kwargs):
        seen.append(kwargs.get("tol"))
        return solve(problem, **kwargs)

    monkeypatch.setattr(ft, "solve_junction", spy)
    doc = MINIMAL.replace("mode: riemann",
                          "mode: simulate\n  horizon: 0.5\n  epsilon: 0.02\n"
                          "  snapshots: 2\n  tol: 1.0e-13")
    doc = doc.replace("{rho: 1.0, u: -0.3, kappa: 1.0}",
                      "{pieces: [{x_right: 0.4, rho: 1.0, u: -0.3, kappa: 1.0},"
                      " {x_right: null, rho: 1.02, u: -0.3, kappa: 1.0}]}")
    sc = parse_scenario(doc)
    assert sc.run.tol == 1e-13
    run_scenario(sc)
    assert len(seen) > 1 and set(seen) == {1e-13}


# the two-pipe document with a ladder around its own epsilon
LADDER_MINIMAL = MINIMAL.replace(
    "mode: riemann", "mode: simulate\n  horizon: 0.4\n  epsilon: 0.02\n"
    "  epsilon_ladder: [0.04, 0.02, 0.01]\n  snapshots: 2").replace(
    "{rho: 1.0, u: 0.3, kappa: 1.0}",
    "{pieces: [{x_right: 0.3, rho: 1.0, u: 0.3, kappa: 1.0},"
    " {x_right: null, rho: 0.9, u: 0.3, kappa: 1.0}]}")


def _ladder_tracking():
    """The shipped tracking document, with strong jumps in feed and west,
    to horizon 1 with a ladder around epsilon 0.02."""
    doc = (Path(__file__).parents[1] / "scenarios" / "y_junction_tracking.yaml").read_text()
    for old, new in (("horizon: 3.0", "horizon: 1.0"),
                     ("epsilon: 0.005", "epsilon: 0.02\n  epsilon_ladder: [0.04, 0.02, 0.01]"),
                     ("rho: 0.6511749095767044", "rho: 0.58"),
                     ("rho: 0.6797182229652565", "rho: 0.62")):
        doc = doc.replace(old, new)
    return doc


LADDER_TRACKING = _ladder_tracking()


def test_epsilon_ladder_summary():
    sc = parse_scenario(LADDER_MINIMAL)
    res = run_scenario(sc)
    assert len(res.summary["l1_distances"]) == 2
    assert all(d >= 0 for d in res.summary["l1_distances"])


def test_epsilon_ladder_reuses_simulate_run():
    # the simulate run, stopped at every snapshot, stands in for the ladder
    # member at its epsilon: the distances equal those of fresh members.
    # Four more strong jumps on pipe east give the run over 200 events.
    from gasnet.fronttracking import init_approximation, l1_distance

    flow = "u: 0.27386127875258304, kappa: 1.0"
    east = f"          - {{x_right: null, rho: 0.6799222812729615, {flow}}}\n"
    pieces = "".join(f"          - {{x_right: {x}, rho: {rho}, {flow}}}\n"
                     for x, rho in ((0.7, 0.62), (0.85, 0.68), (1.0, 0.62), ("null", 0.68)))
    assert east in LADDER_TRACKING
    sc = parse_scenario(LADDER_TRACKING.replace(east, pieces))
    res = run_scenario(sc)
    assert len(res.records) == 6 and res.summary["events"] > 200
    finals = [init_approximation(sc.specs, sc.profiles, sc.constants, eps).run(1.0)
              for eps in sc.run.epsilon_ladder]
    x_max = max(4.0, finals[0].lambda_hat)
    dists = [l1_distance(a, b, x_max) for a, b in zip(finals, finals[1:])]
    assert min(dists) > 0.0
    assert res.summary["l1_distances"] == dists


def test_piecewise_edges_must_increase():
    doc = MINIMAL.replace("{rho: 1.0, u: -0.3, kappa: 1.0}",
                          "{pieces: [{x_right: 0.5, rho: 1.0, u: -0.3, kappa: 1.0},"
                          " {x_right: 0.4, rho: 1.0, u: -0.3, kappa: 1.0},"
                          " {x_right: null, rho: 1.0, u: -0.3, kappa: 1.0}]}")
    with pytest.raises(ScenarioValidationError):
        parse_scenario(doc)


def test_friction_source_parsed():
    doc = MINIMAL.replace("mode: riemann", "mode: simulate").replace(
        "run:", "run:\n  source: {kind: friction, lambda_f: 0.02, diameter: 0.5}")
    sc = parse_scenario(doc)
    from gasnet.fronttracking import FrictionSource

    assert isinstance(sc.run.source, FrictionSource)
    assert sc.run.source.lambda_f == 0.02


# the perturbed two-pipe M2 passthrough of the splitting tests, as a document
FRICTION = """
constants: {gamma: 1.4, R: 1.0}
topology:
  kind: junction
  pipes:
    - id: a
      area: 1.0
      model: M2
      initial:
        pieces:
          - {x_right: 0.4, rho: 1.0, u: -0.35496478698597694, kappa: 1.0}
          - {x_right: null, rho: 1.03, u: -0.35496478698597694, kappa: 1.0}
    - id: b
      area: 1.0
      model: M2
      initial:
        pieces:
          - {x_right: 0.6, rho: 1.0, u: 0.35496478698597694, kappa: 1.0}
          - {x_right: null, rho: 0.97, u: 0.35496478698597694, kappa: 1.0}
run:
  mode: simulate
  horizon: 0.5
  epsilon: 0.02
  snapshots: 3
  grid: {points: 2, length: 1.0}
  source: {kind: friction, lambda_f: 0.02, diameter: 0.5}
"""


def test_simulate_mode_with_friction_source():
    res = run_scenario(parse_scenario(FRICTION))
    assert len(res.records) == 3
    events = [rec["diagnostics"]["events"] for rec in res.records]
    assert events == sorted(events)
    assert events[-1] == res.summary["events"] > 0
    for rec in res.records:
        assert rec["diagnostics"]["mass"] <= 1e-9
        assert rec["diagnostics"]["enthalpy_spread"] <= 1e-8
    # the source steps absorb the weak fronts: the live non-physical strength
    # stays O(epsilon), and the L1 change the absorption made O(epsilon**2)
    eps = res.summary["epsilon"]
    np_strength = [rec["diagnostics"]["np_strength"] for rec in res.records]
    assert max(np_strength) <= 0.1 * eps
    assert res.summary["final"]["np_strength"] == np_strength[-1]
    absorbed = [rec["diagnostics"]["np_absorbed"] for rec in res.records]
    assert absorbed == sorted(absorbed)
    assert 0.0 < res.summary["final"]["np_absorbed"] == absorbed[-1] <= eps ** 2


# the friction document to horizon 1.0 with a ladder from 0.04 to 0.005
LADDER_FRICTION = FRICTION.replace("horizon: 0.5", "horizon: 1.0").replace(
    "length: 1.0", "length: 2.0").replace(
    "epsilon: 0.02", "epsilon: 0.02\n  epsilon_ladder: [0.04, 0.02, 0.01, 0.005]")


def test_epsilon_ladder_with_friction_source():
    # ladder members are operator-split as the simulate run is, and their
    # friction L1 distances fall strictly from epsilon 0.04 to 0.005; to
    # horizon 1.0, since at 0.5 the coarsest distance is below the next
    # one, under the rule that kept weak fronts as non-physical ones too
    sc = parse_scenario(LADDER_FRICTION)
    res = run_scenario(sc)
    d = res.summary["l1_distances"]
    assert len(d) == 3 and d[-1] > 0.0
    assert all(b < a for a, b in zip(d, d[1:])), d
    # the simulate run stands in for the member at its epsilon: fresh
    # members split at the same step and stopped at the snapshot times
    from gasnet.fronttracking import (
        default_split_step,
        init_approximation,
        l1_distance,
        operator_split_run,
    )

    finals = []
    for eps in sc.run.epsilon_ladder:
        state = init_approximation(sc.specs, sc.profiles, sc.constants, eps)
        dt_split = default_split_step(state, 2.0 / 2)   # grid length / points
        for t in (1.0 / 3, 2.0 / 3, 1.0):
            operator_split_run(state, sc.run.source, t, dt_split)
        finals.append(state)
    x_max = max(2.0, finals[0].lambda_hat)
    assert d == [l1_distance(a, b, x_max) for a, b in zip(finals, finals[1:])]


LADDERS = {"LADDER_MINIMAL": LADDER_MINIMAL, "LADDER_TRACKING": LADDER_TRACKING,
           "LADDER_FRICTION": LADDER_FRICTION}


def _tracked_runs(monkeypatch):
    """(kwargs, state) of every run that run_scenario builds from here on,
    in order, and the number of K_J estimates made meanwhile."""
    from gasnet.fronttracking import FrontTrackingState

    runs, estimates = [], []
    estimate = FrontTrackingState._estimate_kj

    def spy_init(*args, **kwargs):
        state = init_approximation(*args, **kwargs)
        runs.append((kwargs, state))
        return state

    def spy_estimate(self, traces):
        estimates.append(self.epsilon)
        return estimate(self, traces)

    monkeypatch.setattr(scenario, "init_approximation", spy_init)
    monkeypatch.setattr(FrontTrackingState, "_estimate_kj", spy_estimate)
    return runs, estimates


def _fronts(state):
    return [[(f.family, f.kind, f.speed, f.strength, f.born_x, f.born_t, f.left, f.right)
             for f in track.fronts] for track in state.pipes]


@pytest.mark.parametrize("name", list(LADDERS))
def test_ladder_members_match_fresh_runs(name, monkeypatch):
    # a member takes the run's K_J and keeps no segments, and is otherwise
    # the run a fresh init_approximation makes at its epsilon: the same
    # events, interaction records and live fronts
    from gasnet.fronttracking import default_split_step, operator_split_run

    sc = parse_scenario(LADDERS[name])
    runs, estimates = _tracked_runs(monkeypatch)
    run_scenario(sc)
    main = runs[0][1]
    assert estimates == [sc.run.epsilon]
    members = runs[1:]
    assert [m.epsilon for _, m in members] == [
        eps for eps in sc.run.epsilon_ladder if eps != sc.run.epsilon]
    for kwargs, member in members:
        assert kwargs["ladder_of"] is main
        fresh = init_approximation(sc.specs, sc.profiles, sc.constants, member.epsilon,
                                   control=sc.control, tol=sc.run.tol,
                                   max_events=sc.run.max_events)
        if sc.run.source is None:
            fresh.run(sc.run.horizon)
        else:
            dt_split = default_split_step(fresh, sc.run.grid_length / sc.run.grid_points)
            for t in scenario._stops(sc):
                operator_split_run(fresh, sc.run.source, t, dt_split)
        assert member.time == fresh.time == sc.run.horizon
        assert member.events == fresh.events > 0
        assert member.interactions == fresh.interactions
        assert len(member.interactions) == member.events
        assert _fronts(member) == _fronts(fresh)
        assert member.traces() == fresh.traces()
        assert (member.K_J, member.K_hat_J) == (fresh.K_J, fresh.K_hat_J)
        assert member.np_absorbed == fresh.np_absorbed
        assert member.segments == [] and fresh.segments
    assert main.segments


# The benchmark's seed-3 ladder as full runs: the slices' indicator at
# epsilon 0.04 / 0.02 / 0.01 / 0.005 was 2.78e-3 / 1.51e-3 / 8.0e-4 /
# 4.14e-4, each 0.516-0.542 times the last, and the L1 distances 0.407-
# 0.433 times the indicators of their two members summed (seed 11 gives
# the same).
INDICATOR_HALVING = (0.45, 0.6)
L1_PER_INDICATOR = 0.5


def test_error_indicator_halves_along_the_benchmark_ladder():
    # each epsilon of the ladder as a run of its own, which keeps its
    # segments: the rarefaction slices carry the indicator, which halves
    # with epsilon within INDICATOR_HALVING, and each L1 distance of the
    # ladder run is at most L1_PER_INDICATOR times the indicators of its
    # two members
    sc = parse_scenario(_bench_documents("tracking_ladder", 3)[0])
    indicators = [run_scenario(sc._replace(run=sc.run._replace(
        epsilon=eps, epsilon_ladder=None))).summary["error_indicator"]
        for eps in sc.run.epsilon_ladder]
    assert [list(e) for e in indicators] == [["slices", "nonphysical", "jumps"]] * 4
    slices = [e["slices"] for e in indicators]
    lo, hi = INDICATOR_HALVING
    assert all(lo * a <= b <= hi * a for a, b in zip(slices, slices[1:])), slices
    totals = [sum(e.values()) for e in indicators]
    dists = run_scenario(sc).summary["l1_distances"]
    assert len(dists) == 3
    assert all(d <= L1_PER_INDICATOR * (a + b)
               for d, a, b in zip(dists, totals, totals[1:])), (dists, totals)


def test_tracked_runs_log_one_info_line(monkeypatch, caplog):
    # one INFO line per tracked run, ladder members included, and one with
    # the run's error indicator; the K_J probe
    # whose coupling solve raises is counted as skipped, and a member
    # reports the run's estimate; nothing is logged below INFO
    import logging

    import gasnet.fronttracking as ft
    from gasnet import SubsonicViolation

    calls = []
    solve = ft.solve_junction

    def spy(problem, **kwargs):
        calls.append(None)
        # the first solve sets up the run, the next ones are K_J probes
        if len(calls) == 2:
            raise SubsonicViolation("spy")
        return solve(problem, **kwargs)

    monkeypatch.setattr(ft, "solve_junction", spy)
    sc = parse_scenario(LADDER_MINIMAL)
    runs, _ = _tracked_runs(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gasnet"):
        run_scenario(sc)
    assert caplog.records == []
    runs.clear()
    calls.clear()
    with caplog.at_level(logging.INFO, logger="gasnet"):
        res = run_scenario(sc)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "gasnet" and r.levelno == logging.INFO]
    # the run's error indicator follows the run's own line
    e = res.summary["error_indicator"]
    assert lines.pop(1) == (
        f"error indicator at epsilon {runs[0][1].epsilon:g}: slices {e['slices']:.6g}, "
        f"nonphysical {e['nonphysical']:.6g}, jumps {e['jumps']:.6g}")
    assert len(lines) == len(runs) == 3
    for line, (_, state) in zip(lines, runs):
        counts = {k: sum(r.kind == k for r in state.interactions)
                  for k in ("collision", "junction", "reflection")}
        live = sum(len(t.fronts) for t in state.pipes)
        assert line == (
            f"tracked run at epsilon {state.epsilon:g}: {state.events} events "
            f"({counts['collision']} collision, {counts['junction']} junction, "
            f"{counts['reflection']} reflection), {live} live fronts, "
            f"K_J {state.K_J:.6g} (probes that raised and were skipped: 1)")
    assert runs[0][1].kj_probes_skipped == 1
    assert res.summary["events"] == runs[0][1].events


SHIPPED = sorted((Path(__file__).parents[1] / "scenarios").glob("*.yaml"))
SHIPPED_TRACKING = Path(__file__).parents[1] / "scenarios" / "y_junction_tracking.yaml"
# riemann sampling at several times: records share region states and fields
SAMPLED = MINIMAL.replace("mode: riemann", "mode: riemann\n  sample_times: [0.25, 0.5, 1.0]")
DOCUMENTS = {p.name: p.read_text() for p in SHIPPED}
DOCUMENTS.update(MINIMAL=MINIMAL, COMPRESSOR=COMPRESSOR, FRICTION=FRICTION, SAMPLED=SAMPLED)


# values YAML loads as a list, a mapping, a NaN, an infinity, a null,
# bytes, a date or a sexagesimal integer
_FUZZ_VALUES = ["[]", "{}", "[riemann]", ".nan", "1e400", "null", "{kind: [1]}",
                "!!binary aGk=", "2020-01-01", "1:30"]
_MODE_LINE = DOCUMENTS["y_junction_riemann.yaml"].splitlines().index("  mode: riemann")


def _mutated(text, k, how, other, value):
    """``text`` with its line k (modulo the line count) changed: its value
    replaced by ``value`` (the whole line if it has no colon), deleted, or
    replaced by a copy of line ``other``."""
    lines = text.splitlines()
    k %= len(lines)
    if how == "value":
        key, colon, _ = lines[k].partition(":")
        lines[k] = f"{key}: {value}" if colon else value
    elif how == "delete":
        del lines[k]
    else:
        lines[k] = lines[other % len(lines)]
    return "\n".join(lines) + "\n"


@settings(max_examples=120)
@example("y_junction_riemann.yaml", _MODE_LINE, "value", 0, "[]")
@given(hs.sampled_from([p.name for p in SHIPPED]), hs.integers(0, 99),
       hs.sampled_from(["value", "delete", "repeat"]), hs.integers(0, 99),
       hs.sampled_from(_FUZZ_VALUES))
def test_a_mutated_shipped_scenario_parses_or_is_refused(name, k, how, other, value):
    # parsed as the document declares it and in either mode, a shipped
    # scenario with one line changed is a Scenario or a parse or
    # validation error, never another exception
    text = _mutated(DOCUMENTS[name], k, how, other, value)
    for run in ({}, {"mode": "riemann"}, {"mode": "simulate"}):
        try:
            assert isinstance(parse_scenario(text, **run), scenario.Scenario)
        except (ScenarioParseError, ScenarioValidationError):
            pass


BATCHES = {f"riemann_batch seed {seed}": seed for seed in (3, 11, 71)}


def _bench_documents(workload, seed):
    """The benchmark's documents of one workload and seed, from
    gasbench/inputs.py (standard library only) loaded as a module of its
    own."""
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("_gasbench_inputs",
                                                  root / "gasbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    items, _ = module.generate(workload, seed, root)
    return [text for _, text in items]


def _typed(obj, path=()):
    """``obj`` with every value's type spelled out, so that 1, 1.0 and
    True, which compare equal, do not; a container met again inside
    itself is ``("cycle", k)``, k its depth on the path from the root."""
    if isinstance(obj, (dict, list)):
        if id(obj) in path:
            return ("cycle", path.index(id(obj)))
        path += (id(obj),)
    if isinstance(obj, dict):
        return ("dict", [(_typed(k, path), _typed(v, path)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_typed(v, path) for v in obj])
    return (type(obj).__name__, repr(obj))


@pytest.mark.parametrize("name", list(DOCUMENTS) + list(BATCHES))
def test_parse_matches_pure_python_loader(name):
    texts = (_bench_documents("riemann_batch", BATCHES[name]) if name in BATCHES
             else [DOCUMENTS[name]])
    if name == "riemann_batch seed 3":
        assert len(texts) == 206
    for text in texts:
        assert _typed(document.load_document(text)) == _typed(yaml.safe_load(text))


def _outcome(load, text):
    """``("value", typed value)`` of ``load(text)``, or ``("error", text)``
    of the YAMLError it raises."""
    try:
        return ("value", _typed(load(text)))
    except yaml.YAMLError as exc:
        return ("error", str(exc))


def _assert_loads_as_safe_load(text):
    """``document._load(text)`` is ``yaml.safe_load(text)``, or raises the
    YAMLError safe_load with libyaml raises, word for word (the
    pure-Python loader's marks also quote the line); returns the
    outcome."""
    want = _outcome(lambda t: yaml.load(t, Loader=document._LOADER), text)
    assert _outcome(document._load, text) == want
    if want[0] == "value":
        assert want == _outcome(yaml.safe_load, text)
    return want


# plain scalars of every implicit type the resolver knows, and strings
# that look like them
SCALARS = ["0", "7", "-12", "+3", "017", "0o17", "0x1F", "0b101", "1_000", "190:20:30",
           "1.5", "-0.25", ".5", "6.02e+23", "1.0e-10", "1e3", "1_000.5", "190:20:30.15",
           ".inf", "-.inf", "+.INF", ".nan", ".NaN", "~", "null", "Null",
           "yes", "no", "on", "Off", "true", "FALSE", "y", "n",
           "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5",
           "'1.0'", '"3"', "'yes'", '"~"', "''", "M1", "M3", "riemann", "x_right", "a b"]
# scalars with an explicit tag, each one its constructor builds
TAGGED = ["!!str 1.5", "!!str yes", "!!str ~", "!!str 'q'", "!!int 7", "!!int 0x1F",
          "!!float 7", "!!float -.inf", "!!bool on", "!!null ''", "!!timestamp 2001-12-14",
          "!!binary aGVsbG8="]
KEYS = ["rho", "u", "kappa", "id", "M2", "'q'", "1", "2.5", "yes", "~", "2001-12-14", "<<"]


class _Writer:
    """YAML text of a drawn tree, in document order.  An anchored node
    gets the next name ``aN``.  An alias names the last anchor written,
    an enclosing node's included, so it can close a cycle; in the value
    of a ``<<`` merge key it names the last mapping already written, as a
    merge of a mapping into itself recurses without end."""

    def __init__(self):
        self.anchors = []
        self.maps = []

    def write(self, node, merge=False, pad=None):
        """``node`` in flow style; with ``pad``, what follows a key's colon
        or a sequence dash: the flow text, or a block collection's anchor
        and its items at indentation ``pad``."""
        kind, anchored, flow, body = node
        if kind == "alias":
            names = self.maps if merge else self.anchors
            text = f"*{names[-1]}" if names else "~"
            return text if pad is None else f" {text}\n"
        name = prop = ""
        if anchored:
            name = f"a{len(self.anchors)}"
            self.anchors.append(name)
            prop = f"&{name} "
        block = pad is not None and kind != "scalar" and not flow and body
        if kind == "scalar":
            text = prop + body
        elif block:
            items = [("-", v) for v in body] if kind == "seq" else [(f"{k}:", v) for k, v in body]
            text = (" " + prop).rstrip() + "\n" + "".join(
                pad + lead + self.write(v, merge or lead == "<<:", pad + "  ")
                for lead, v in items)
        elif kind == "seq":
            text = prop + "[" + ", ".join(self.write(v, merge) for v in body) + "]"
        else:
            text = prop + "{" + ", ".join(f"{k}: {self.write(v, merge or k == '<<')}"
                                          for k, v in body) + "}"
        if kind == "map" and name:
            self.maps.append(name)
        return text if pad is None or block else f" {text}\n"


# (kind, anchored, flow style, body): plain and tagged scalars, aliases,
# and nested block and flow collections
trees = hs.recursive(
    hs.tuples(hs.just("scalar"), hs.booleans(), hs.just(True), hs.sampled_from(SCALARS))
    | hs.tuples(hs.just("scalar"), hs.booleans(), hs.just(True), hs.sampled_from(TAGGED))
    | hs.just(("alias", False, True, None)),
    lambda kids: (hs.tuples(hs.just("seq"), hs.booleans(), hs.booleans(),
                            hs.lists(kids, max_size=4))
                  | hs.tuples(hs.just("map"), hs.booleans(), hs.booleans(),
                              hs.lists(hs.tuples(hs.sampled_from(KEYS), kids), max_size=4))),
    max_leaves=24)


@settings(max_examples=300)
@given(trees)
def test_random_yaml_trees_load_as_safe_load(tree):
    _assert_loads_as_safe_load(_Writer().write(tree, pad=""))


# constructs an event-stream builder would leave to yaml.load, and the
# node kinds that safe_load builds besides plain scalars, lists and dicts
FALLBACK = {
    "anchor": MINIMAL.replace("R: 1.0}", "R: &r 1.0}"),
    "alias": MINIMAL.replace("R: 1.0}", "R: &r 1.0, s0: *r}"),
    "explicit tag": MINIMAL.replace("gamma: 1.4", "gamma: !!float 1.4"),
    "merge key": MINIMAL.replace("constants: {gamma: 1.4, R: 1.0}",
                                 "constants: {<<: {gamma: 1.4}, R: 1.0}"),
    "non-scalar key": MINIMAL + "? [1, 2]\n: x\n",
    "second document": MINIMAL + "---\nrun: {mode: simulate}\n",
    "no constructor": MINIMAL + "extra: =\n",
    "set": MINIMAL + "extra: !!set {a, b}\n",
    "omap": MINIMAL + "extra: !!omap [{a: 1}, {b: 2}]\n",
    "pairs": MINIMAL + "extra: !!pairs [{a: 1}, {a: 2}]\n",
    "local tag": MINIMAL + "extra: !local 1\n",
    "sequence tag on a scalar": MINIMAL + "extra: !!seq 1\n",
    "string tag on a sequence": MINIMAL + "extra: !!str [1]\n",
    "= key": MINIMAL + "extra: {=: 1}\n",
    "merge list with an override": MINIMAL.replace(
        "constants: {gamma: 1.4, R: 1.0}",
        "constants: {<<: [{gamma: 1.3}, {gamma: 1.2, R: 2.0, s0: 0.5}], R: 1.0}"),
    "recursive alias": MINIMAL + "extra: &e [1, {e: *e}]\n",
    "undefined alias": MINIMAL + "extra: *nowhere\n",
    "mapping as a key": MINIMAL + "? {a: 1}\n: x\n",
}


@pytest.mark.parametrize("name", FALLBACK)
def test_event_builder_falls_back_to_yaml_load(name):
    text = FALLBACK[name]
    kind, want = _assert_loads_as_safe_load(text)
    if kind == "error":
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert str(err.value) == f"not a well-formed YAML document: {want}"
    else:
        assert _typed(document.load_document(text)) == want


def test_loader_oracle_is_stock_pyyaml():
    # _assert_loads_as_safe_load compares with PyYAML's own class; the
    # parses run on a subclass that replaces resolve alone, reading the
    # implicit-resolver table, which holds no wildcard or path resolvers
    assert document._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert document._TableLoader.__bases__ == (document._LOADER,)
    assert [name for name in vars(document._TableLoader) if not name.startswith("__")] == [
        "resolve"]
    assert None not in document._LOADER.yaml_implicit_resolvers
    assert not document._LOADER.yaml_path_resolvers


# float spellings: plain decimals, which float() reads, and the ones it
# leaves to PyYAML's constructor (underscores, sexagesimal, inf and nan
# words, hexadecimal), and plain scalars that resolve to other types
FLOAT_SPELLINGS = ["1.5", "-0.0", "+.5", "1.5E+3", "1_000.5", "1:30.5", ".inf", "-.Inf",
                   ".NaN", "!!float 1e5", "!!float -0x10", "!!float \u0661\u0662.5", "1e400"]


@pytest.mark.parametrize("spelling", FLOAT_SPELLINGS)
def test_float_spellings_load_as_the_stock_loader(spelling):
    # the value of the stock loader, or its constructor's error word for
    # word inside the ConstructorError that _load raises for a scalar
    text = f"x: {spelling}\ny: [{spelling}]\n"
    try:
        want = ("value", _typed(yaml.load(text, Loader=document._LOADER)))
    except ValueError as exc:
        want = ("error", str(exc))
    try:
        got = ("value", _typed(document._load(text)))
    except yaml.constructor.ConstructorError as exc:
        got = ("error", exc.problem)
    if want[0] == "error":
        scalar = spelling.removeprefix("!!float ")
        want = ("error", f"cannot construct tag:yaml.org,2002:float from {scalar!r}: {want[1]}")
    assert got == want


# the benchmark's documents: riemann_batch's 206, up to 8 pipes, 64 points
# and two sample times, and tracking_ladder's one
BENCH_RENDERED = {f"{workload} seed 3": workload
                  for workload in ("riemann_batch", "tracking_ladder")}


@pytest.mark.parametrize("name", [p.name for p in SHIPPED] + ["SAMPLED", "FRICTION"]
                         + list(BENCH_RENDERED))
def test_render_json_matches_json_dumps(name):
    texts = (_bench_documents(BENCH_RENDERED[name], 3) if name in BENCH_RENDERED
             else [DOCUMENTS[name]])
    for text in texts:
        _assert_renders_as_json_dumps(run_scenario(parse_scenario(text)))


def _assert_renders_as_json_dumps(res):
    # each record holds its grid once and each pipe as [count, fields] runs
    for rec in res.records:
        assert list(rec) == ["time", "x", "pipes", "traces", "diagnostics"]
        assert all(type(run) is list and [type(v) for v in run] == [int, dict]
                   for runs in rec["pipes"].values() for run in runs)
    out = render_json(res.records, res.summary)
    # the whole document byte for byte: one record per line, each the C
    # encoder's text of that record, then the summary indented
    assert out == ('{"records": [\n' + ",\n".join(json.dumps(r) for r in res.records)
                   + '\n],\n"summary": ' + json.dumps(res.summary, indent=1) + "}\n")
    assert render_json(res.records, res.summary) == out
    assert render_csv(res.records) == render_csv(json.loads(out)["records"])


def test_summary_writer_writes_run_summaries_itself(monkeypatch):
    # the summaries of runs hold only what the direct writer writes: it
    # gives json.dumps's bytes without falling back to json.dumps
    summaries = [run_scenario(parse_scenario(DOCUMENTS[name])).summary
                 for name in [p.name for p in SHIPPED] + ["SAMPLED", "FRICTION"]]
    want = [json.dumps(summary, indent=1) for summary in summaries]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [summary_text(summary) for summary in summaries] == want


class _Str(str):
    pass


# JSON-like trees: every type json.dumps writes, with the floats and
# strings it writes as words or escapes; and, less often, trees that also
# hold what the direct summary writer leaves to json.dumps: tuples, a str
# subclass and mappings keyed by other than strings
_JSON_LEAVES = (hs.none() | hs.booleans() | hs.integers(-2**80, 2**80) | hs.floats()
                | hs.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")])
                | hs.text(max_size=6))
_ODD_KEYS = hs.integers(-5, 5) | hs.floats() | hs.booleans() | hs.none()
_plain_trees = hs.recursive(
    _JSON_LEAVES,
    lambda kids: hs.lists(kids, max_size=4) | hs.dictionaries(hs.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=16)
_odd_trees = hs.recursive(
    _JSON_LEAVES | hs.text(max_size=3).map(_Str),
    lambda kids: (hs.lists(kids, max_size=3) | hs.lists(kids, max_size=3).map(tuple)
                  | hs.dictionaries(hs.text(max_size=4), kids, max_size=3)
                  | hs.dictionaries(_ODD_KEYS, kids, max_size=2)),
    max_leaves=12)
json_trees = _plain_trees | _plain_trees | _odd_trees


@settings(max_examples=200)
@given(json_trees)
def test_writers_match_json_dumps_on_random_trees(tree):
    assert summary_text(tree) == json.dumps(tree, indent=1)
    assert output._dumps(tree) == json.dumps(tree)


@pytest.mark.parametrize("name", [p.name for p in SHIPPED] + ["SAMPLED", "FRICTION"]
                         + list(BENCH_RENDERED))
def test_every_encoded_text_is_json_dumps_of_its_object(monkeypatch, name):
    # each distinct grid, field dict, pipe id and key, and each other value
    # of a record, is encoded by the one C encoder as json.dumps has it
    texts = (_bench_documents(BENCH_RENDERED[name], 3)[:40] if name in BENCH_RENDERED
             else [DOCUMENTS[name]])
    seen = []
    encode = output._dumps

    def recording(obj):
        seen.append((obj, encode(obj)))
        return seen[-1][1]

    monkeypatch.setattr(output, "_dumps", recording)
    for text in texts:
        res = run_scenario(parse_scenario(text))
        render_json(res.records, res.summary)
    assert {type(obj) for obj, _ in seen} >= {str, list, dict}
    assert all(got == json.dumps(obj) for obj, got in seen)


def test_render_json_without_the_c_encoder(monkeypatch):
    # where the json module has no C encoder, _dumps is json.dumps itself
    # (its pure-Python encoder), and the rendered bytes do not change
    texts = ([DOCUMENTS[p.name] for p in SHIPPED] + [DOCUMENTS["SAMPLED"]]
             + _bench_documents("riemann_batch", 3)[:40])
    results = [run_scenario(parse_scenario(text)) for text in texts]
    want = [render_json(res.records, res.summary) for res in results]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(output, "_dumps", output._compact_encoder())
    assert output._dumps is json.dumps
    assert [render_json(res.records, res.summary) for res in results] == want


def _record_lines(records):
    """The record lines of ``render_json(records)``, without their commas."""
    return [line.rstrip(",") for line in render_json(records).split("\n")[1:-2]]


def test_render_json_encodes_each_dict_afresh_per_call():
    # the texts of shared dicts live for one call: a field dict changed in
    # place between two calls is written as it is at the second
    res = run_scenario(parse_scenario(SAMPLED))
    shared = res.records[0]["traces"]["a"]
    assert shared is res.records[-1]["traces"]["a"]
    before = _record_lines(res.records)
    shared["rho"] = 0.123456789
    after = _record_lines(res.records)
    assert after == [json.dumps(r) for r in res.records] != before
    assert all('"rho": 0.123456789' in line for line in after)
    # equal dicts that are distinct objects are encoded each as itself:
    # 1 == 1.0 and key order does not count towards equality
    twins = [{"rho": 1, "q": 0.5}, {"rho": 1.0, "q": 0.5}, {"q": 0.5, "rho": 1}]
    assert twins[0] == twins[1] == twins[2]
    rec = {"time": 1.0, "x": [0.5], "pipes": {pid: [[1, d]] for pid, d in zip("abc", twins)},
           "traces": dict(zip("abc", twins)), "diagnostics": {}}
    assert _record_lines([rec]) == [json.dumps(rec)]
    # another key keeps its place, in any key order; a mapping keyed by
    # other than strings, a count that is not an int, or a record that is
    # not a mapping, as json.dumps has it
    odd = [{"traces": rec["traces"], "extra": [rec["traces"]["a"], None],
            "time": 0.5, "pipes": rec["pipes"], "x": rec["x"]},
           {**rec, "pipes": {1: [[1, twins[0]]]}, "traces": {True: twins[1]}},
           {**rec, "pipes": {"a": [[True, twins[0]], [2.0, twins[0]]]}},
           {**rec, 7: "seven"}, [rec["x"], rec["traces"]]]
    assert _record_lines(odd) == [json.dumps(r) for r in odd]


# pipe ids that csv quotes for a comma, a quote or a line break, and two it
# does not quote
CSV_PIPE_IDS = ["a,b", 'say "hi"', "two\nlines", " ", "plain"]


@pytest.mark.parametrize("name", [p.name for p in SHIPPED] + ["SAMPLED", "FRICTION"])
def test_csv_matches_one_csv_writer_row_per_point(name):
    # write_csv joins each run's columns once; the csv module writing one
    # row per grid point gives the same bytes, also where ids need quotes
    records = run_scenario(parse_scenario(DOCUMENTS[name])).records
    renamed = [{**rec, "pipes": dict(zip(CSV_PIPE_IDS, rec["pipes"].values()))}
               for rec in records]
    for recs in (records, renamed):
        assert render_csv(recs) == per_point_csv(recs)


def _numpy_scalars(obj, path="result"):
    """Paths of the numpy scalars anywhere in a nest of dicts and lists."""
    if isinstance(obj, np.generic):
        return [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _numpy_scalars(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for k, v in enumerate(obj) for p in _numpy_scalars(v, f"{path}[{k}]")]
    return []


@pytest.mark.parametrize("name", [p.name for p in SHIPPED] + ["FRICTION"])
def test_run_scenario_returns_no_numpy_scalars(name):
    res = run_scenario(parse_scenario(DOCUMENTS[name]))
    assert _numpy_scalars({"records": res.records, "summary": res.summary}) == []


def test_render_json_without_records_or_summary():
    assert json.loads(render_json([])) == {"records": []}
    assert json.loads(render_json([], {"mode": "riemann"})) == {
        "records": [], "summary": {"mode": "riemann"}}


def test_sampled_states_are_the_region_objects():
    # the simulate sampler's one pass per pipe returns what a scan per grid
    # point returns, object for object, fields are computed once per object,
    # and a snapshot folds each stretch of one object into one run
    sc = parse_scenario(SHIPPED_TRACKING.read_text())
    state = init_approximation(sc.specs, sc.profiles, sc.constants, sc.run.epsilon)
    xs = [k / 16 for k in range(64)]
    fields = FieldMemo(sc.constants)
    for t in (0.3, 1.0, 3.0):
        state.run(t)
        for i, track in enumerate(state.pipes):
            got = track.states_at(xs, [f.at(state.time) for f in track.fronts])
            assert len({id(a) for a in got}) > 2
            assert all(a is state.state_at(i, x) for a, x in zip(got, xs))
            assert all(fields(a) is fields(a) == state_fields(a, sc.constants)
                       for a in got)
            runs = scenario._runs(got)
            assert len(runs) < len(got)
            expanded = [a for a, n in runs for _ in range(n)]
            assert len(expanded) == len(got)
            assert all(a is b for a, b in zip(expanded, got))
            assert all(a[0] is not b[0] for a, b in zip(runs, runs[1:]))


def test_shipped_riemann_scenario_renders_under_10_kb():
    # 2 sample times x 3 pipes x 64 points, held as a few runs per pipe
    res = run_scenario(parse_scenario(DOCUMENTS["y_junction_riemann.yaml"]))
    assert len(render_json(res.records, res.summary).encode()) < 10_000


ORACLE_SEEDS = {f"riemann_batch seed {seed}": seed for seed in (3, 11, 47)}
# every shipped scenario in both modes; the tracking scenario's pieces are
# not the constant states a riemann-mode document needs
ORACLE_SHIPPED = {f"{p.name} {mode}": (p, mode) for p in SHIPPED
                  for mode in ("riemann", "simulate")
                  if not (p == SHIPPED_TRACKING and mode == "riemann")}


def _per_point_states(sc, records, coupling):
    """For each record, pipe id -> the state at each grid point, sampled
    point by point from the solution: ``sample_at`` of the ``coupling``
    solve's (solution, waves) at x/t in riemann mode, ``state_at`` of the
    tracked run at each stop in simulate mode."""
    xs = scenario._grid(sc)

    def pipes(state_at):
        return {spec.id: [state_at(i, x) for x in xs] for i, spec in enumerate(sc.specs)}

    if sc.run.mode == "riemann":
        data = sc.trace_states()
        sol, waves = coupling
        for rec in records:
            t = rec["time"]
            yield pipes(lambda i, x: sample_at(waves[i], sol.star_states[i], data[i], x / t,
                                               sc.constants))
        return
    assert sc.run.source is None
    state = init_approximation(sc.specs, sc.profiles, sc.constants, sc.run.epsilon,
                               control=sc.control, tol=sc.run.tol,
                               max_events=sc.run.max_events)
    for t in scenario._stops(sc):
        state.run(t)
        yield pipes(state.state_at)


def _kept_solves(monkeypatch):
    """The list every later ``scenario.solve_coupling`` result is appended
    to: a riemann run's solution and waves, for the reference sampler."""
    solved = []
    solve = scenario.solve_coupling

    def keep(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(scenario, "solve_coupling", keep)
    return solved


def _assert_runs_expand_to_per_point_records(sc, solved):
    solved.clear()
    records = run_scenario(sc).records
    coupling = solved[0] if solved else None
    for rec, want in zip(records, _per_point_states(sc, records, coupling), strict=True):
        assert rec["x"] == scenario._grid(sc)
        for pipe_id, pipe in expand_pipes(rec).items():
            runs = rec["pipes"][pipe_id]
            assert all(count > 0 for count, _ in runs)
            assert sum(count for count, _ in runs) == len(rec["x"])
            assert all(a[1] is not b[1] for a, b in zip(runs, runs[1:]))
            assert pipe["x"] is rec["x"] and len(pipe["states"]) == len(want[pipe_id])
            # every point's (field dict, reference state) pair, each distinct
            # pair once, bit for bit: the C encoder writes a float as its repr
            pairs = {(id(d), id(st)): (d, st) for d, st in zip(pipe["states"], want[pipe_id])}
            for d, st in pairs.values():
                assert json.dumps(d) == json.dumps(state_fields(st, sc.constants))


@pytest.mark.parametrize("name", list(ORACLE_SEEDS))
def test_riemann_batch_runs_expand_to_per_point_records(name, monkeypatch):
    texts = _bench_documents("riemann_batch", ORACLE_SEEDS[name])
    assert len(texts) == 206
    solved = _kept_solves(monkeypatch)
    for text in texts:
        _assert_runs_expand_to_per_point_records(parse_scenario(text), solved)


@pytest.mark.parametrize("name", list(ORACLE_SHIPPED))
def test_shipped_runs_expand_to_per_point_records(name, monkeypatch):
    path, mode = ORACLE_SHIPPED[name]
    _assert_runs_expand_to_per_point_records(parse_scenario(path.read_text(), mode=mode),
                                             _kept_solves(monkeypatch))


def test_trace_residuals_read_the_runs_own_coupling_problem():
    # a tracked compressor's traces are checked against its control row,
    # not a junction's enthalpy row; specs or constants other than the
    # run's own are refused
    sc = parse_scenario(DOCUMENTS["compressor_head.yaml"], mode="simulate")
    state = scenario._simulate(sc, sc.run.epsilon)
    res = scenario.trace_residuals(state, sc.specs, sc.constants)
    assert "enthalpy_spread" not in res and res["control"] <= 1e-12
    for specs, g in ((sc.specs[::-1], sc.constants), (sc.specs, GasConstants(R=288.0))):
        with pytest.raises(ValueError, match="not the run's own"):
            scenario.trace_residuals(state, specs, g)


def test_a_tracked_run_on_constant_data_is_riemann_mode(monkeypatch):
    # the pipes are half-lines, so a run on constant data emits the
    # coupling solve's waves at t = 0 and makes no event after: its traces
    # are riemann mode's star states at the same tol, bit for bit
    texts = ([DOCUMENTS[p.name] for p in SHIPPED if p != SHIPPED_TRACKING]
             + _bench_documents("riemann_batch", 3)[:40])
    assert len(texts) == 42
    solved = _kept_solves(monkeypatch)
    for text in texts:
        solved.clear()
        run_scenario(parse_scenario(text))
        (sol, _), = solved
        sc = parse_scenario(text, mode="simulate", horizon=1.0)
        state = scenario._simulate(sc, sc.run.epsilon)
        assert state.time == 1.0 and state.events == 0
        assert state.traces() == list(sol.star_states)


@pytest.mark.parametrize("levels", [1_000, 1_001])
def test_depth_bound_is_exact(levels):
    # a text is rejected at the first collection deeper than 1,000 levels,
    # the top mapping included, and one 1,000 deep (with exactly 1,000
    # collection indicators, so not scanned) goes on to validation
    text = "a:\n" + "- " * (levels - 1) + "x\n"
    if levels > 1_000:
        with pytest.raises(ScenarioParseError, match="nest deeper than 1000 levels"):
            parse_scenario(text)
    else:
        with pytest.raises(ScenarioValidationError, match="a: unknown field"):
            parse_scenario(text)


@pytest.mark.parametrize("text, column", [
    ("a: " + "[" * 5_000 + "]" * 5_000 + "\n", 1003),
    ("? " * 5_000 + "x\n", 2001),
], ids=["flow", "explicit keys"])
def test_deep_nesting_is_a_parse_error(text, column):
    # 5,000 levels of flow nesting, under the earlier bound of 10,000, cost
    # libyaml's quadratic flow parse about a quarter second; the scan now
    # rejects the first collection deeper than 1,000 levels, also where
    # only `?` indicators open the collections
    with pytest.raises(ScenarioParseError,
                       match=f"deeper than 1000 levels at line 1, column {column}$"):
        parse_scenario(text)
