"""Scenario parsing, validation paths, execution, and output round trips."""

import io
import json
from pathlib import Path

import pytest
import yaml

from gasnet import ScenarioParseError, ScenarioValidationError
from gasnet.fronttracking import init_approximation
from gasnet.output import FieldMemo, read_json, render_csv, render_json, state_fields, write_json
from gasnet.scenario import (
    normalized_document,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)

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
    assert sc.pipe_ids == ["a", "b"]
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


def test_violations_are_aggregated():
    doc = MINIMAL.replace("area: 1.0, model: M3", "area: -1.0, model: M9")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert len(err.value.violations) >= 3


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


def test_schema_round_trip_idempotent():
    sc = parse_scenario(MINIMAL)
    text = serialize_scenario(sc)
    sc2 = parse_scenario(text)
    assert serialize_scenario(sc2) == text
    assert normalized_document(sc) == normalized_document(sc2)


def test_riemann_run_and_outputs():
    sc = parse_scenario(MINIMAL)
    res = run_scenario(sc)
    assert res.summary["converged"] is True
    assert res.summary["max_residuals"]["mass"] <= 1e-10
    csv_text = render_csv(res.records)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("t,pipe,x,rho,q,E,p,u,s,h,c")
    assert len(lines) == 1 + len(res.records) * 2 * 4   # 2 pipes x 4 points
    # json round trip
    json_text = render_json(res.records, res.summary)
    records, summary = read_json(io.StringIO(json_text))
    assert records == res.records or _records_equal(records, res.records)
    assert summary["converged"] is True


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
    assert res.summary["converged"] is True


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


def test_epsilon_ladder_summary():
    doc = MINIMAL.replace("mode: riemann",
                          "mode: simulate\n  horizon: 0.4\n  epsilon: 0.02\n"
                          "  epsilon_ladder: [0.04, 0.02, 0.01]\n  snapshots: 2")
    doc = doc.replace("{rho: 1.0, u: 0.3, kappa: 1.0}",
                      "{pieces: [{x_right: 0.3, rho: 1.0, u: 0.3, kappa: 1.0},"
                      " {x_right: null, rho: 0.9, u: 0.3, kappa: 1.0}]}")
    sc = parse_scenario(doc)
    res = run_scenario(sc)
    assert len(res.summary["l1_distances"]) == 2
    assert all(d >= 0 for d in res.summary["l1_distances"])


def test_epsilon_ladder_reuses_simulate_run():
    # the simulate run, stopped at every snapshot, stands in for the ladder
    # member at its epsilon: the distances equal those of fresh members.
    # The shipped tracking document, with strong jumps in feed and west.
    from gasnet.fronttracking import init_approximation, l1_distance

    doc = (Path(__file__).parents[1] / "scenarios" / "y_junction_tracking.yaml").read_text()
    for old, new in (("horizon: 3.0", "horizon: 1.0"),
                     ("epsilon: 0.005", "epsilon: 0.02\n  epsilon_ladder: [0.04, 0.02, 0.01]"),
                     ("rho: 0.6511749095767044", "rho: 0.58"),
                     ("rho: 0.6797182229652565", "rho: 0.62")):
        doc = doc.replace(old, new)
    sc = parse_scenario(doc)
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
    doc = MINIMAL.replace(
        "run:", "run:\n  source: {kind: friction, lambda_f: 0.02, diameter: 0.5}")
    sc = parse_scenario(doc)
    from gasnet.fronttracking import FrictionSource

    assert isinstance(sc.run.source, FrictionSource)
    assert sc.run.source.lambda_f == 0.02


def test_epsilon_ladder_with_friction_source_rejected():
    doc = MINIMAL.replace(
        "mode: riemann",
        "mode: simulate\n  epsilon_ladder: [0.04, 0.02]\n"
        "  source: {kind: friction, lambda_f: 0.02, diameter: 0.5}")
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert any("run.epsilon_ladder" in v and "friction" in v
               for v in err.value.violations)


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


SHIPPED = sorted((Path(__file__).parents[1] / "scenarios").glob("*.yaml"))
SHIPPED_TRACKING = Path(__file__).parents[1] / "scenarios" / "y_junction_tracking.yaml"
# riemann sampling at several times: records share region states and fields
SAMPLED = MINIMAL.replace("mode: riemann", "mode: riemann\n  sample_times: [0.25, 0.5, 1.0]")
DOCUMENTS = {p.name: p.read_text() for p in SHIPPED}
DOCUMENTS.update(MINIMAL=MINIMAL, COMPRESSOR=COMPRESSOR, FRICTION=FRICTION, SAMPLED=SAMPLED)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_parse_matches_pure_python_loader(name):
    text = DOCUMENTS[name]
    assert parse_scenario(text).raw == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("name", [p.name for p in SHIPPED] + ["SAMPLED", "FRICTION"])
def test_render_json_matches_json_dumps(name):
    res = run_scenario(parse_scenario(DOCUMENTS[name]))
    out = render_json(res.records, res.summary)
    ref = json.dumps({"records": res.records, "summary": res.summary}, indent=1)
    assert json.loads(out) == json.loads(ref)
    # one record per line, each the C encoder's text of that record
    lines = out.split("\n")
    assert lines[1:1 + len(res.records)] == [
        json.dumps(r) + ("," if k < len(res.records) - 1 else "")
        for k, r in enumerate(res.records)]
    assert render_json(res.records, res.summary) == out
    assert render_csv(res.records) == render_csv(json.loads(ref)["records"])


def test_render_json_without_records_or_summary():
    assert json.loads(render_json([])) == {"records": []}
    assert json.loads(render_json([], {"mode": "riemann"})) == {
        "records": [], "summary": {"mode": "riemann"}}


def test_sampled_states_are_the_region_objects():
    # the simulate sampler's one pass per pipe returns what a scan per grid
    # point returns, object for object, and fields are computed once per object
    sc = parse_scenario(str(SHIPPED_TRACKING))
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
