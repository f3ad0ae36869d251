"""Command-line front end: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import flow_reversal_junction
from gasnet import GasConstants, Model, pressure
from gasnet.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from gasnet.scenario import parse_scenario, run_scenario

GOOD = """
constants: {gamma: 1.4, R: 1.0}
topology:
  kind: junction
  pipes:
    - {id: a, area: 1.0, model: M3, initial: {rho: 1.0, u: -0.3, kappa: 1.0}}
    - {id: b, area: 1.0, model: M3, initial: {rho: 1.02, u: 0.3, kappa: 1.0}}
run:
  mode: riemann
  horizon: 0.5
  epsilon: 0.02
  grid: {points: 6, length: 1.5}
"""

BAD_SCHEMA = GOOD.replace("area: 1.0, model: M3, initial: {rho: 1.0, u: -0.3",
                          "area: -1.0, model: M3, initial: {rho: 1.0, u: -0.3")

VACUUMISH = """
constants: {gamma: 1.4, R: 1.0}
topology:
  kind: junction
  pipes:
    - {id: a, area: 1.0, model: M2, initial: {rho: 1.0, u: -1.15, kappa: 1.0}}
    - {id: b, area: 1.0, model: M2, initial: {rho: 0.0001, u: 0.003, kappa: 1.0}}
run: {mode: riemann, grid: {points: 4, length: 1.0}}
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "good.yaml"
    path.write_text(GOOD, encoding="utf-8")
    return path


def test_check_ok(scenario_file, capsys):
    assert main(["check", "--scenario", str(scenario_file)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_check_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BAD_SCHEMA, encoding="utf-8")
    assert main(["check", "--scenario", str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "area" in err


def test_riemann_writes_json(scenario_file, tmp_path):
    out = tmp_path / "results"
    code = main(["riemann", "--scenario", str(scenario_file),
                 "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads((out / "good.json").read_text())
    assert "converged" not in doc["summary"]
    assert doc["records"]


def test_riemann_writes_csv(scenario_file, tmp_path):
    out = tmp_path / "results"
    code = main(["riemann", "--scenario", str(scenario_file),
                 "--out", str(out), "--format", "csv"])
    assert code == EXIT_OK
    lines = (out / "good.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,pipe,x")
    assert len(lines) == 1 + 2 * 6
    assert (out / "good-summary.json").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_repeated_stem_is_refused_before_any_run(tmp_path, capsys, fmt):
    # two scenarios named s.yaml would write the same files under --out:
    # the command exits 2 naming both, and neither runs nor writes
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "s.yaml")
        paths[-1].write_text(GOOD, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["riemann", "--scenario", str(paths[0]), "--scenario", str(paths[1]),
            "--out", str(out), "--format", fmt]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{paths[1]}: same file stem as {paths[0]}; both would write "
                            f"'s' results to {out}\n")
    assert not out.exists()
    # without --out nothing is written, so both run
    assert main(argv[:-4]) == EXIT_OK


def test_simulate_subcommand(scenario_file, tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out), "--horizon", "0.4", "--epsilon", "0.01"])
    assert code == EXIT_OK
    doc = json.loads((out / "good.json").read_text())
    assert doc["summary"]["mode"] == "simulate"
    assert doc["summary"]["epsilon"] == 0.01


def test_solver_failure_exit_code(tmp_path):
    path = tmp_path / "vac.yaml"
    path.write_text(VACUUMISH, encoding="utf-8")
    code = main(["riemann", "--scenario", str(path)])
    assert code == EXIT_SOLVER


def test_event_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "budget.yaml"
    doc = GOOD.replace("mode: riemann", "mode: simulate\n  max_events: 2")
    doc = doc.replace("{rho: 1.02, u: 0.3, kappa: 1.0}",
                      "{pieces: [{x_right: 0.2, rho: 1.02, u: 0.3, kappa: 1.0},"
                      " {x_right: 0.4, rho: 0.98, u: 0.3, kappa: 1.0},"
                      " {x_right: null, rho: 1.03, u: 0.3, kappa: 1.0}]}")
    path.write_text(doc, encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_SOLVER
    assert "event budget 2 exhausted" in capsys.readouterr().err


def _flow_reversal_document(tmp_path, seed):
    """The tracked run of ``flow_reversal_junction(g, seed)``, written as
    a simulate document; returns its path."""
    g = GasConstants(gamma=1.4, R=1.0)
    pipes = []
    for spec, pieces in zip(*flow_reversal_junction(g, seed=seed)):
        rows = [f"{{x_right: {'null' if x is None else x}, rho: {float(st.rho)!r}, "
                f"u: {float(st.u)!r}, "
                + (f"p: {float(pressure(st, g))!r}}}" if st.model is Model.M1
                   else f"kappa: {float(st.kappa)!r}}}")
                for x, st in pieces]
        pipes.append(f"    - {{id: {spec.id}, area: {float(spec.area)!r}, "
                     f"model: {spec.model.value}, initial: {{pieces: [{', '.join(rows)}]}}}}\n")
    path = tmp_path / "reversal.yaml"
    path.write_text("constants: {gamma: 1.4, R: 1.0}\ntopology:\n  kind: junction\n  pipes:\n"
                    + "".join(pipes) + "run: {mode: simulate, horizon: 1.0, epsilon: 0.04, "
                    "max_events: 20000, grid: {points: 8, length: 1.0}}\n", encoding="utf-8")
    return path


def test_flow_reversal_exit_code(tmp_path, capsys):
    # the tracked run of flow_reversal_junction, written as a document,
    # parses and validates; its junction event that leaves no incoming
    # pipe is a solver error, printed with the run's note
    path = _flow_reversal_document(tmp_path, 157)
    assert main(["check", "--scenario", str(path)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(path)]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"{path}: solver error: a junction needs at least one incoming and "
                      "one outgoing pipe (N > dim(I_i) > 0)")
    assert err[1] == "  epsilon 0.04: event 79 (junction) on pipe 'out0' at t = 0.246568"


def test_two_sided_flow_reversal_exit_code(tmp_path, capsys):
    # the tracked run of flow_reversal_junction's seed 398 as a document:
    # it passes check, and the junction event at which in0 turns outgoing,
    # out0 still flowing out, is a solver error printed with the run's note
    path = _flow_reversal_document(tmp_path, 398)
    assert main(["check", "--scenario", str(path)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(path)]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"{path}: solver error: pipe 'in0' is incoming, but its flow "
                             "now leaves the junction (u=")
    assert err[1] == "  epsilon 0.04: event 35 (junction) on pipe 'in0' at t = 0.215897"


def test_diagnose_reads_results(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    main(["riemann", "--scenario", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    code = main(["diagnose", "--results", str(out / "good.json")])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["records_checked"] == 1


def test_simulate_out_then_diagnose(scenario_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                 "--horizon", "0.4", "--epsilon", "0.01"]) == EXIT_OK
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out / "good.json")]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    sc = parse_scenario(scenario_file.read_text(), mode="simulate", horizon=0.4, epsilon=0.01)
    records = run_scenario(sc).records
    assert doc["records_checked"] == sc.run.snapshots == len(records)
    for entry, rec in zip(doc["per_snapshot"], records):
        assert entry["time"] == rec["time"]
        for key in ("V", "Q", "Y"):
            assert entry[key] == rec["diagnostics"][key]


def test_multiple_scenarios_sequential(scenario_file, tmp_path):
    other = tmp_path / "other.yaml"
    other.write_text(GOOD.replace("rho: 1.02", "rho: 1.03"), encoding="utf-8")
    out = tmp_path / "batch"
    code = main(["riemann", "--scenario", str(scenario_file),
                 "--scenario", str(other), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "good.json").exists()
    assert (out / "other.json").exists()


def test_determinism_same_seed(scenario_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(out1),
          "--epsilon", "0.01"])
    main(["simulate", "--scenario", str(scenario_file), "--out", str(out2),
          "--epsilon", "0.01"])
    assert (out1 / "good.json").read_bytes() == (out2 / "good.json").read_bytes()


SHIPPED = Path(__file__).parents[1] / "scenarios"


@pytest.mark.parametrize("flags, path, message", [
    (["simulate", "--epsilon", "-1"], "run.epsilon", "must be > 0"),
    (["simulate", "--horizon", "nan"], "run.horizon", "must be a finite number"),
    (["riemann", "--tol", "-1"], "run.tol", "must be > 0"),
])
def test_overrides_are_validated(tmp_path, capsys, flags, path, message):
    # a flag's run field passes the document's own checks: exit 2 with its
    # field path, and nothing written
    out = tmp_path / "out"
    code = main([flags[0], "--scenario", str(SHIPPED / "y_junction_riemann.yaml"),
                 "--out", str(out), *flags[1:]])
    assert code == EXIT_VALIDATION
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, path", [
    ("tol: 1.0e-10", "tolerance: 1.0e-3", "run.tolerance"),
    ("points: 64", "pionts: 8", "run.grid.pionts"),
    ("kind: junction", "kind: junction\n  inlet: 5", "topology.inlet"),
    ("mode: riemann", "mode: riemann\n  horizon_s: 3", "run.horizon_s"),
], ids=["tolerance", "pionts", "inlet", "horizon_s"])
def test_unknown_field_fails_check(tmp_path, capsys, old, new, path):
    # a misspelt or misplaced key is not silently left at its default
    text = (SHIPPED / "y_junction_riemann.yaml").read_text()
    assert text.count(old) == 1
    doc = tmp_path / "doc.yaml"
    doc.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["check", "--scenario", str(doc)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"{doc}: validation failed:\n  {path}: unknown field\n"


def test_mode_that_is_a_list_fails_check(tmp_path, capsys):
    # a list as run.mode is a violation at its path, not a traceback, also
    # where a subcommand's own mode replaces it
    text = (SHIPPED / "y_junction_riemann.yaml").read_text()
    assert text.count("mode: riemann") == 1
    doc = tmp_path / "doc.yaml"
    doc.write_text(text.replace("mode: riemann", "mode: []"), encoding="utf-8")
    for command in ("check", "riemann", "simulate"):
        assert main([command, "--scenario", str(doc)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"{doc}: validation failed:\n"
                                           "  run.mode: must be riemann or simulate, got []\n")


def test_riemann_subcommand_checks_its_mode(capsys):
    # the subcommand's mode goes through the cross-pipe checks: piecewise
    # profiles are rejected as they are with mode: riemann in the document
    code = main(["riemann", "--scenario", str(SHIPPED / "y_junction_tracking.yaml")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "topology.pipes[0].initial: riemann mode needs constant initial states" in err


def test_scenario_paths_are_read_as_files(tmp_path, monkeypatch, capsys):
    # a name with no directory part and no .yaml suffix is a path like any
    # other: a readable file is checked, a missing one is an I/O error
    monkeypatch.chdir(tmp_path)
    Path("yjr.txt").write_text((SHIPPED / "y_junction_riemann.yaml").read_text(),
                               encoding="utf-8")
    assert main(["check", "--scenario", "yjr.txt"]) == EXIT_OK
    assert capsys.readouterr().out == "yjr.txt: ok\n"
    for command in ("check", "riemann"):
        assert main([command, "--scenario", "missing"]) == EXIT_IO
        assert capsys.readouterr().err.startswith("missing: I/O error")


@pytest.mark.parametrize("command", ["check", "riemann"])
def test_scenario_that_is_not_utf8_is_a_validation_failure(tmp_path, capsys, command):
    # a byte that is not UTF-8, here in a comment, is a parse error naming
    # the file, not a traceback
    path = tmp_path / "latin1.yaml"
    path.write_bytes(GOOD.encode() + b"# caf\xe9\n")
    assert main([command, "--scenario", str(path)]) == EXIT_VALIDATION
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "not json", "[1,2]", "{}", '{"records": [1]}',
    '{"records": [{"time": 0, "diagnostics": 3}]}',
], ids=["not-json", "list", "no-records", "record-not-a-mapping", "diagnostics-not-a-mapping"])
def test_diagnose_rejects_a_file_that_is_not_a_results_document(tmp_path, capsys, text):
    # one line naming the file and exit 2; a directory stays an I/O error
    path = tmp_path / "records.json"
    path.write_text(text, encoding="utf-8")
    assert main(["diagnose", "--results", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: not a results document: ") and err.count("\n") == 1
    assert main(["diagnose", "--results", str(tmp_path)]) == EXIT_IO


def test_riemann_takes_no_epsilon(capsys):
    # riemann mode never reads run.epsilon, so its subcommand has no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["riemann", "--scenario", str(SHIPPED / "y_junction_riemann.yaml"),
              "--epsilon", "0.1"])
    assert exc.value.code == 2
    assert "--epsilon" in capsys.readouterr().err


def test_tv_bound_exceeded_is_a_validation_failure(tmp_path, capsys):
    text = (SHIPPED / "y_junction_tracking.yaml").read_text()
    path = tmp_path / "tv.yaml"
    path.write_text(text.replace("\nrun:\n", "\nrun:\n  tv_bound: 1.0e-6\n"), encoding="utf-8")
    assert parse_scenario(path.read_text()).run.tv_bound == 1.0e-6
    assert main(["simulate", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "run.tv_bound: initial total variation" in capsys.readouterr().err


def test_diagnose_reports_every_stored_key(tmp_path, capsys):
    # a compressor run keeps its control residual, and every run the events
    out = tmp_path / "res"
    assert main(["simulate", "--scenario", str(SHIPPED / "compressor_head.yaml"),
                 "--horizon", "0.2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out / "compressor_head.json")]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    records = json.loads((out / "compressor_head.json").read_text())["records"]
    assert doc["records_checked"] == len(records) > 0
    for entry, rec in zip(doc["per_snapshot"], records):
        assert entry == {"time": rec["time"], **rec["diagnostics"]}
        assert {"control", "events", "mass"} <= set(entry)


def test_solver_error_in_a_ladder_member_names_it(tmp_path, monkeypatch, capsys):
    # a solver error in a ladder member's event loop keeps its type, so the
    # CLI exits 3, and carries a note naming the member's epsilon, the
    # event, the pipe and the time, which the CLI prints under the error
    import gasnet.fronttracking as ft
    from gasnet import NoConvergence
    from test_scenario import LADDER_TRACKING

    sc = parse_scenario(LADDER_TRACKING)
    assert sc.run.epsilon_ladder == [0.04, 0.02, 0.01]
    west_rho = sc.profiles[1][0][1].rho    # the density scale of pipe west
    calls = []
    accurate = ft.accurate_solve

    def spy(left, right, g, epsilon, scales):
        if epsilon == 0.01 and scales.rho == west_rho:
            calls.append(None)
            # the first two calls solve the pipe's interior jumps at t = 0
            if len(calls) == 4:
                raise NoConvergence("spy")
        return accurate(left, right, g, epsilon, scales)

    monkeypatch.setattr(ft, "accurate_solve", spy)
    with pytest.raises(NoConvergence) as err:
        run_scenario(sc)
    (note,) = err.value.__notes__
    assert note.startswith("epsilon 0.01: event ")
    assert " (collision) on pipe 'west' at t = " in note
    calls.clear()
    path = tmp_path / "ladder.yaml"
    path.write_text(LADDER_TRACKING, encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_SOLVER
    assert f"{path}: solver error: spy\n  {note}\n" in capsys.readouterr().err


COMPRESSOR = """
constants: {gamma: 1.4, R: 1.0}
topology:
  kind: compressor
  inlet:  {id: lo, area: 1.0, model: M2, initial: {rho: 1.0, u: -0.1, kappa: 1.0}}
  outlet: {id: hi, area: 1.0, model: M2, initial: {rho: 1.0, u: 0.1, kappa: 1.0}}
  control: {kind: CP1, h_star: 0.01}
run: {mode: riemann, grid: {points: 4, length: 1.0}}
"""

# every block that must be a mapping, as (document, keys to it)
MAPPING_BLOCKS = [
    (GOOD, ["constants"]),
    (GOOD, ["topology"]),
    (GOOD, ["topology", "pipes", 1]),
    (GOOD, ["topology", "pipes", 0, "initial"]),
    (COMPRESSOR, ["topology", "control"]),
    (GOOD, ["run"]),
    (GOOD, ["run", "grid"]),
    (GOOD, ["run", "source"]),
]


def _field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@pytest.mark.parametrize("value", [None, 5, ["x"]], ids=["null", "scalar", "list"])
@pytest.mark.parametrize("base, keys", MAPPING_BLOCKS,
                         ids=[_field_path(keys) for _, keys in MAPPING_BLOCKS])
def test_block_that_is_not_a_mapping_fails_check(tmp_path, capsys, base, keys, value):
    path = tmp_path / "doc.yaml"
    path.write_text(base, encoding="utf-8")
    assert main(["check", "--scenario", str(path)]) == EXIT_OK
    doc = yaml.safe_load(base)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
    assert f"\n  {_field_path(keys)}: " in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["riemann", "simulate"])
def test_negative_power_control_fails_in_both_modes(tmp_path, capsys, mode):
    # CompressorControl's own check rejects the value at topology.control,
    # so the document neither runs as a junction nor dies unvalidated
    path = tmp_path / "cp2.yaml"
    path.write_text(COMPRESSOR.replace("{kind: CP1, h_star: 0.01}",
                                       "{kind: CP2, p_star: -1, cp_coeff: 1}"), encoding="utf-8")
    out = tmp_path / "out"
    assert main([mode, "--scenario", str(path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"{path}: validation failed:\n  topology.control: control value must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["2001-02-30", "!!int abc", "!!float abc", "!!bool abc",
                                   "!!timestamp abc"])
def test_scalar_its_type_cannot_hold_is_a_parse_error(tmp_path, capsys, value):
    # a date that does not exist or a tagged scalar its constructor cannot
    # build exits 2 naming its line and column, not with a traceback
    text = (SHIPPED / "y_junction_riemann.yaml").read_text()
    line = text[:text.index("tol: 1.0e-10")].count("\n") + 1
    path = tmp_path / "doc.yaml"
    path.write_text(text.replace("tol: 1.0e-10", f"tol: {value}"), encoding="utf-8")
    assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: validation failed:\n  not a well-formed YAML document: ")
    assert err.endswith(f"line {line}, column 8\n")


def test_riemann_horizon_with_sample_times_is_a_violation(capsys):
    # riemann mode samples at run.sample_times when it has them, so a
    # horizon, from the document or the flag, would never be read
    path = SHIPPED / "y_junction_riemann.yaml"
    code = main(["riemann", "--scenario", str(path), "--horizon", "0.3"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"{path}: validation failed:\n"
        "  run.horizon: riemann mode samples at sample_times and never reads it\n")
    # simulate mode reads the horizon and not the sample times
    assert parse_scenario(path.read_text(), mode="simulate", horizon=0.3).run.horizon == 0.3


@pytest.mark.parametrize("command", ["riemann", "simulate"])
def test_without_out_the_summary_goes_to_stdout(scenario_file, capsys, command):
    assert main([command, "--scenario", str(scenario_file)]) == EXIT_OK
    summary = run_scenario(parse_scenario(GOOD, mode=command)).summary
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(summary))


def test_diagnose_without_records(tmp_path, capsys):
    path = tmp_path / "records.json"
    path.write_text('{"records": []}', encoding="utf-8")
    assert main(["diagnose", "--results", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "no records found\n"


def _compressor_summary(tmp_path, capsys, control):
    """The riemann summary that the CLI prints for COMPRESSOR under
    ``control``, and the outlet's trace q of the run."""
    text = COMPRESSOR.replace("{kind: CP1, h_star: 0.01}", control)
    path = tmp_path / "compressor.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["riemann", "--scenario", str(path)]) == EXIT_OK
    q_out = run_scenario(parse_scenario(text)).records[0]["traces"]["hi"]["q"]
    return json.loads(capsys.readouterr().out), q_out


def test_power_control_summary_carries_the_power(tmp_path, capsys):
    summary, q_out = _compressor_summary(tmp_path, capsys,
                                         "{kind: CP2, p_star: 0.001, cp_coeff: 0.9}")
    assert summary["power"] == pytest.approx(0.9 * q_out * summary["head"], rel=1e-12)
    assert summary["power"] == pytest.approx(0.001, rel=1e-8)
    assert "warnings" not in summary


def test_idle_head_control_summary_carries_a_warning(tmp_path, capsys):
    summary, _ = _compressor_summary(tmp_path, capsys, "{kind: CP1, h_star: 0}")
    assert summary["warnings"] == [
        "idle control value 0: uniqueness outside the guaranteed neighborhood"]
    assert "power" not in summary


DEEP = 30_000


@pytest.mark.parametrize("text, where", [
    ("a: " + "[" * DEEP + "]" * DEEP + "\n", "line 1, column 1003"),
    ("a:\n" + "- " * DEEP + "x\n", "line 2, column 1999"),
], ids=["flow", "block"])
def test_deeply_nested_document_fails_validation(tmp_path, text, where):
    # libyaml's composer recurses in C and kills the process on these
    # documents; the depth scan rejects them first, at the collection
    # that is one level too deep (run in a process of its own)
    path = tmp_path / "deep.yaml"
    path.write_text(text, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "gasnet.cli", "check", "--scenario", str(path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_VALIDATION, run.stderr[-2000:]
    assert run.stderr == (f"{path}: validation failed:\n"
                          f"  collections nest deeper than 1000 levels at {where}\n")


def test_info_log_prints_where_results_went(scenario_file, tmp_path):
    # GASNET_LOG loads logging on demand; at INFO the run still reports
    # where it wrote its results (run in a process of its own)
    out = tmp_path / "results"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, GASNET_LOG="INFO", PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "gasnet.cli", "riemann", "--scenario",
                          str(scenario_file), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stderr == f"INFO gasnet: wrote results for {scenario_file} to {out}\n"
    assert (out / "good.json").exists()
