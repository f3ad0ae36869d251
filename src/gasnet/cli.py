"""Command-line front end.

Subcommands::

    gasnet riemann  --scenario s.yaml --out results/      solve one coupled
                                                          Riemann problem
    gasnet simulate --scenario s.yaml --out results/      front-tracking run
    gasnet check    --scenario s.yaml                     validate only
    gasnet diagnose --results results/records.json        print the stored
                                                          diagnostics

Each ``--scenario`` PATH is read as a UTF-8 file; ``--horizon``,
``--tol`` and (simulate only) ``--epsilon`` replace the document's run
fields.  With ``--out`` each scenario writes files named by its file
stem, so two scenarios with the same stem are refused before either
runs.  Exit codes: 0 success, 2 validation failure (a scenario file
that is not UTF-8, a ``--results`` file that is not a results document
and a repeated stem included), 3 solver non-convergence, 4 I/O error.
The environment variable GASNET_LOG sets the log level.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import GasnetError, ScenarioParseError, ScenarioValidationError
from .output import read_json, summary_text, write_csv, write_json
from .scenario import info_log, parse_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _setup_logging():
    """Log at the level GASNET_LOG names; gasnet logs nothing above INFO,
    so without it logging is not loaded (that takes about 7 ms)."""
    level = os.environ.get("GASNET_LOG")
    if level is None:
        return
    import logging

    logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gasnet",
        description="Exact Riemann and coupling solvers for gas flow at "
                    "pipeline junctions, with a wave-front-tracking simulator.")
    parser.add_argument("--version", action="version", version=f"gasnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", action="append", required=True,
                       metavar="PATH", help="scenario document (repeatable)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: print summary only)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--horizon", type=float, default=None,
                       help="override run.horizon")
        p.add_argument("--tol", type=float, default=None, help="override run.tol")

    p_riemann = sub.add_parser("riemann", help="solve the coupled Riemann problem")
    add_common(p_riemann)
    p_sim = sub.add_parser("simulate", help="wave-front-tracking simulation")
    add_common(p_sim)
    p_sim.add_argument("--epsilon", type=float, default=None, help="override run.epsilon")
    p_check = sub.add_parser("check", help="validate a scenario document")
    p_check.add_argument("--scenario", action="append", required=True, metavar="PATH")
    p_diag = sub.add_parser("diagnose", help="print the diagnostics stored in a results file")
    p_diag.add_argument("--results", required=True, metavar="PATH",
                        help="records.json produced by riemann/simulate")
    return parser


def _write_result(result, path, out_dir, fmt):
    if out_dir is None:
        sys.stdout.write(summary_text(result.summary) + "\n")
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(path).stem
    if fmt == "csv":
        with open(out / f"{stem}.csv", "w", encoding="utf-8") as fh:
            write_csv(result.records, fh)
        with open(out / f"{stem}-summary.json", "w", encoding="utf-8") as fh:
            fh.write(summary_text(result.summary) + "\n")
    else:
        with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
            write_json(result.records, fh, result.summary)
    if log := info_log():
        log.info("wrote results for %s to %s", path, out)


def _read_scenario(path):
    """The text of the scenario file at ``path``; one that is not UTF-8
    raises ScenarioParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _run_one(path, args, mode):
    flags = {key: v for key in ("epsilon", "horizon", "tol")
             if (v := getattr(args, key, None)) is not None}
    sc = parse_scenario(_read_scenario(path), mode=mode, **flags)
    result = run_scenario(sc)
    _write_result(result, path, args.out, args.format)
    return result


def _repeated_stem(paths):
    """The first two of ``paths`` that share a file stem, so would write
    the same output files, or None."""
    seen = {}
    for path in paths:
        stem = Path(path).stem
        if stem in seen:
            return seen[stem], path
        seen[stem] = path
    return None


def _cmd_run(args, mode):
    if args.out is not None and (clash := _repeated_stem(args.scenario)):
        first, second = clash
        print(f"{second}: same file stem as {first}; both would write "
              f"{Path(second).stem!r} results to {args.out}", file=sys.stderr)
        return EXIT_VALIDATION
    code = EXIT_OK
    for p in args.scenario:
        code = max(code, _guard(lambda: _run_one(p, args, mode), p))
    return code


def _guard(fn, what):
    try:
        fn()
        return EXIT_OK
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"{what}: validation failed:", file=sys.stderr)
        for line in str(exc).split("; "):
            print(f"  {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except GasnetError as exc:
        print(f"{what}: solver error: {exc}", file=sys.stderr)
        # where a tracked run raised it: epsilon, event or step, pipe, time
        for note in getattr(exc, "__notes__", ()):
            print(f"  {note}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"{what}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def _cmd_check(args):
    code = EXIT_OK
    for path in args.scenario:
        def check():
            parse_scenario(_read_scenario(path))
            print(f"{path}: ok")
        code = max(code, _guard(check, path))
    return code


def _cmd_diagnose(args):
    path = args.results
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records, summary = read_json(fh)
    except OSError as exc:
        print(f"{path}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"{path}: not a results document: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not records:
        print("no records found")
        return EXIT_OK
    report = [{"time": rec["time"], **rec.get("diagnostics", {})} for rec in records]
    json.dump({"records_checked": len(records), "summary": summary, "per_snapshot": report},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return EXIT_OK


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("riemann", "simulate"):
        code = _cmd_run(args, args.command)
    elif args.command == "check":
        code = _cmd_check(args)
    else:
        code = _cmd_diagnose(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
