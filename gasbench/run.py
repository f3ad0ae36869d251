"""gasnet benchmark: seeded workloads, checked outputs, one JSON result.

Run from the root of a checkout:

    python3 gasbench/run.py --workload riemann_batch --seed 1 --seconds 15 --trace 0
    python3 gasbench/run.py --write-manifest      # BENCHMARK.json from spec.py

Workloads, metrics and bounds are defined in ``spec.py``.  ``gasnet`` is
imported from ``src/`` of the checkout in fresh, single-threaded child
processes (``worker.py``), one at a time.  With ``--trace 0`` the run
measures set-up time in several fresh processes, then the end-to-end
metrics in one more; with ``--trace 1`` it reports the per-layer metrics
from wrappers installed around gasnet's public functions.

End-to-end times are in seconds at the reference speed sampled inside
the measured process (``speed.py``); the raw wall-clock times are printed
beside them as ``raw.*``.  Every metric is printed as "name value unit";
the last line of stdout is the JSON result.  A fuller result (inputs digest, machine, shares, what
each metric should move) is written to ``gasbench/results/``.  The run
exits 2 without a result when the checkout holds no gasnet sources.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import layers
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
TIME_LIMIT_S = 170.0
UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run worker.py to completion; its last stdout line is its result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker {args[0]} exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def missing_sources():
    need = [ROOT / "src" / "gasnet" / "__init__.py", ROOT / inputs.SHIPPED_TRACKING]
    need += [ROOT / rel for rel in inputs.SHIPPED_RIEMANN]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "gasnet").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def machine(res):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **res["versions"],
        "git_commit": git_commit(),
        "gasnet_source_sha256": source_digest(),
        "kernel_module": res["kernel_module"],
        "note": spec.NOTE,
    }


def report(args, res, metrics, extra):
    units = {**UNITS, "docs_per_s": "1/s", "events_per_s": "1/s", "fail_frac": "frac",
             **{f"raw.{m}": UNITS[m] for m in ("setup_s", "wall_s", "item_p50_ms", "item_p95_ms")}}
    print(f"gasbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={res['input_items']} sha256={res['input_digest'][:16]} "
          f"passes={res['passes']}")
    for name, value in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units.get(name, '')}")
    if res.get("shares"):
        print("  self-time shares of the traced wall (bench.item: outside every gasnet span):")
        for name, share in res["shares"].items():
            print(f"    {name:<38} {share:>14.4f}")
        print(f"  baseline (ROADMAP): {layers.BASELINE[args.workload]}")
    for problem in res["failures"]:
        print(f"  FAILED {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    missing = missing_sources()
    if missing:
        print(f"gasbench: not a gasnet checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [] if args.trace else [run_child(["setup", *common], deadline)
                                       for _ in range(spec.SETUP_SAMPLES - 1)]
        res = run_child(["measure", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--spans", str(RESULTS / f"{stem}-spans.npz")], deadline)
    except ChildFailed as exc:
        print(f"gasbench: {exc}", file=sys.stderr)
        return 1
    setup.append(res)

    if args.trace:
        metrics = res["per_layer"]
        extra = {}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "wall_s": res["wall_s"],
            "item_p50_ms": res["item_p50_ms"],
            "item_p95_ms": res["item_p95_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        extra = {
            "docs_per_s": res["docs_per_pass"] / res["wall_s"] if res["docs_per_pass"] else None,
            "events_per_s": (res["events_per_pass"] / res["wall_s"]
                             if res["events_per_pass"] else None),
            "raw.setup_s": statistics.median(s["setup_raw_s"] for s in setup),
            **{f"raw.{k}": v for k, v in res["raw"].items()},
        }
    extra["fail_frac"] = res["failed"] / res["attempted"]
    report(args, res, metrics, extra)

    described = {m["name"]: {k: m[k] for k in ("what", "moves") if k in m}
                 for m in spec.END_TO_END + spec.PER_LAYER}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"sha256": res["input_digest"], "items": res["input_items"]},
        "setup_samples_s": [s["setup_s"] for s in setup],
        "setup_samples_raw_s": [s["setup_raw_s"] for s in setup],
        "metrics": metrics, "extra": extra,
        **{k: res[k] for k in ("attempted", "failed", "failures", "passes", "pass_walls",
                               "pass_walls_raw", "warm_up_failures")},
        "shares": res.get("shares"), "spans": res.get("spans"),
        "share_baseline": layers.BASELINE[args.workload] if args.trace else None,
        "machine": machine(res),
        "metric_descriptions": described,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
