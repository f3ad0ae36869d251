"""What the benchmark measures: workloads, metrics, bounds, and which
end-to-end metric each per-layer metric should move.

Every end-to-end time is in seconds at the reference speed of
``speed.py`` (raw wall-clock times are printed and recorded beside it);
per-layer times are raw.

``python3 gasbench/run.py --write-manifest`` writes ``BENCHMARK.json``
from this file; the keys ``what`` and ``moves`` stay here and go into
every result file.
"""

COMMAND = ["python3", "gasbench/run.py"]
PATHS = ["gasbench"]
RUN_SECONDS = 20
SETUP_SAMPLES = 5      # fresh processes per run whose set-up time is measured

WORKLOADS = [
    {"name": "riemann_batch",
     "why": "what a CLI user waits for: riemann-mode documents parsed, solved, rendered; "
            "runs scenario, junction, compressor, laxcurves, kernels, riemann, output, "
            "never the event loop"},
    {"name": "tracking_ladder",
     "why": "ladder Y-junction document to epsilon 0.005: cost per event grows with live "
            "fronts, Glimm recomputation and O(n) scheduling dominate"},
    {"name": "friction_split",
     "why": "friction operator splitting rewrites every region and re-solves every front "
            "each step, so incremental front-store state is rebuilt in bulk"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "fresh process: import gasnet plus the untimed warm-up item (one document, "
             "or one init_approximation); median of the run's fresh processes"},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15,
     "what": "median wall time of one pass over the seeded inputs: the document batch "
             "(riemann_batch), the ladder document (tracking_ladder), the split run "
             "(friction_split)"},
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15,
     "what": "median over the pass's items of each item's median closed-loop latency "
             "(riemann_batch: per document, over 206 documents)"},
    {"name": "item_p95_ms", "unit": "ms", "better": "lower", "bound": 0.15,
     "what": "95th percentile of the same: with 206 documents, the highest percentile "
             "that has ten beyond it (riemann_batch doc tail); one item elsewhere"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "what": "ru_maxrss of the workload's own fresh process"},
]

_DOCS = "docs_per_s and item_p50_ms on riemann_batch"
_LADDER_WALL = "wall_s on tracking_ladder"

PER_LAYER = [
    {"name": "scenario.parse_ms", "unit": "ms", "better": "lower", "moves": _DOCS},
    {"name": "scenario.run_ms", "unit": "ms", "better": "lower", "moves": _DOCS},
    {"name": "output.render_ms", "unit": "ms", "better": "lower",
     "moves": "docs_per_s and item_p95_ms on riemann_batch; tracking workloads barely"},
    {"name": "output.bytes_per_doc", "unit": "bytes", "better": "lower",
     "moves": "docs_per_s and item_p95_ms on riemann_batch (exact)"},
    {"name": "junction.calls", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch; wall_s on tracking_ladder only slightly (exact)"},
    {"name": "junction.solve_us", "unit": "us", "better": "lower",
     "moves": "docs_per_s on riemann_batch; wall_s on tracking_ladder only slightly"},
    {"name": "junction.newton_iters_mean", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch (exact)"},
    {"name": "compressor.calls", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch (exact)"},
    {"name": "compressor.solve_us", "unit": "us", "better": "lower",
     "moves": "docs_per_s on riemann_batch"},
    {"name": "compressor.newton_iters_mean", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch (exact)"},
    {"name": "laxcurves.trace_eval_calls", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch (exact)"},
    {"name": "laxcurves.trace_eval_self_s", "unit": "s", "better": "lower",
     "moves": "docs_per_s on riemann_batch"},
    {"name": "kernels.calls", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch; wall_s on friction_split a little "
              "(exact; calls into the kernel module, the operation count)"},
    {"name": "kernels.self_s", "unit": "s", "better": "lower",
     "moves": "docs_per_s on riemann_batch; wall_s on friction_split a little "
              "(inflated by the wrapper)"},
    {"name": "riemann.solve_calls", "unit": "count", "better": "lower",
     "moves": "wall_s on friction_split (re-solves) (exact)"},
    {"name": "riemann.solve_us", "unit": "us", "better": "lower",
     "moves": "wall_s on friction_split (re-solves)"},
    {"name": "riemann.sample_calls", "unit": "count", "better": "lower",
     "moves": "docs_per_s on riemann_batch (exact)"},
    {"name": "riemann.sample_self_s", "unit": "s", "better": "lower",
     "moves": "docs_per_s on riemann_batch (sampling)"},
    {"name": "fronttracking.events", "unit": "count", "better": "lower",
     "moves": "none; the base of events_per_s (exact)"},
    {"name": "fronttracking.events_per_s", "unit": "1/s", "better": "higher",
     "moves": "is events_per_s: exact event count over the untraced pass wall time"},
    {"name": "fronttracking.advance_us.p50", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder"},
    {"name": "fronttracking.advance_us.p99", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder"},
    {"name": "fronttracking.advance_us.lt64.p50", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with < 64 live fronts)"},
    {"name": "fronttracking.advance_us.lt64.p99", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with < 64 live fronts)"},
    {"name": "fronttracking.advance_us.64-255.p50", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with 64 to 255 live fronts)"},
    {"name": "fronttracking.advance_us.64-255.p99", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with 64 to 255 live fronts)"},
    {"name": "fronttracking.advance_us.ge256.p50", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with >= 256 live fronts)"},
    {"name": "fronttracking.advance_us.ge256.p99", "unit": "us", "better": "lower",
     "moves": "events_per_s on tracking_ladder (events with >= 256 live fronts)"},
    {"name": "fronttracking.glimm_calls", "unit": "count", "better": "lower",
     "moves": "wall_s on tracking_ladder and friction_split (exact)"},
    {"name": "fronttracking.glimm_self_s", "unit": "s", "better": "lower",
     "moves": "wall_s on tracking_ladder and friction_split"},
    {"name": "fronttracking.glimm_share", "unit": "frac", "better": "lower",
     "moves": "wall_s on tracking_ladder and friction_split (about 0.9 expected)"},
    {"name": "fronttracking.advance_self_s", "unit": "s", "better": "lower",
     "moves": "events_per_s on tracking_ladder (scheduling, moving, rechaining)"},
    {"name": "fronttracking.accurate_solve_calls", "unit": "count", "better": "lower",
     "moves": "wall_s on friction_split (exact)"},
    {"name": "fronttracking.accurate_solve_self_s", "unit": "s", "better": "lower",
     "moves": "wall_s on friction_split"},
    {"name": "fronttracking.apply_source_calls", "unit": "count", "better": "lower",
     "moves": "wall_s on friction_split only (exact)"},
    {"name": "fronttracking.apply_source_self_s", "unit": "s", "better": "lower",
     "moves": "wall_s on friction_split only"},
    {"name": "fronttracking.coupling_self_s", "unit": "s", "better": "lower",
     "moves": "wall_s on friction_split; " + _LADDER_WALL + " slightly"},
    {"name": "fronttracking.init_self_s", "unit": "s", "better": "lower",
     "moves": "setup_s on friction_split; " + _LADDER_WALL + " slightly"},
    {"name": "fronttracking.sample_self_s", "unit": "s", "better": "lower",
     "moves": _LADDER_WALL},
    {"name": "fronttracking.l1_self_s", "unit": "s", "better": "lower",
     "moves": _LADDER_WALL},
    {"name": "fronttracking.weak_form_self_s", "unit": "s", "better": "lower",
     "moves": _LADDER_WALL + " and friction_split"},
    {"name": "fronttracking.live_fronts_max", "unit": "count", "better": "lower",
     "moves": "events_per_s on tracking_ladder (exact)"},
    {"name": "fronttracking.segments", "unit": "count", "better": "lower",
     "moves": "peak_rss_mb on tracking_ladder (exact)"},
    {"name": "fronttracking.interactions.collision", "unit": "count", "better": "lower",
     "moves": "none; front-tracking work count (exact)"},
    {"name": "fronttracking.interactions.junction", "unit": "count", "better": "lower",
     "moves": "none; front-tracking work count (exact)"},
    {"name": "fronttracking.interactions.reflection", "unit": "count", "better": "lower",
     "moves": "none; front-tracking work count (exact)"},
    {"name": "trace.overhead_frac", "unit": "frac", "better": "lower",
     "moves": "none; traced pass wall over untraced pass wall, minus 1"},
    {"name": "trace.wall_s", "unit": "s", "better": "lower",
     "moves": "none; median traced pass wall, the base of the shares"},
    {"name": "trace.unattributed_frac", "unit": "frac", "better": "lower",
     "moves": "none; share of the traced wall outside every gasnet span"},
    {"name": "trace.solver_share", "unit": "frac", "better": "lower",
     "moves": "none; junction, compressor, laxcurves, kernels, riemann, accurate_solve "
              "and coupling self time over the traced wall (about 0.05 expected on "
              "tracking_ladder)"},
]

NOTE = ("timings are wall-clock in a shared sandbox with no system-wide tracing; "
        "end-to-end times are scaled to the reference speed sampled in the same "
        "process (speed.py), raw times are kept beside them; set-up and measurement "
        "run in fresh single-threaded processes, one at a time")


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }
