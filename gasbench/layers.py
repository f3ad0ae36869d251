"""Per-layer metrics from a Tracer after the traced passes.

Totals are per pass (every traced pass runs the same inputs, so counts
repeat exactly); latencies are medians and percentiles over all spans.
Span times are raw and include the speed probe's reference units that
ran inside them, about 1 percent of the wall time.
"""

import math
import statistics


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


BINS = (("lt64", 0, 64), ("64-255", 64, 256), ("ge256", 256, None))
SOLVER_SPANS = ("junction.solve", "compressor.solve", "laxcurves.trace_eval", "kernels",
                "riemann.solve", "riemann.sample", "fronttracking.accurate_solve",
                "fronttracking.coupling")
# shares expected from profiles of the unmodified code, printed beside the measured ones
BASELINE = {
    "tracking_ladder": "Glimm recomputation about 0.9 and O(n) scheduling most of the rest; "
                       "solver physics about 0.05",
    "friction_split": "FrontTrackingState.glimm about 0.88 under cProfile",
    "riemann_batch": "render_json the largest share (parse 2.8 ms, run 0.9 to 2.8 ms, "
                     "render 2.3 to 11.5 ms per document)",
}


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def per_layer(tracer, traced_walls, untraced_scaled, traced_scaled):
    """``traced_walls`` are raw pass times (the base of the self-time
    shares); the ``*_scaled`` pass times are at the reference speed."""
    n = len(traced_walls)
    self_s, calls, durs = tracer.self_s, tracer.calls, tracer.durations
    total_wall = sum(traced_walls)
    untraced = statistics.median(untraced_scaled)

    def per_pass(x):
        return x / n

    def mean_iters(name):
        return tracer.newton_iters[name] / calls[name] if calls[name] else 0.0

    events = per_pass(tracer.events)
    m = {
        "scenario.parse_ms": _median(durs["scenario.parse"], 1e3),
        "scenario.run_ms": _median(durs["scenario.run"], 1e3),
        "output.render_ms": _median(durs["output.render"], 1e3),
        "output.bytes_per_doc": (tracer.render_bytes / calls["output.render"]
                                 if calls["output.render"] else 0.0),
        "junction.calls": per_pass(calls["junction.solve"]),
        "junction.solve_us": _median(durs["junction.solve"], 1e6),
        "junction.newton_iters_mean": mean_iters("junction.solve"),
        "compressor.calls": per_pass(calls["compressor.solve"]),
        "compressor.solve_us": _median(durs["compressor.solve"], 1e6),
        "compressor.newton_iters_mean": mean_iters("compressor.solve"),
        "laxcurves.trace_eval_calls": per_pass(calls["laxcurves.trace_eval"]),
        "laxcurves.trace_eval_self_s": per_pass(self_s["laxcurves.trace_eval"]),
        "kernels.calls": per_pass(calls["kernels"]),
        "kernels.self_s": per_pass(self_s["kernels"]),
        "riemann.solve_calls": per_pass(calls["riemann.solve"]),
        "riemann.solve_us": _median(durs["riemann.solve"], 1e6),
        "riemann.sample_calls": per_pass(calls["riemann.sample"]),
        "riemann.sample_self_s": per_pass(self_s["riemann.sample"]),
        "fronttracking.events": events,
        "fronttracking.events_per_s": events / untraced,
    }
    adv = tracer.advance_samples
    m["fronttracking.advance_us.p50"] = percentile([d for d, _ in adv], 50) * 1e6 if adv else 0.0
    m["fronttracking.advance_us.p99"] = percentile([d for d, _ in adv], 99) * 1e6 if adv else 0.0
    for label, lo, hi in BINS:
        ds = [d for d, f in adv if f >= lo and (hi is None or f < hi)]
        for q in (50, 99):
            m[f"fronttracking.advance_us.{label}.p{q}"] = percentile(ds, q) * 1e6 if ds else 0.0
    m.update({
        "fronttracking.glimm_calls": per_pass(calls["fronttracking.glimm"]),
        "fronttracking.glimm_self_s": per_pass(self_s["fronttracking.glimm"]),
        "fronttracking.glimm_share": self_s["fronttracking.glimm"] / total_wall,
        "fronttracking.advance_self_s": per_pass(self_s["fronttracking.advance"]),
        "fronttracking.accurate_solve_calls": per_pass(calls["fronttracking.accurate_solve"]),
        "fronttracking.accurate_solve_self_s": per_pass(self_s["fronttracking.accurate_solve"]),
        "fronttracking.apply_source_calls": per_pass(calls["fronttracking.apply_source"]),
        "fronttracking.apply_source_self_s": per_pass(self_s["fronttracking.apply_source"]),
        "fronttracking.coupling_self_s": per_pass(self_s["fronttracking.coupling"]),
        "fronttracking.init_self_s": per_pass(self_s["fronttracking.init"]),
        "fronttracking.sample_self_s": per_pass(self_s["fronttracking.sample"]),
        "fronttracking.l1_self_s": per_pass(self_s["fronttracking.l1"]),
        "fronttracking.weak_form_self_s": per_pass(self_s["fronttracking.weak_form"]),
        "fronttracking.live_fronts_max": tracer.live_fronts_max,
        "fronttracking.segments": per_pass(tracer.segments),
        "fronttracking.interactions.collision": per_pass(tracer.interactions["collision"]),
        "fronttracking.interactions.junction": per_pass(tracer.interactions["junction"]),
        "fronttracking.interactions.reflection": per_pass(tracer.interactions["reflection"]),
        "trace.overhead_frac": statistics.median(traced_scaled) / untraced - 1.0,
        "trace.wall_s": statistics.median(traced_walls),
        "trace.unattributed_frac": self_s["bench.item"] / total_wall,
        "trace.solver_share": sum(self_s[s] for s in SOLVER_SPANS) / total_wall,
    })
    return m


def shares(tracer, traced_walls):
    """Self time of every span name as a share of the traced wall time;
    ``bench.item`` is the remainder outside all gasnet spans."""
    total = sum(traced_walls)
    return {name: t / total for name, t in
            sorted(tracer.self_s.items(), key=lambda kv: -kv[1])}
