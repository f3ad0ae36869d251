"""One benchmark process: one workload, one seed, a fresh interpreter.

    python3 gasbench/worker.py setup   --workload W --seed N
    python3 gasbench/worker.py measure --workload W --seed N --seconds S --trace 0|1

Inputs are generated from the seed before ``gasnet`` is imported.  The
set-up time runs from just before the import to the end of the warm-up
item.  ``measure`` then repeats one pass over the inputs, closed loop
(the next item starts when the previous one has returned and been
checked), until ``--seconds`` have elapsed and at least two passes ran.
With ``--trace 1`` it runs untraced passes for half the time, then the
same passes traced.  A ``speed.SpeedProbe`` runs for the whole process;
every time is reported raw and at the reference speed.  The last line of
stdout is one JSON object for ``run.py``.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import layers
import speed
import tracing
from layers import percentile

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
clock = time.perf_counter


class Workload:
    """Runs and checks items.  ``run`` is the timed call; it returns what
    ``check`` needs and ``fingerprint`` digests for the determinism check."""

    docs_per_item = 0

    def __init__(self, items):
        self.items = items
        import gasnet
        import gasnet.fronttracking
        import gasnet.junction
        import gasnet.output
        import gasnet.scenario

        if ROOT / "src" not in Path(gasnet.__file__).resolve().parents:
            raise RuntimeError(f"gasnet imported from {gasnet.__file__}, not from the checkout")
        self.gasnet = gasnet
        self.GasnetError = gasnet.GasnetError

    def events(self, output):
        """Front-tracking events of one item, where the benchmark can see them."""
        return 0

    def prepare(self, item):
        return item

    def fingerprint(self, output):
        raise NotImplementedError

    def warm_up(self):
        """Untimed first item; returns the failures of its checks."""
        raise NotImplementedError


class DocumentWorkload(Workload):
    """Scenario documents: parse, run, render, as the CLI does."""

    docs_per_item = 1

    def run(self, text):
        g = self.gasnet
        sc = g.scenario.parse_scenario(text)
        result = g.scenario.run_scenario(sc)
        return sc, result, g.output.render_json(result.records, result.summary)

    def fingerprint(self, output):
        return hashlib.sha256(output[2].encode()).hexdigest()


class RiemannBatch(DocumentWorkload):
    def warm_up(self):
        return self.check(self.run(self.items[0][1]))

    def check(self, output):
        """Coupling residuals recomputed from the rendered trace states."""
        sc, _, text = output
        doc = json.loads(text)
        summary, traces = doc["summary"], doc["records"][0]["traces"]
        g = sc.constants
        states = [self.gasnet.output.state_from_fields(traces[s.id], g) for s in sc.specs]
        if sc.kind == "junction":
            return self._check_junction(sc, summary, states)
        return self._check_compressor(sc, states)

    def _check_junction(self, sc, summary, states):
        jn = self.gasnet.junction
        problem = jn.JunctionProblem(list(zip(sc.specs, sc.trace_states())), sc.constants)
        sol = jn.StarSolution(tuple(states), (), (), summary["h_star"], summary["s_star"],
                              summary["residual_norm"], summary["iterations"], {})
        d = jn.verify_coupling(sol, problem)
        # the bounds of acceptance criterion 2
        return _exceeded({"mass": (d.mass_residual, 1e-10),
                          "enthalpy_spread": (d.max_enthalpy_spread, 1e-8),
                          "entropy": (d.max_entropy_residual, 1e-8)})

    def _check_compressor(self, sc, states):
        from gasnet.thermo import Model, pressure, temperature, thermo_quantities

        g = sc.constants
        st1, st2 = states
        tq1, tq2 = thermo_quantities(st1, g), thermo_quantities(st2, g)
        p1, p2 = pressure(st1, g), pressure(st2, g)
        e = (g.gamma - 1.0) / g.gamma
        rise = g.gamma * g.R / (g.gamma - 1.0) * temperature(st1, g) * ((p2 / p1) ** e - 1.0)
        if sc.control.kind == "CP2":
            rise *= sc.control.cp_coeff * st2.q
        checks = {
            "mass": (abs(st1.q + st2.q) / (st1.rho * tq1.c + st2.rho * tq2.c), 1e-9),
            "control": (abs(rise - sc.control.value) / sc.control.value, 1e-8),
        }
        if st2.model is Model.M1:
            checks["entropy"] = (abs(tq1.s - tq2.s) / (g.gamma * g.cv), 1e-8)
        return _exceeded(checks)


class TrackingLadder(DocumentWorkload):
    def warm_up(self):
        """The shipped tracking scenario, once per process."""
        text = (ROOT / inputs.SHIPPED_TRACKING).read_text()
        summary = self.run(text)[1].summary
        amp, kj = summary["max_junction_amplification"], summary["K_J"]
        return [] if amp <= kj else [f"shipped tracking: amplification {amp!r} > K_J {kj!r}"]

    def check(self, output):
        s = output[1].summary
        out = []
        d = s["l1_distances"]
        # acceptance criterion 8: the L1 ladder decreases strictly
        if len(d) != len(inputs.LADDER_LADDER) - 1 or not all(
                b < a for a, b in zip(d, d[1:])):
            out.append(f"l1_distances not strictly decreasing: {d!r}")
        # acceptance criterion 7: junction amplification at most K_J
        if not s["max_junction_amplification"] <= s["K_J"]:
            out.append(f"amplification {s['max_junction_amplification']!r} > K_J {s['K_J']!r}")
        return out


class FrictionSplit(Workload):
    def prepare(self, p):
        from gasnet.junction import PipeSpec
        from gasnet.thermo import GasConstants, Model, iso_state

        profiles = [[(x, iso_state(Model.M2, rho, u, p["kappa"])) for x, rho, u in pipe]
                    for pipe in p["pipes"]]
        specs = [PipeSpec("a", 1.0, Model.M2), PipeSpec("b", 1.0, Model.M2)]
        return specs, profiles, GasConstants(gamma=inputs.GAMMA, R=inputs.R), p

    def run(self, prepared):
        ft, sc = self.gasnet.fronttracking, self.gasnet.scenario
        specs, profiles, g, p = prepared
        state = ft.init_approximation(specs, profiles, g, epsilon=p["epsilon"])
        ft.operator_split_run(state, ft.FrictionSource(p["lambda_f"], p["diameter"]),
                              p["horizon"], p["dt_split"])
        state.finalize_segments()
        residuals = sc.trace_residuals(state, specs, g)
        weak = ft.weak_form_residual(state, ft.bump_test_functions(1.0, p["horizon"]),
                                     p["horizon"])
        return state.events, residuals, weak

    def warm_up(self):
        specs, profiles, g, p = self.prepare(self.items[0][1])
        self.gasnet.fronttracking.init_approximation(specs, profiles, g, epsilon=p["epsilon"])
        return []

    def check(self, output):
        _, res, weak = output
        # the bounds of test_splitting_with_fronts_keeps_coupling_satisfied
        out = _exceeded({"mass": (res["mass"], 1e-9),
                         "enthalpy_spread": (res["enthalpy_spread"], 1e-8)})
        if not math.isfinite(weak):
            out.append(f"weak-form residual {weak!r}")
        return out

    def fingerprint(self, output):
        return repr(output)

    def events(self, output):
        return output[0]


WORKLOADS = {"riemann_batch": RiemannBatch, "tracking_ladder": TrackingLadder,
             "friction_split": FrictionSplit}


def _exceeded(checks):
    return [f"{name} residual {value!r} > {bound!r}"
            for name, (value, bound) in checks.items() if not value <= bound]


class Loop:
    """Closed-loop passes over the items, with checks and failure counts."""

    def __init__(self, wl, probe):
        self.wl = wl
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.fingerprints = [None] * len(wl.items)
        self.events = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(problems[:3])

    def _timed(self, prepared, tracer):
        """((start, end, seconds), output, error) of one item; the seconds
        leave out the reference units the speed probe ran meanwhile."""
        spent = self.probe.spent
        t0 = clock()
        output = error = None
        try:
            if tracer is None:
                output = self.wl.run(prepared)
            else:
                tracer.active = True
                try:
                    output = tracer.span(tracing.ITEM_SPAN, self.wl.run, prepared)
                finally:
                    tracer.active = False
                    tracer.harvest()
        except self.wl.GasnetError as exc:
            error = exc
        t1 = clock()
        return (t0, t1, t1 - t0 - (self.probe.spent - spent)), output, error

    def passes(self, seconds, min_passes, tracer=None):
        """Repeat the pass until ``seconds`` have elapsed and at least
        ``min_passes`` passes have run; returns the item timings of each
        pass."""
        runs = []
        start = clock()
        while len(runs) < min_passes or clock() - start < seconds:
            timings = []
            for i, (label, item) in enumerate(self.wl.items):
                timing, output, error = self._timed(self.wl.prepare(item), tracer)
                timings.append(timing)
                if error is not None:
                    self.record([f"{label}: {type(error).__name__}: {error}"])
                    continue
                self.events += self.wl.events(output)
                fp = self.wl.fingerprint(output)
                if self.fingerprints[i] is None:
                    self.fingerprints[i] = fp
                    problems = self.wl.check(output)
                elif fp != self.fingerprints[i]:
                    problems = ["output differs from the first run of the same input"]
                else:
                    problems = []
                self.record([f"{label}: {p}" for p in problems])
            runs.append(timings)
        return runs


def _no_wrappers():
    found = tracing.installed_wrappers()
    if found:
        raise RuntimeError(f"tracing wrappers installed in an untraced run: {found[:5]}")


def _timings(probe, runs):
    """Raw and reference-speed item seconds, one list per pass."""
    raw = [[s for _, _, s in run] for run in runs]
    scaled = [[s * probe.scale(t0, t1) for t0, t1, s in run] for run in runs]
    return raw, scaled


def _summary(per_pass):
    """Median pass wall, and percentiles over items of each item's median."""
    items = [statistics.median(col) for col in zip(*per_pass)]
    return {"wall_s": statistics.median(sum(p) for p in per_pass),
            "item_p50_ms": percentile(items, 50) * 1e3,
            "item_p95_ms": percentile(items, 95) * 1e3}


def measure(wl, probe, seconds, trace, spans_path):
    loop = Loop(wl, probe)
    out = {}
    if not trace:
        _no_wrappers()
        runs = loop.passes(seconds, MIN_PASSES)
        _no_wrappers()
    else:
        runs = loop.passes(seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = loop.passes(seconds / 2.0, 1, tracer)
        finally:
            tracer.restore()
        _no_wrappers()
        traced_raw, traced_scaled = _timings(probe, traced)
        untraced_scaled = [sum(p) for p in _timings(probe, runs)[1]]
        out["per_layer"] = layers.per_layer(tracer, [sum(p) for p in traced_raw],
                                            untraced_scaled, [sum(p) for p in traced_scaled])
        out["shares"] = layers.shares(tracer, [sum(p) for p in traced_raw])
        out["spans"] = len(tracer.span_name)
        tracer.save(spans_path)
    raw, scaled = _timings(probe, runs)
    out.update(_summary(scaled))
    out.update({
        "raw": _summary(raw),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:20],
        "passes": len(runs),
        "pass_walls": [sum(p) for p in scaled],
        "pass_walls_raw": [sum(p) for p in raw],
        "docs_per_pass": wl.docs_per_item * len(wl.items),
        "events_per_pass": loop.events / len(runs) if not trace else None,
    })
    return out


def execute(args, probe):
    items, digest = inputs.generate(args.workload, args.seed, ROOT)
    spent = probe.spent
    t0 = clock()
    wl = WORKLOADS[args.workload](items)
    try:
        warm_problems = wl.warm_up()
    except wl.GasnetError as exc:
        warm_problems = [f"warm-up: {type(exc).__name__}: {exc}"]
    t1 = clock()
    setup_raw = t1 - t0 - (probe.spent - spent)
    setup = {"setup_s": setup_raw * probe.scale(t0, t1), "setup_raw_s": setup_raw}
    if args.mode == "setup":
        return setup

    out = measure(wl, probe, args.seconds, args.trace, args.spans)
    import numpy
    import yaml

    kmod = tracing.kernel_module()
    out.update(setup)
    out.update({
        "warm_up_failures": warm_problems,
        "attempted": out["attempted"] + 1,
        "failed": out["failed"] + (1 if warm_problems else 0),
        "input_digest": digest,
        "input_items": len(items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_module": {"name": kmod.__name__, "file": Path(kmod.__file__).name},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "pyyaml": yaml.__version__},
    })
    out["failures"] = warm_problems + out["failures"]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    with speed.SpeedProbe() as probe:
        out = execute(args, probe)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
