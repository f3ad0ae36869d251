"""Spans around gasnet's public functions, installed from outside.

``Tracer.install`` replaces each target with a wrapper in every loaded
``gasnet`` module that holds it (``gasnet.scenario.solve_junction`` and
``gasnet.fronttracking.solve_junction`` are the same function object),
replaces the public functions of the kernel module object that the
solvers call through, and replaces four ``FrontTrackingState`` methods on
the class.  ``Tracer.restore`` puts every original back.  Wrappers record
only while ``Tracer.active`` is true, so output checks run untraced.

A span is (name, start, end, parent).  Spans live in flat arrays until
``Tracer.save`` writes them; self time (span time minus child spans) and
call counts are accumulated as spans close.  A call counts once per entry
into a span name, so kernels calling kernels count as one operation.
"""

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

MARK = "__gasbench_wrapper__"

# (module, attribute, span name); the attribute is replaced wherever the
# same object is bound in a loaded gasnet module.
FUNCTIONS = [
    ("gasnet.scenario", "parse_scenario", "scenario.parse"),
    ("gasnet.scenario", "run_scenario", "scenario.run"),
    ("gasnet.output", "render_json", "output.render"),
    ("gasnet.junction", "solve_junction", "junction.solve"),
    ("gasnet.compressor", "solve_compressor", "compressor.solve"),
    ("gasnet.laxcurves", "trace_eval", "laxcurves.trace_eval"),
    ("gasnet.riemann", "solve_riemann_m1", "riemann.solve"),
    ("gasnet.riemann", "solve_riemann_iso", "riemann.solve"),
    ("gasnet.riemann", "sample_waves", "riemann.sample"),
    ("gasnet.fronttracking", "init_approximation", "fronttracking.init"),
    ("gasnet.fronttracking", "accurate_solve", "fronttracking.accurate_solve"),
    ("gasnet.fronttracking", "coupling_wave_pattern", "fronttracking.coupling"),
    ("gasnet.fronttracking", "l1_distance", "fronttracking.l1"),
    ("gasnet.fronttracking", "weak_form_residual", "fronttracking.weak_form"),
]
METHODS = [
    ("advance", "fronttracking.advance"),
    ("glimm", "fronttracking.glimm"),
    ("apply_source", "fronttracking.apply_source"),
    ("state_at", "fronttracking.sample"),
]
KERNEL_SPAN = "kernels"
# spans whose individual durations are kept for percentiles
TIMED = {"scenario.parse", "scenario.run", "output.render", "junction.solve",
         "compressor.solve", "riemann.solve", "fronttracking.advance"}
ITEM_SPAN = "bench.item"


def kernel_module():
    """The module object the solvers call kernels through."""
    import gasnet.laxcurves

    return gasnet.laxcurves.kernels


def kernel_functions(mod):
    return {k: v for k, v in vars(mod).items()
            if callable(v) and not k.startswith("_")
            and getattr(v, "__module__", None) == mod.__name__}


def _gasnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gasnet" or name.startswith("gasnet."))]


def installed_wrappers():
    """Names of gasnet attributes currently bound to a benchmark wrapper."""
    from gasnet.fronttracking import FrontTrackingState

    found = [f"{m.__name__}.{k}" for m in _gasnet_modules()
             for k, v in vars(m).items() if getattr(v, MARK, False)]
    found += [f"FrontTrackingState.{k}" for k, v in vars(FrontTrackingState).items()
              if getattr(v, MARK, False)]
    return found


def _live_fronts(state):
    return sum(len(track.fronts) for track in state.pipes)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.durations = defaultdict(list)
        self.newton_iters = Counter()
        self.render_bytes = 0
        self.advance_samples = []      # (seconds, live fronts before the event)
        self.live_fronts_max = 0
        self.states = []
        self.events = 0
        self.segments = 0
        self.interactions = Counter()
        self._restore = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, after=None, before=None):
        """Wrapper recording one span per call; ``before(args)`` returns a
        value handed to ``after(args, result, seconds, value)``."""
        nid = self.name_id(name)
        keep = name in TIMED
        tracer = self
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_s, calls, durations = self.self_s, self.calls, self.durations
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            ctx = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            idx = len(names)
            names.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if parent is None or names[parent[0]] != nid:
                    calls[name] += 1
                if keep:
                    durations[name].append(dur)
            if after is not None:
                after(args, result, dur, ctx)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, True)
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a benchmark-owned span (the item root)."""
        return self._wrap(fn, name)(*args, **kwargs)

    # -- hooks ---------------------------------------------------------------

    def _count_iters(self, name):
        def after(args, sol, dur, ctx):
            self.newton_iters[name] += sol.iterations
        return after

    def _after_render(self, args, text, dur, ctx):
        self.render_bytes += len(text)

    def _after_init(self, args, state, dur, ctx):
        self.states.append(state)

    def harvest(self):
        """Fold the counters of the states built since the last call into
        the totals, then drop the states."""
        for st in self.states:
            self.events += st.events
            self.segments += len(st.segments)
            self.interactions.update(r.kind for r in st.interactions)
        self.states.clear()

    def _before_advance(self, args):
        return _live_fronts(args[0])

    def _after_advance(self, args, result, dur, fronts_before):
        self.advance_samples.append((dur, fronts_before))
        self.live_fronts_max = max(self.live_fronts_max, fronts_before,
                                   _live_fronts(args[0]))

    # -- install / restore ---------------------------------------------------

    def install(self):
        import gasnet.output  # noqa: F401  (load every traced module)
        import gasnet.scenario  # noqa: F401
        from gasnet.fronttracking import FrontTrackingState

        hooks = {
            "junction.solve": (self._count_iters("junction.solve"), None),
            "compressor.solve": (self._count_iters("compressor.solve"), None),
            "output.render": (self._after_render, None),
            "fronttracking.init": (self._after_init, None),
        }
        modules = _gasnet_modules()
        targets = [(getattr(importlib.import_module(mod), attr), span)
                   for mod, attr, span in FUNCTIONS]
        targets += [(fn, KERNEL_SPAN) for fn in kernel_functions(kernel_module()).values()]
        for orig, span in targets:
            after, before = hooks.get(span, (None, None))
            wrapper = self._wrap(orig, span, after, before)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        self._restore.append((m, k, orig))
        for attr, span in METHODS:
            orig = FrontTrackingState.__dict__[attr]
            if span == "fronttracking.advance":
                wrapper = self._wrap(orig, span, self._after_advance, self._before_advance)
            else:
                wrapper = self._wrap(orig, span)
            setattr(FrontTrackingState, attr, wrapper)
            self._restore.append((FrontTrackingState, attr, orig))

    def restore(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        self.active = False

    # -- output --------------------------------------------------------------

    def save(self, path):
        """Write every span as arrays (name index, start, end, parent)."""
        import numpy as np

        start = np.frombuffer(self.span_start, dtype=float)
        origin = start.min() if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=float) - origin,
        )
