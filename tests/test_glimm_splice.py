"""Property test: running (V, Q, TV) updated by splice deltas against one
pass over the whole front list."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from gasnet.fronttracking import PipeGlimm, _window_glimm


def _approaches(rear, ahead):
    """The pair rule of _window_glimm on two (st, fam, shock, norm) terms."""
    if rear[1] > ahead[1]:
        return True
    return rear[1] == ahead[1] != 4 and (rear[2] or ahead[2])


_strength = hs.one_of(hs.just(0.0), hs.floats(1e-12, 1.0))


@hs.composite
def _term(draw, families=(1, 2, 3, 4), shocks=True):
    fam = draw(hs.sampled_from(families))
    shock = fam != 4 and shocks and draw(hs.booleans())
    return (draw(_strength), fam, shock, draw(_strength))


@hs.composite
def _splice_runs(draw):
    """(weight, initial terms, splices) where each splice is (k, n_old, new)."""
    weight = [1.0] + [draw(hs.sampled_from((1.0, 2.0 * draw(hs.floats(1.0, 8.0)))))
                      for _ in range(4)]
    if draw(hs.booleans()):
        # no pair approaches: families ascending, no shocks, before and after
        def run(lo, hi, n):
            fams = sorted(draw(hs.lists(hs.integers(lo, hi), max_size=n)))
            return [draw(_term(families=(f,), shocks=False)) for f in fams]

        terms = run(1, 4, 10)
        splices, cur = [], list(terms)
        for _ in range(draw(hs.integers(1, 4))):
            k = draw(hs.integers(0, len(cur)))
            n_old = draw(hs.integers(0, len(cur) - k))
            lo = cur[k - 1][1] if k else 1
            hi = cur[k + n_old][1] if k + n_old < len(cur) else 4
            new = run(lo, hi, 4)
            splices.append((k, n_old, new))
            cur[k:k + n_old] = new
        return weight, terms, splices
    terms = draw(hs.lists(_term(), max_size=12))
    splices, size = [], len(terms)
    for _ in range(draw(hs.integers(1, 6))):
        k = draw(hs.sampled_from(sorted({0, size, draw(hs.integers(0, size))})))
        n_old = draw(hs.integers(0, size - k))
        # a repeated window now and then outgrows the spare room of the arrays
        new = draw(hs.lists(_term(), max_size=5)) * draw(hs.sampled_from((1, 1, 1, 20)))
        splices.append((k, n_old, new))
        size += len(new) - n_old
    return weight, terms, splices


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_splice_runs())
# a splice that removes nearly all of V, and one that removes every
# approaching pair: a plain running sum keeps 2e-5 relative error in V,
# and Q = 1.4e-17 instead of 0.0
@example(([1.0] * 5, [(1.0, 1, False, 0.0)], [(0, 1, [(1e-12, 1, False, 0.0)])]))
@example(([1.0] * 5, [(0.1, 2, False, 0.0), (0.1, 1, False, 0.0), (0.6, 1, False, 0.0)],
          [(0, 1, [])]))
def test_splice_deltas_match_window_glimm(run):
    weight, terms, splices = run
    running = PipeGlimm(weight, list(terms))
    cur = list(terms)
    for k, n_old, new in splices:
        running.splice(k, n_old, list(new))
        cur[k:k + n_old] = new
        v, q, tv, _, _ = _window_glimm(cur, weight)
        for a, b in ((running.v, v), (running.q, q), (running.tv, tv)):
            assert abs(a - b) <= 1e-12 * abs(b), (a, b)
        if not any(_approaches(a, b) for i, a in enumerate(cur) for b in cur[i + 1:]):
            assert running.q == 0.0
