"""Snapshot records and deterministic CSV/JSON serialization."""

import csv
import io
import json

from .thermo import (
    GasConstants,
    Model,
    PipeState,
    pressure,
    thermo_quantities,
    total_energy,
)

CSV_COLUMNS = ["t", "pipe", "x", "rho", "q", "E", "p", "u", "s", "h", "c"]


def state_fields(state: PipeState, g: GasConstants):
    """Flat dict of primitive and derived quantities of one state."""
    tq = thermo_quantities(state, g)
    out = {
        "model": state.model.value,
        "rho": state.rho,
        "q": state.q,
        "E": total_energy(state, g),
        "p": pressure(state, g),
        "u": state.u,
        "s": tq.s,
        "h": tq.h,
        "c": tq.c,
    }
    if state.model.is_isentropic:
        out["kappa"] = state.kappa
    return out


class FieldMemo:
    """``state_fields`` once per distinct state object.

    Sampled grids repeat a few region states many times, so the same
    state object gets one shared field dict: riemann sampling calls the
    memo once per run of grid points in one region, and a simulate
    snapshot once per grid point.  The memo is keyed by identity and
    holds every state it keyed, so no id is reused while it lives.
    """

    def __init__(self, g: GasConstants):
        self.g = g
        self._memo = {}

    def __call__(self, state: PipeState):
        hit = self._memo.get(id(state))
        if hit is None:
            hit = self._memo[id(state)] = (state, state_fields(state, self.g))
        return hit[1]


def state_from_fields(fields, g: GasConstants):
    model = Model(fields["model"])
    if model is Model.M1:
        rho = fields["rho"]
        return PipeState(model, rho, fields["q"], E=fields["E"])
    return PipeState(model, fields["rho"], fields["q"], kappa=fields["kappa"])


def snapshot_record(time, pipe_samples, traces, diagnostics):
    """A plain-dict snapshot: sampled grids, trace states and diagnostics.

    ``pipe_samples`` maps pipe id -> {"x": [...], "states": [field dicts]};
    ``traces`` maps pipe id -> field dict.  Grids and field dicts may be
    shared between pipes, grid points and records.
    """
    return {
        "time": time,
        "pipes": pipe_samples,
        "traces": traces,
        "diagnostics": diagnostics,
    }


def write_csv(records, stream):
    """One row per (time, pipe, grid point); header always written."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rec in records:
        t = float(rec["time"])
        for pipe_id in rec["pipes"]:
            samples = rec["pipes"][pipe_id]
            for x, st in zip(samples["x"], samples["states"]):
                w.writerow([repr(t), pipe_id, repr(float(x))] +
                           [repr(float(st[c])) for c in CSV_COLUMNS[3:]])


_NESTED = (dict, list, tuple)


def _encode(obj, memo):
    """Compact JSON text of ``obj``, equal to ``json.dumps(obj)``.

    A dict or list of scalars goes to the C encoder whole, once per
    identity: ``memo`` keeps its text, which pays off because records
    share their x grid and repeat field dicts.  One holding containers (a
    dict with string keys only) is joined here from its items' texts on
    every visit and not kept, so the memo holds no record's text.  The
    caller keeps ``obj`` alive while ``memo`` is in use, so ids are not
    reused.
    """
    text = memo.get(id(obj))
    if text is not None:
        return text
    if (isinstance(obj, dict) and any(isinstance(v, _NESTED) for v in obj.values())
            and all(isinstance(k, str) for k in obj)):
        return "{" + ", ".join(f"{json.dumps(k)}: {_encode(v, memo)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)) and any(isinstance(v, _NESTED) for v in obj):
        # a sampled grid repeats each region's field dict: look it up inline
        get = memo.get
        return "[" + ", ".join([get(id(v)) or _encode(v, memo) for v in obj]) + "]"
    text = memo[id(obj)] = json.dumps(obj)
    return text


def write_json(records, stream, summary=None):
    """One JSON document ``{"records": [...], "summary": {...}}`` with one
    compact record per line and the summary indented; floats are
    repr-exact and the bytes are deterministic.  All records share one
    ``_encode`` memo, so a field dict or x grid that several records hold
    is encoded once per document."""
    memo = {}
    stream.write('{"records": [')
    sep = "\n"
    for rec in records:
        stream.write(sep)
        stream.write(_encode(rec, memo))
        sep = ",\n"
    stream.write("\n]")
    if summary is not None:
        stream.write(',\n"summary": ')
        stream.write(json.dumps(summary, indent=1))
    stream.write("}\n")


def read_json(stream):
    """(records, summary) of a document ``write_json`` wrote; ``ValueError``
    if the stream is not JSON or not such a document."""
    doc = json.load(stream)
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and "time" in r and isinstance(r.get("diagnostics", {}), dict)
            for r in records):
        raise ValueError('expected {"records": [...]}, each record a mapping with a '
                         '"time" and, if it has them, a mapping of "diagnostics"')
    return records, doc.get("summary")


def render_json(records, summary=None):
    buf = io.StringIO()
    write_json(records, buf, summary)
    return buf.getvalue()
