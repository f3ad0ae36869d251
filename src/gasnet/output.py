"""Snapshot records and deterministic CSV/JSON serialization."""

import csv
import io
import json
from json.encoder import encode_basestring_ascii

from .thermo import (
    M1,
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
    if state.model is not M1:
        out["kappa"] = state.kappa
    return out


class FieldMemo:
    """``state_fields`` once per distinct state object.

    A record holds one field dict per run of grid points in one state,
    and a state object recurs in later runs and records, so it gets one
    shared dict.  The memo is keyed by identity and holds every state it
    keyed, so no id is reused while it lives.
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
    """The state a field dict of ``state_fields`` describes.  ``g`` is not
    read; it stays for callers that pass it positionally."""
    model = Model(fields["model"])
    if model is M1:
        return PipeState(model, fields["rho"], fields["q"], E=fields["E"])
    return PipeState(model, fields["rho"], fields["q"], kappa=fields["kappa"])


def snapshot_record(time, xs, pipe_runs, traces, diagnostics, fields):
    """A plain-dict snapshot: grid, sampled states, traces, diagnostics.

    ``pipe_runs`` maps pipe id -> ``[(state, count), ...]``, runs of
    grid points in one state from the left, and ``traces`` maps pipe id
    -> state; ``fields`` (a ``FieldMemo``) turns each state into its
    field dict.  A record's pipe holds ``[[count, field dict], ...]``,
    which expands to one field dict per point of ``xs``.  Grids and
    field dicts may be shared between pipes, runs and records.
    """
    return {
        "time": time,
        "x": xs,
        "pipes": {pid: [[n, fields(st)] for st, n in runs] for pid, runs in pipe_runs.items()},
        "traces": {pid: fields(st) for pid, st in traces.items()},
        "diagnostics": diagnostics,
    }


def _compact_encoder():
    """``json.dumps`` with its default arguments as one function: the C
    encoder ``json.dumps`` builds on each call, built once, or
    ``json.dumps`` itself where the json module has no C encoder.  It
    keeps no circular markers: what it writes, a record's flat field
    dicts, float grids, strings and diagnostics, holds no cycle."""
    make = json.encoder.c_make_encoder
    if make is None:
        return json.dumps
    encode = make(None, json.JSONEncoder().default, encode_basestring_ascii,
                  None, ": ", ", ", False, False, True)
    return lambda obj: "".join(encode(obj, 0))


_dumps = _compact_encoder()


def _record_text(rec, text):
    """``json.dumps(rec)`` of a record laid out as ``snapshot_record``
    lays it out, built from ``text(obj)``, the ``json.dumps`` text of each
    key, grid, pipe id and field dict.  Keys keep the record's order.  The
    value of any other key, and anything that is not a dict keyed by
    strings where the layout has one, is written by ``_dumps``."""
    if not _str_keyed(rec):
        return _dumps(rec)
    parts = []
    for key, value in rec.items():
        if key == "x":
            value = text(value)
        elif key == "pipes" and _str_keyed(value):
            value = ", ".join([f"{text(pid)}: [{_runs_text(runs, text)}]"
                               for pid, runs in value.items()])
            value = f"{{{value}}}"
        elif key == "traces" and _str_keyed(value):
            value = ", ".join([f"{text(pid)}: {text(fields)}" for pid, fields in value.items()])
            value = f"{{{value}}}"
        else:
            value = _dumps(value)
        parts.append(f"{text(key)}: {value}")
    return f"{{{', '.join(parts)}}}"


def _runs_text(runs, text):
    """The runs of one pipe, ``[count, field dict]`` each, without their
    brackets; a count that is not an int is written by ``_dumps``."""
    return ", ".join([f"[{n}, {text(fields)}]" if type(n) is int else
                      f"[{_dumps(n)}, {text(fields)}]" for n, fields in runs])


def _str_keyed(value):
    """Whether ``value`` is a dict whose keys are all strings, which
    ``json.dumps`` writes as they are."""
    return type(value) is dict and all(type(key) is str for key in value)


def write_csv(records, stream):
    """One row per (time, pipe, grid point), each run expanded over its
    stretch of the grid; header always written.  The csv module quotes the
    header and the pipe ids; time, grid and state columns are float reprs,
    which need no quoting, so each run's state columns are joined once and
    shared by its rows."""
    stream.write(_csv_line(CSV_COLUMNS))
    for rec in records:
        t = repr(float(rec["time"]))
        xs = [repr(float(x)) for x in rec["x"]]
        for pipe_id, runs in rec["pipes"].items():
            head = _csv_line([t, pipe_id])[:-1]
            start = 0
            for count, st in runs:
                tail = ",".join([repr(float(st[c])) for c in CSV_COLUMNS[3:]])
                stream.write("".join([f"{head},{x},{tail}\n" for x in xs[start:start + count]]))
                start += count


def _csv_line(fields):
    """One CSV row as ``csv.writer`` writes it, newline included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def write_json(records, stream, summary=None):
    """One JSON document ``{"records": [...], "summary": {...}}`` with one
    compact record per line and the summary indented; floats are
    repr-exact and the bytes are deterministic.

    Each line is ``json.dumps`` of its record, written by one C encoder
    (``_dumps``).  Records share their grids and field dicts, so each
    distinct grid, field dict and pipe id is encoded once per call: the
    texts are keyed by identity, each next to its object so that no id is
    reused, and dropped on return, so a dict changed between calls is
    encoded afresh."""
    texts = {}

    def text(obj):
        hit = texts.get(id(obj))
        if hit is None:
            hit = texts[id(obj)] = (obj, _dumps(obj))
        return hit[1]

    stream.write('{"records": [')
    sep = "\n"
    for rec in records:
        stream.write(sep)
        stream.write(_record_text(rec, text))
        sep = ",\n"
    stream.write("\n]")
    if summary is not None:
        stream.write(',\n"summary": ')
        stream.write(summary_text(summary))
    stream.write("}\n")


def summary_text(summary):
    """The run summary as every output writes it: ``json.dumps(summary,
    indent=1)``.  ``_write_indented`` writes a tree of dicts keyed by
    strings, lists, strings, ints, floats, bools and None; a summary with
    anything else is left to ``json.dumps``."""
    out = []
    try:
        _write_indented(summary, "\n", out)
    except _NotWritten:
        return json.dumps(summary, indent=1)
    return "".join(out)


class _NotWritten(Exception):
    """A value ``_write_indented`` leaves to ``json.dumps``."""


# json.dumps's words for the floats whose repr is not JSON
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_indented(value, pad, out):
    """Append to ``out`` the text ``json.dumps(..., indent=1)`` gives
    ``value`` where its lines start with ``pad`` (a newline and the
    indentation); raise _NotWritten at a value of another type, a
    subclass included, or at a key that is not a string."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is float:
        text = repr(value)
        out.append(_FLOAT_WORDS.get(text, text))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner, sep = pad + " ", "{"
        for key, item in value.items():
            if type(key) is not str:
                raise _NotWritten
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_indented(item, inner, out)
            sep = ","
        out.append(pad + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner, sep = pad + " ", "["
        for item in value:
            out.append(sep + inner)
            _write_indented(item, inner, out)
            sep = ","
        out.append(pad + "]")
    else:
        raise _NotWritten


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
