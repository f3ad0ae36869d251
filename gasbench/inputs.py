"""Seeded input generation for the gasnet benchmark workloads.

Only the standard library is used here, so inputs are generated (and
digested) before ``gasnet`` is imported.  The same seed always gives the
same inputs: every random draw comes from one ``random.Random(seed)``.

Gas constants are gamma = 1.4, R = 1 throughout, as in the acceptance
suite.  Balanced states are built as in the suite's fixed-point
builders: every pipe shares one total enthalpy, outgoing pipes carry
the flux-weighted entropy mix, and outgoing areas close the mass
balance.
"""

import hashlib
import json
import math
import random
from pathlib import Path

GAMMA = 1.4
R = 1.0
CV = R / (GAMMA - 1.0)
MODELS = ("M1", "M2", "M3")

# riemann_batch composition per pass.  The structure (pipe counts, grid
# sizes, sample times, compressor kinds and model pairs) is stratified so
# that every seed exercises the same mix; the seed draws the physical
# values, the model of each junction pipe and the document order.
JUNCTION_DOCS = 168          # 28 per pipe count N = 3..8
COMPRESSOR_DOCS = 36         # CP1/CP2 x 9 inlet/outlet model pairs x 2
PERTURB_REL = 0.03           # junction data: a few percent off balance
COMPRESSOR_PERTURB_REL = 0.02
SHIPPED_RIEMANN = ("scenarios/y_junction_riemann.yaml",
                   "scenarios/compressor_head.yaml")
SHIPPED_TRACKING = "scenarios/y_junction_tracking.yaml"

# tracking_ladder: the acceptance ladder (feed M2 jump at x = 0.5 to
# 0.85 rho, west M3 jump at x = 0.4 to 0.88 rho, east constant).
LADDER_SHIFT = 1e-4          # seeded shift of jump positions and amplitudes
LADDER_EPSILON = 0.04
LADDER_LADDER = (0.04, 0.02, 0.01, 0.005)
LADDER_HORIZON = 1.2

# friction_split: the two-pipe M2 passthrough of the splitting tests.
FRICTION_SHIFT = 1e-4
FRICTION = {"lambda_f": 0.02, "diameter": 0.5, "epsilon": 0.02,
            "horizon": 1.0, "dt_split": 0.1}


def _f(x):
    """YAML/JSON float literal that round-trips exactly."""
    return repr(float(x))


def _state_from_enthalpy(model, kappa, f_signed, h_star):
    """(rho, u) of a subsonic state with total enthalpy h_star and Mach
    fraction |f_signed|; M1 states carry p = kappa * rho**gamma."""
    f = abs(f_signed)
    if model == "M3":
        c2 = h_star * (GAMMA - 1.0)
    else:
        c2 = h_star / (1.0 / (GAMMA - 1.0) + 0.5 * f * f)
    rho = (c2 / (kappa * GAMMA)) ** (1.0 / (GAMMA - 1.0))
    return rho, math.copysign(f * math.sqrt(c2), f_signed)


def _perturbed_state(model, rho, u, kappa, rel, rng):
    """State doc after multiplying rho and q by independent factors in
    [1 - rel, 1 + rel]; an M1 state keeps its total energy ratio."""
    fr = 1.0 + rel * rng.uniform(-1.0, 1.0)
    fq = 1.0 + rel * rng.uniform(-1.0, 1.0)
    rho2 = rho * fr
    u2 = rho * u * fq / rho2
    if model == "M1":
        p = kappa * rho ** GAMMA
        E2 = (p / (GAMMA - 1.0) + 0.5 * rho * u * u) * fr
        p2 = (GAMMA - 1.0) * (E2 - 0.5 * rho2 * u2 * u2)
        return {"rho": rho2, "u": u2, "p": p2}
    return {"rho": rho2, "u": u2, "kappa": kappa}


def _state_yaml(st):
    return "{" + ", ".join(f"{k}: {_f(v)}" for k, v in st.items()) + "}"


def _pipe_yaml(pid, area, model, state, indent="    "):
    return (f"{indent}- id: {pid}\n{indent}  area: {_f(area)}\n"
            f"{indent}  model: {model}\n{indent}  initial: {_state_yaml(state)}\n")


def _riemann_run_yaml(points, times):
    ts = ", ".join(_f(t) for t in times)
    return (f"run:\n  mode: riemann\n  sample_times: [{ts}]\n"
            f"  grid: {{points: {points}, length: 2.0}}\n  tol: 1.0e-10\n")


def junction_doc(rng, n, points, times):
    """Junction document: N pipes at the balanced fixed point, perturbed."""
    n_in = rng.randint(1, n - 1)
    models = [rng.choice(MODELS) for _ in range(n)]
    h_star = rng.uniform(2.0, 6.0)
    pipes = []
    num = den = 0.0
    for k in range(n_in):
        kappa = math.exp(rng.uniform(-0.3, 0.3))
        rho, u = _state_from_enthalpy(models[k], kappa, -rng.uniform(0.15, 0.55), h_star)
        area = rng.uniform(0.5, 2.0)
        # every model's entropy is cv*ln(kappa) at p = kappa*rho**gamma
        num += area * rho * u * CV * math.log(kappa)
        den += area * rho * u
        pipes.append((f"in{k}", area, models[k], rho, u, kappa))
    kappa_star = math.exp(num / den / CV)
    outs = []
    for k in range(n_in, n):
        rho, u = _state_from_enthalpy(models[k], kappa_star, rng.uniform(0.15, 0.55), h_star)
        outs.append((models[k], rho, u))
    w = [rng.uniform(0.2, 1.0) for _ in outs]
    total = sum(w)
    for k, ((model, rho, u), wk) in enumerate(zip(outs, w)):
        pipes.append((f"out{k}", wk / total * -den / (rho * u), model, rho, u, kappa_star))
    body = "".join(_pipe_yaml(pid, area, model,
                              _perturbed_state(model, rho, u, kappa, PERTURB_REL, rng))
                   for pid, area, model, rho, u, kappa in pipes)
    return ("constants: {gamma: 1.4, R: 1.0}\ntopology:\n  kind: junction\n"
            f"  pipes:\n{body}" + _riemann_run_yaml(points, times))


def compressor_doc(rng, kind, m_in, m_out, points, times):
    """Compressor document balanced for its control, inlet perturbed."""
    kappa1 = math.exp(rng.uniform(-0.2, 0.2))
    rho1 = math.exp(rng.uniform(-0.2, 0.2))
    c1 = math.sqrt(kappa1 * GAMMA * rho1 ** (GAMMA - 1.0))
    u1 = -rng.uniform(0.2, 0.5) * c1
    ratio = rng.uniform(1.2, 2.0)
    p1 = kappa1 * rho1 ** GAMMA
    p2 = ratio * p1
    e = (GAMMA - 1.0) / GAMMA
    T1 = p1 / (R * rho1)
    rho2 = p2 / (R * T1 * ratio ** e)
    q2 = -rho1 * u1
    u2 = q2 / rho2
    if not 0.0 < u2 < math.sqrt(GAMMA * p2 / rho2):
        raise ValueError("balanced compressor left the subsonic region")
    head = GAMMA * R / (GAMMA - 1.0) * T1 * (ratio ** e - 1.0)
    if kind == "CP1":
        control = f"{{kind: CP1, h_star: {_f(head)}}}"
    else:
        control = f"{{kind: CP2, p_star: {_f(0.9 * q2 * head)}, cp_coeff: 0.9}}"
    inlet = _perturbed_state(m_in, rho1, u1, kappa1, COMPRESSOR_PERTURB_REL, rng)
    kappa2 = p2 / rho2 ** GAMMA
    outlet = ({"rho": rho2, "u": u2, "p": p2} if m_out == "M1"
              else {"rho": rho2, "u": u2, "kappa": kappa2})
    area = _f(rng.uniform(0.5, 2.0))
    return ("constants: {gamma: 1.4, R: 1.0}\ntopology:\n  kind: compressor\n"
            f"  inlet: {{id: suction, area: {area}, model: {m_in}, "
            f"initial: {_state_yaml(inlet)}}}\n"
            f"  outlet: {{id: discharge, area: {area}, model: {m_out}, "
            f"initial: {_state_yaml(outlet)}}}\n"
            f"  control: {control}\n" + _riemann_run_yaml(points, times))


def riemann_batch(rng, root):
    """Riemann-mode scenario documents as (label, yaml) pairs."""
    docs = []
    for k in range(JUNCTION_DOCS):
        n = 3 + k % 6
        points = 32 if (k // 6) % 2 == 0 else 64
        times = [1.0] if (k // 12) % 2 == 0 else [0.5, 1.0]
        docs.append((f"junction_n{n}", junction_doc(rng, n, points, times)))
    pairs = [(a, b) for a in MODELS for b in MODELS]
    for k in range(COMPRESSOR_DOCS):
        kind = "CP1" if k % 2 == 0 else "CP2"
        m_in, m_out = pairs[(k // 2) % len(pairs)]
        points = 32 if (k // 18) == 0 else 64
        docs.append((f"compressor_{kind}",
                     compressor_doc(rng, kind, m_in, m_out, points, [1.0])))
    for rel in SHIPPED_RIEMANN:
        docs.append((f"shipped:{Path(rel).name}", (root / rel).read_text()))
    rng.shuffle(docs)
    return docs


def _ladder_base():
    h_star, kappa, f_in = 3.0, 1.0, 0.3
    rho_in, u_in = _state_from_enthalpy("M2", kappa, -f_in, h_star)
    rho_out, u_out = _state_from_enthalpy("M3", kappa, 0.25, h_star)
    area_out = -(rho_in * u_in) / (rho_out * u_out)
    return rho_in, u_in, rho_out, u_out, area_out


def ladder_doc(x_in, x_out, drop_in, drop_out):
    rho_in, u_in, rho_out, u_out, area = _ladder_base()

    def piece(x, rho, u):
        xr = "null" if x is None else _f(x)
        return f"          - {{x_right: {xr}, rho: {_f(rho)}, u: {_f(u)}, kappa: 1.0}}\n"

    ladder = ", ".join(_f(e) for e in LADDER_LADDER)
    return ("constants: {gamma: 1.4, R: 1.0}\ntopology:\n  kind: junction\n  pipes:\n"
            "    - id: feed\n      area: 2.0\n      model: M2\n      initial:\n        pieces:\n"
            + piece(x_in, rho_in, u_in) + piece(None, rho_in * (1.0 - drop_in), u_in)
            + f"    - id: west\n      area: {_f(area)}\n      model: M3\n"
            "      initial:\n        pieces:\n"
            + piece(x_out, rho_out, u_out) + piece(None, rho_out * (1.0 - drop_out), u_out)
            + f"    - id: east\n      area: {_f(area)}\n      model: M3\n"
            f"      initial: {{rho: {_f(rho_out)}, u: {_f(u_out)}, kappa: 1.0}}\n"
            f"run:\n  mode: simulate\n  horizon: {_f(LADDER_HORIZON)}\n"
            f"  epsilon: {_f(LADDER_EPSILON)}\n  epsilon_ladder: [{ladder}]\n"
            "  grid: {points: 64, length: 4.0}\n")


def tracking_ladder(rng, root):
    """One ladder document, its jumps shifted by at most LADDER_SHIFT
    (relative): the event count barely moves, while shifts of a few
    percent change it by up to 70% and the run time about twofold."""
    def shift(v):
        return v * (1.0 + LADDER_SHIFT * rng.uniform(-1.0, 1.0))

    return [("ladder", ladder_doc(shift(0.5), shift(0.4), shift(0.15), shift(0.12)))]


def friction_split(rng, root):
    """One split run: the two-pipe M2 passthrough with one interior jump
    per pipe, as plain numbers (per pipe a list of (x_right, rho, u)),
    plus the splitting parameters."""
    def shift(v):
        return v * (1.0 + FRICTION_SHIFT * rng.uniform(-1.0, 1.0))

    u = 0.3 * math.sqrt(GAMMA)           # Mach 0.3 at rho = kappa = 1
    return [("split", {
        "kappa": 1.0,
        "pipes": [[(shift(0.4), 1.0, -u), (None, 1.0 + shift(0.03), -u)],
                  [(shift(0.6), 1.0, u), (None, 1.0 - shift(0.03), u)]],
        **FRICTION})]


GENERATORS = {
    "riemann_batch": riemann_batch,
    "tracking_ladder": tracking_ladder,
    "friction_split": friction_split,
}


def generate(workload, seed, root):
    """(items, digest): one pass of the workload's seeded inputs as
    (label, input) pairs, and their sha256."""
    items = GENERATORS[workload](random.Random(seed), Path(root))
    blob = json.dumps(items, sort_keys=True, default=repr).encode()
    return items, hashlib.sha256(blob).hexdigest()
