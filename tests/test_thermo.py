"""State construction, EOS evaluation, eigenvalues, and classification."""

from math import exp, inf, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gasnet import (
    FlowRegime,
    GasConstants,
    Model,
    NonPositivePressure,
    PipeState,
    classify_subsonic,
    eigenvalues,
    iso_state,
    m1_state,
    pressure,
    thermo_quantities,
)
from gasnet.compressor import CompressorControl
from gasnet.junction import PipeSpec
from gasnet.thermo import edge_eigenvalue
from reference import eigenvalue_tuple

G = GasConstants(gamma=1.4, R=1.0)
SQ14 = sqrt(1.4)


def test_gas_constants_relations():
    g = GasConstants(gamma=1.4, R=287.0)
    assert g.cp - g.cv == pytest.approx(g.R)
    assert g.cp / g.cv == pytest.approx(g.gamma)
    assert g.cv == pytest.approx(717.5)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=1.0), dict(gamma=0.9), dict(R=0.0), dict(R=-1.0), dict(s0=-0.1),
])
def test_gas_constants_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GasConstants(**kwargs)


def test_state_field_discipline():
    with pytest.raises(ValueError):
        PipeState(Model.M1, 1.0, 0.0)               # missing E
    with pytest.raises(ValueError):
        PipeState(Model.M1, 1.0, 0.0, E=1.0, kappa=1.0)
    with pytest.raises(ValueError):
        PipeState(Model.M2, 1.0, 0.0, kappa=None)
    with pytest.raises(ValueError):
        PipeState(Model.M3, -1.0, 0.0, kappa=1.0)
    with pytest.raises(ValueError):
        PipeState(Model.M2, 1.0, 0.0, kappa=-2.0)


M1_STATE = (PipeState, dict(model=Model.M1, rho=1.0, q=0.5, E=2.5))
M2_STATE = (PipeState, dict(model=Model.M2, rho=1.0, q=0.5, kappa=1.0))
M3_STATE = (PipeState, dict(model=Model.M3, rho=1.0, q=0.5, kappa=1.0))
CONSTANTS = (GasConstants, dict(gamma=1.4, R=1.0, s0=0.0))
HEAD = (CompressorControl, dict(kind="CP1", value=1.0))
POWER = (CompressorControl, dict(kind="CP2", value=1.0, cp_coeff=0.5))
SPEC = (PipeSpec, dict(id="a", area=1.0, model=Model.M2))


def _row(n, valid, change, message):
    """One row of the table below under the id pytest gave it by position
    when the table took no ids, so that a row inserted anywhere, with an id
    of its own (``pytest.param(..., id="M2-rho-zero")``), renames no other."""
    return pytest.param(valid, change, message, id=f"valid{n}-change{n}-{message}")


@pytest.mark.parametrize("valid, change, message", [
    _row(0, M2_STATE, dict(rho=0.0), "density must be positive, got 0.0"),
    _row(1, M3_STATE, dict(rho=-1.0), "density must be positive, got -1.0"),
    _row(2, M1_STATE, dict(rho=float("nan")), "density must be positive, got nan"),
    _row(3, M1_STATE, dict(E=None), "M1 states carry a total energy density E"),
    _row(4, M1_STATE, dict(kappa=1.0), "M1 states do not carry kappa"),
    _row(5, M2_STATE, dict(kappa=None), "M2 states carry kappa"),
    _row(6, M3_STATE, dict(kappa=None), "M3 states carry kappa"),
    _row(7, M2_STATE, dict(kappa=0.0), "kappa must be positive, got 0.0"),
    _row(8, M3_STATE, dict(kappa=-2.0), "kappa must be positive, got -2.0"),
    _row(9, M2_STATE, dict(E=1.0), "M2 states do not carry E"),
    _row(10, M3_STATE, dict(E=1.0), "M3 states do not carry E"),
    _row(11, CONSTANTS, dict(gamma=1.0), "gamma must exceed 1, got 1.0"),
    _row(12, CONSTANTS, dict(R=0.0), "R must be positive, got 0.0"),
    _row(13, CONSTANTS, dict(R=-1.0), "R must be positive, got -1.0"),
    _row(14, CONSTANTS, dict(s0=-0.1), "s0 must be non-negative, got -0.1"),
    _row(15, HEAD, dict(kind="CP3"), "control kind must be CP1 or CP2, got 'CP3'"),
    _row(16, HEAD, dict(value=-1.0), "control value must be non-negative"),
    _row(17, POWER, dict(value=-1.0), "control value must be non-negative"),
    _row(18, POWER, dict(cp_coeff=None), "power control needs a positive cp_coeff"),
    _row(19, POWER, dict(cp_coeff=0.0), "power control needs a positive cp_coeff"),
    _row(20, SPEC, dict(area=0.0), "pipe 'a': area must be positive"),
    _row(21, SPEC, dict(area=-1.0), "pipe 'a': area must be positive"),
    # nan fails every comparison, so each guard is written to reject it
    _row(22, CONSTANTS, dict(s0=float("nan")), "s0 must be non-negative, got nan"),
    _row(23, HEAD, dict(value=float("nan")), "control value must be non-negative"),
    _row(24, POWER, dict(value=float("nan")), "control value must be non-negative"),
    # inf passes every lower bound, so each type also checks finiteness
    pytest.param(CONSTANTS, dict(gamma=inf), "gas constants must be finite, got gamma=inf, "
                 "R=1.0, s0=0.0", id="constants-gamma-inf"),
    pytest.param(CONSTANTS, dict(R=inf), "gas constants must be finite, got gamma=1.4, "
                 "R=inf, s0=0.0", id="constants-R-inf"),
    pytest.param(CONSTANTS, dict(s0=inf), "gas constants must be finite, got gamma=1.4, "
                 "R=1.0, s0=inf", id="constants-s0-inf"),
    pytest.param(SPEC, dict(area=inf), "pipe 'a': area must be finite", id="spec-area-inf"),
    pytest.param(HEAD, dict(value=inf), "control value and cp_coeff must be finite, "
                 "got inf, None", id="head-value-inf"),
    pytest.param(POWER, dict(value=inf), "control value and cp_coeff must be finite, "
                 "got inf, 0.5", id="power-value-inf"),
    pytest.param(POWER, dict(cp_coeff=inf), "control value and cp_coeff must be finite, "
                 "got 1.0, inf", id="power-cp_coeff-inf"),
])
def test_value_types_check_construction_and_copies(valid, change, message):
    # the constructor, _replace and _make of a checked value type reject
    # the same fields with the same message
    cls, fields = valid
    value = cls(**fields)
    assert type(value._replace()) is cls and value._replace() == value
    bad = {**value._asdict(), **change}
    for build in (lambda: cls(**{**fields, **change}), lambda: value._replace(**change),
                  lambda: cls._make(bad.values())):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_pressure_all_models():
    assert pressure(PipeState(Model.M1, 1.0, 0.0, E=2.5), G) == pytest.approx(1.0)
    assert pressure(PipeState(Model.M1, 1.0, 1.0, E=2.5), G) == pytest.approx(0.8)
    assert pressure(PipeState(Model.M2, 1.0, 0.0, kappa=1.0), G) == pytest.approx(1.0)
    assert pressure(PipeState(Model.M3, 2.0, 0.0, kappa=1.0), G) == \
        pytest.approx(2.0**1.4)


def test_pressure_error_on_nonpositive_internal_energy():
    state = PipeState(Model.M1, 1.0, 3.0, E=4.5)   # E - q^2/(2 rho) = 0
    with pytest.raises(NonPositivePressure):
        pressure(state, G)


def test_thermo_quantities_m1_reference_point():
    tq = thermo_quantities(PipeState(Model.M1, 1.0, 0.0, E=2.5), G)
    assert tq.s == pytest.approx(0.0, abs=1e-15)
    assert tq.h == pytest.approx(3.5)
    assert tq.c == pytest.approx(SQ14)


def test_thermo_quantities_isentropic():
    tq3 = thermo_quantities(PipeState(Model.M3, 1.0, 0.9, kappa=1.0), G)
    assert tq3.h == pytest.approx(3.5)
    assert tq3.c == pytest.approx(SQ14)
    tq2 = thermo_quantities(PipeState(Model.M2, 1.0, 0.5, kappa=1.0), G)
    assert tq2.h == pytest.approx(3.625)


def test_entropy_kappa_round_trip(rng):
    for _ in range(200):
        model = Model.M2 if rng.random() < 0.5 else Model.M3
        kappa = exp(rng.uniform(-2.0, 2.0))
        st = iso_state(model, rng.uniform(0.2, 5.0), 0.1, kappa)
        s = thermo_quantities(st, G).s
        assert exp((s - G.s0) / G.cv) == pytest.approx(kappa, rel=1e-12)


def test_m1_enthalpy_identity(rng):
    # h = c^2/(gamma-1) + u^2/2 for every valid state
    for _ in range(200):
        rho = rng.uniform(0.2, 5.0)
        u = rng.uniform(-2.0, 2.0)
        p = rng.uniform(0.2, 5.0)
        tq = thermo_quantities(m1_state(rho, u, p, G), G)
        assert tq.h == pytest.approx(tq.c**2 / 0.4 + 0.5 * u * u, rel=1e-12)


def test_eigenvalues():
    lam = eigenvalues(PipeState(Model.M1, 1.0, 0.0, E=2.5), G)
    assert lam == pytest.approx((-SQ14, 0.0, SQ14))
    lam = eigenvalues(PipeState(Model.M3, 1.0, 0.9, kappa=1.0), G)
    assert lam == pytest.approx((-SQ14, SQ14))
    lam = eigenvalues(PipeState(Model.M2, 1.0, 0.5, kappa=1.0), G)
    assert lam == pytest.approx((0.5 - SQ14, 0.5 + SQ14))


def test_eigenvalues_increasing_for_subsonic(rng):
    for _ in range(100):
        model = Model(rng.choice(["M1", "M2", "M3"]))
        rho = rng.uniform(0.2, 5.0)
        c_frac = rng.uniform(-0.95, 0.95)
        if model is Model.M1:
            p = rng.uniform(0.2, 5.0)
            c = sqrt(G.gamma * p / rho)
            st = m1_state(rho, c_frac * c, p, G)
        else:
            kappa = exp(rng.uniform(-1.0, 1.0))
            c = sqrt(kappa * G.gamma * rho ** (G.gamma - 1.0))
            st = iso_state(model, rho, c_frac * c, kappa)
        lam = eigenvalues(st, G)
        assert all(a < b for a, b in zip(lam, lam[1:]))


@hs.composite
def model_states(draw):
    """An M1, M2 or M3 state at Mach fraction u/c in (-1, 1): at rest,
    within one part in 1e12 (or one ulp) of sonic either way, or anywhere
    between."""
    model = draw(hs.sampled_from(list(Model)))
    rho = draw(hs.floats(0.05, 20.0))
    near_sonic = [s * (1.0 - e) for s in (1.0, -1.0) for e in (1e-12, 2.0**-53)]
    f = draw(hs.one_of(hs.just(0.0), hs.sampled_from(near_sonic),
                       hs.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)))
    if model is Model.M1:
        p = draw(hs.floats(0.05, 20.0))
        return m1_state(rho, f * sqrt(G.gamma * p / rho), p, G)
    kappa = draw(hs.floats(0.1, 10.0))
    return iso_state(model, rho, f * sqrt(kappa * G.gamma * rho ** (G.gamma - 1.0)), kappa)


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300)
@given(model_states())
def test_eigenvalues_match_the_tuple_definition(st):
    # each edge eigenvalue computed alone, and the tuple built from them,
    # equal the speeds computed together bit for bit, signed zeros included
    ref = eigenvalue_tuple(st, G)
    assert _bits(eigenvalues(st, G)) == _bits(ref)
    assert _bits([edge_eigenvalue(st, G, False), edge_eigenvalue(st, G, True)]) \
        == _bits([ref[0], ref[-1]])


def test_classify_subsonic():
    p, rho = 1.0, 1.0
    c = sqrt(1.4)
    assert classify_subsonic(m1_state(rho, 0.5 * c, p, G), G) is FlowRegime.D_PLUS
    st = iso_state(Model.M2, 1.0, -0.5 * c, 1.0)
    assert classify_subsonic(st, G) is FlowRegime.D_MINUS
    for model, u in ((Model.M1, 0.0), (Model.M2, 0.0), (Model.M3, 0.0)):
        st = (m1_state(rho, u, p, G) if model is Model.M1
              else iso_state(model, rho, u, 1.0))
        assert classify_subsonic(st, G) is FlowRegime.NOT_SUBSONIC
    assert classify_subsonic(m1_state(rho, 1.2 * c, p, G), G) is FlowRegime.NOT_SUBSONIC


def test_classification_reflection_symmetry(rng):
    for _ in range(100):
        rho = rng.uniform(0.2, 5.0)
        p = rng.uniform(0.2, 5.0)
        u = rng.uniform(0.05, 0.95) * sqrt(G.gamma * p / rho)
        st = m1_state(rho, u, p, G)
        assert classify_subsonic(st, G) is FlowRegime.D_PLUS
        assert classify_subsonic(st._replace(q=-st.q), G) is FlowRegime.D_MINUS
