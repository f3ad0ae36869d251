"""State construction, EOS evaluation, eigenvalues, and classification."""

from dataclasses import replace
from math import exp, sqrt

import numpy as np
import pytest

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
        assert classify_subsonic(replace(st, q=-st.q), G) is FlowRegime.D_MINUS
