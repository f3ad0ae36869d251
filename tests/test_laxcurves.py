"""Wave-curve evaluations, trace quantities, and base-point derivatives."""

from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings

from gasnet import GasConstants, Model, NotSubsonic, PipeState, iso_state, m1_state
from gasnet.laxcurves import (
    ISO,
    M1_IN,
    M1_OUT,
    curve_parameter,
    fan_edge_speed,
    lax_iso,
    lax_m1,
    trace_eval,
)
from reference import curve_derivatives_at_base, fan_edge_speed_from_tuple
from test_thermo import model_states

G = GasConstants(gamma=1.4, R=287.0)
GU = GasConstants(gamma=1.4, R=1.0)
SQ14 = sqrt(1.4)


def test_curves_pass_through_base_point(rng):
    for _ in range(50):
        rho = rng.uniform(0.3, 3.0)
        u = rng.uniform(-0.5, 0.5)
        p = rng.uniform(0.3, 3.0)
        base = m1_state(rho, u, p, GU)
        for family in (1, 3):
            st = lax_m1(family, p, base, GU)
            assert st.rho == pytest.approx(rho, rel=1e-14)
            assert st.q == pytest.approx(base.q, rel=1e-14, abs=1e-14)
            assert st.E == pytest.approx(base.E, rel=1e-14)
        st = lax_m1(2, 0.0, base, GU)
        assert st == base
        kappa = rng.uniform(0.5, 2.0)
        for model in (Model.M2, Model.M3):
            ibase = iso_state(model, rho, u, kappa)
            for family in (1, 2):
                st = lax_iso(family, rho, ibase, GU)
                assert st.rho == pytest.approx(rho, rel=1e-14)
                assert st.q == pytest.approx(ibase.q, rel=1e-14, abs=1e-14)


def test_contact_shift_example():
    base = PipeState(Model.M1, 1.0, 0.0, E=2.5)
    st = lax_m1(2, 0.1, base, GU)
    assert (st.rho, st.q, st.E) == pytest.approx((1.1, 0.0, 2.5))


def test_m3_family2_composes_theta3():
    base = iso_state(Model.M3, 1.0, 0.0, 1.0)
    st = lax_iso(2, 2.0, base, GU)
    assert st.rho == 2.0
    assert st.q == pytest.approx(1.2802405326913332, rel=1e-13)


def test_m2_family1_composition():
    base = iso_state(Model.M2, 1.0, 0.3, 1.0)
    st = lax_iso(1, 2.0, base, GU)
    from gasnet import kernels

    assert st.q == pytest.approx(0.6 - kernels.theta2(2.0, 1.0, 1.0, 1.4), rel=1e-13)


def test_base_derivatives_closed_forms():
    # reference state (rho, u, p) = (1, 0, 1)
    base = m1_state(1.0, 0.0, 1.0, G)
    d = curve_derivatives_at_base(M1_OUT, base, G)
    assert d["dq_dsigma"] == pytest.approx(SQ14 / 1.4, rel=1e-12)
    assert d["dq_dtau"] == 0.0
    assert d["ds_dtau"] == pytest.approx(-1.4 * 717.5, rel=1e-12)
    assert d["dh_dtau"] == pytest.approx(-1.4 / 0.4, rel=1e-12)
    assert d["ds_dsigma"] == 0.0
    assert d["dp_dsigma"] == 1.0
    base2 = iso_state(Model.M2, 1.0, 0.2, 1.0)
    d2 = curve_derivatives_at_base(ISO, base2, G)
    assert d2["dq_dsigma"] == pytest.approx(0.2 + SQ14, rel=1e-12)
    assert d2["dh_dsigma"] == pytest.approx((0.2 + SQ14) * SQ14, rel=1e-12)
    assert d2["dp_dsigma"] == pytest.approx(1.4, rel=1e-12)


def test_base_derivatives_require_subsonic():
    fast = m1_state(1.0, 2.0 * SQ14, 1.0, G)
    with pytest.raises(NotSubsonic):
        curve_derivatives_at_base(M1_IN, fast, G)


def _random_role_state(rng, role, g):
    rho = rng.uniform(0.3, 3.0)
    f = rng.uniform(0.1, 0.8)
    if role == ISO:
        model = Model.M2 if rng.random() < 0.5 else Model.M3
        kappa = exp(rng.uniform(-0.7, 0.7))
        c = sqrt(kappa * g.gamma * rho ** (g.gamma - 1.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return iso_state(model, rho, sign * f * c, kappa)
    p = rng.uniform(0.3, 3.0)
    c = sqrt(g.gamma * p / rho)
    u = f * c if role == M1_OUT else -f * c
    return m1_state(rho, u, p, g)


@pytest.mark.parametrize("role", [M1_OUT, M1_IN, ISO])
def test_trace_eval_matches_base_closed_forms(role, rng):
    for _ in range(100):
        base = _random_role_state(rng, role, GU)
        sigma0 = curve_parameter(1, base, GU)
        te = trace_eval(role, base, GU, sigma0, 0.0)
        d = curve_derivatives_at_base(role, base, GU)
        assert te.dq_dsigma == pytest.approx(d["dq_dsigma"], rel=1e-10)
        assert te.dh_dsigma == pytest.approx(d["dh_dsigma"], rel=1e-10)
        assert te.ds_dsigma == pytest.approx(d["ds_dsigma"], abs=1e-10)
        assert te.dp_dsigma == pytest.approx(d["dp_dsigma"], rel=1e-10)
        assert te.dT_dsigma == pytest.approx(d["dT_dsigma"], rel=1e-10)
        if role == M1_OUT:
            assert te.dq_dtau == pytest.approx(d["dq_dtau"], rel=1e-10, abs=1e-12)
            assert te.dh_dtau == pytest.approx(d["dh_dtau"], rel=1e-10)
            assert te.ds_dtau == pytest.approx(d["ds_dtau"], rel=1e-10)


@pytest.mark.parametrize("role", [M1_OUT, M1_IN, ISO])
def test_trace_eval_derivatives_off_base(role, rng):
    # exact chain-rule derivatives vs central differences, on both branches
    for _ in range(60):
        base = _random_role_state(rng, role, GU)
        sigma0 = curve_parameter(1, base, GU)
        sigma = sigma0 * rng.uniform(0.8, 1.25)
        tau = rng.uniform(-0.1, 0.1) * base.rho if role == M1_OUT else 0.0
        te = trace_eval(role, base, GU, sigma, tau)
        h = 1e-6 * sigma
        tp = trace_eval(role, base, GU, sigma + h, tau)
        tm = trace_eval(role, base, GU, sigma - h, tau)
        for name in ("q", "h", "s", "p", "T"):
            fd = (getattr(tp, name) - getattr(tm, name)) / (2 * h)
            an = getattr(te, f"d{name}_dsigma")
            assert an == pytest.approx(fd, rel=5e-6, abs=1e-8)
        if role == M1_OUT:
            ht = 1e-6 * base.rho
            tp = trace_eval(role, base, GU, sigma, tau + ht)
            tm = trace_eval(role, base, GU, sigma, tau - ht)
            for name in ("q", "h", "s", "p"):
                fd = (getattr(tp, name) - getattr(tm, name)) / (2 * ht)
                an = getattr(te, f"d{name}_dtau")
                assert an == pytest.approx(fd, rel=5e-6, abs=1e-8)


def test_entropy_stationary_along_acoustic_curves(rng):
    # ds/dsigma vanishes at the base point for the full Euler families
    for role in (M1_OUT, M1_IN):
        for _ in range(30):
            base = _random_role_state(rng, role, GU)
            sigma0 = curve_parameter(1, base, GU)
            h = 1e-6 * sigma0
            tp = trace_eval(role, base, GU, sigma0 + h, 0.0)
            tm = trace_eval(role, base, GU, sigma0 - h, 0.0)
            assert (tp.s - tm.s) / (2 * h) == pytest.approx(0.0, abs=1e-6)


def test_family2_negative_density_raises():
    base = PipeState(Model.M1, 1.0, 0.0, E=2.5)
    from gasnet import NonPositiveDensity

    with pytest.raises(NonPositiveDensity):
        lax_m1(2, -1.5, base, GU)


@pytest.mark.parametrize("family", [1, 3])
@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_acoustic_point_at_non_positive_pressure_raises(family, sigma):
    # the state comes from m1_state, which rejects the pressure before a
    # complex or zero density reaches PipeState
    from gasnet import NonPositivePressure

    with pytest.raises(NonPositivePressure):
        lax_m1(family, sigma, m1_state(1.0, 0.1, 1.0, GU), GU)


@settings(max_examples=300)
@given(model_states())
def test_fan_edge_speed_matches_the_eigenvalue_tuple(st):
    # the one eigenvalue fan_edge_speed computes is the entry of the whole
    # tuple it replaces, bit for bit, for every family of the model
    families = (1, 2, 3) if st.model is Model.M1 else (1, 2)
    assert ([fan_edge_speed(k, st, GU).hex() for k in families]
            == [fan_edge_speed_from_tuple(k, st, GU).hex() for k in families])
