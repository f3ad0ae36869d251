"""Wave-function kernels: frozen values, smoothness, monotonicity, and a
single kernel module shared by every solver."""

from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import gasnet.fronttracking
import gasnet.laxcurves
import gasnet.riemann
from gasnet import kernels

GAMMA = 1.4

# Frozen expected values, computed from the branch formulas at 30-digit
# precision (kappa=1, gamma=1.4, base state rho=1 resp. p=rho=1).
THETA2_SHOCK_AT_2 = 1.810533524431839
THETA2_RARE_AT_HALF = -0.3829165977087167
THETA3_SHOCK_AT_2 = 1.2802405326913332
THETA3_RARE_AT_HALF = -0.5568260815430875
PSI_SHOCK_AT_2 = 0.6201736729460423
PSI_RARE_AT_HALF = -0.5577463238730136
PHI_SHOCK_AT_2 = 1.625
PHI_RARE_AT_HALF = 0.6095068271022377


def test_theta2_values():
    assert kernels.theta2(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.theta2(2.0, 1.0, 1.0, GAMMA) == pytest.approx(THETA2_SHOCK_AT_2, rel=1e-14)
    assert kernels.theta2(0.5, 1.0, 1.0, GAMMA) == pytest.approx(THETA2_RARE_AT_HALF, rel=1e-14)


def test_theta3_values():
    assert kernels.theta3(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.theta3(2.0, 1.0, 1.0, GAMMA) == pytest.approx(THETA3_SHOCK_AT_2, rel=1e-14)
    assert kernels.theta3(0.5, 1.0, 1.0, GAMMA) == pytest.approx(THETA3_RARE_AT_HALF, rel=1e-14)


def test_psi_phi_values():
    assert kernels.psi(1.0, 1.0, 1.0, GAMMA) == 0.0
    assert kernels.psi(2.0, 1.0, 1.0, GAMMA) == pytest.approx(PSI_SHOCK_AT_2, rel=1e-14)
    assert kernels.psi(0.5, 1.0, 1.0, GAMMA) == pytest.approx(PSI_RARE_AT_HALF, rel=1e-14)
    assert kernels.phi(1.0, 1.0, 1.0, GAMMA) == 1.0
    assert kernels.phi(2.0, 1.0, 1.0, GAMMA) == pytest.approx(PHI_SHOCK_AT_2, rel=1e-14)
    assert kernels.phi(0.5, 1.0, 1.0, GAMMA) == pytest.approx(PHI_RARE_AT_HALF, rel=1e-14)


def _one_sided_derivatives(f, x0, args, h):
    # second-order one-sided stencils so the O(h) truncation term does not
    # mask a genuine kink at the branch point
    left = (3 * f(x0, *args) - 4 * f(x0 - h, *args) + f(x0 - 2 * h, *args)) / (2 * h)
    right = (-3 * f(x0, *args) + 4 * f(x0 + h, *args) - f(x0 + 2 * h, *args)) / (2 * h)
    return left, right


@pytest.mark.parametrize("f", [kernels.theta2, kernels.theta3])
def test_theta_c1_at_branch_point(f, rng):
    # one-sided difference quotients agree across the branch point
    for _ in range(20):
        rho_bar = rng.uniform(0.3, 3.0)
        kappa = rng.uniform(0.5, 2.0)
        h = 1e-5 * rho_bar
        left, right = _one_sided_derivatives(f, rho_bar, (rho_bar, kappa, GAMMA), h)
        assert right == pytest.approx(left, rel=1e-4)
        c_bar = sqrt(kappa * GAMMA * rho_bar ** (GAMMA - 1.0))
        assert left == pytest.approx(c_bar, rel=1e-4)


def test_psi_phi_c2_at_branch_point(rng):
    # first derivatives match to O(h); second differences stay bounded and
    # agree across the joint, the C^2 property of the parameterization
    for _ in range(20):
        p_k = rng.uniform(0.3, 3.0)
        rho_k = rng.uniform(0.3, 3.0)
        h = 1e-5 * p_k
        for f in (kernels.psi, kernels.phi):
            left, right = _one_sided_derivatives(f, p_k, (p_k, rho_k, GAMMA), h)
            assert right == pytest.approx(left, rel=1e-6)
            dd_left = (f(p_k, p_k, rho_k, GAMMA) - 2 * f(p_k - h, p_k, rho_k, GAMMA)
                       + f(p_k - 2 * h, p_k, rho_k, GAMMA)) / h**2
            dd_right = (f(p_k + 2 * h, p_k, rho_k, GAMMA) - 2 * f(p_k + h, p_k, rho_k, GAMMA)
                        + f(p_k, p_k, rho_k, GAMMA)) / h**2
            assert dd_right == pytest.approx(dd_left, rel=2e-3, abs=1e-6)


@pytest.mark.parametrize("f,df", [
    (kernels.theta2, kernels.dtheta2),
    (kernels.theta3, kernels.dtheta3),
    (kernels.psi, kernels.dpsi),
    (kernels.phi, kernels.dphi),
])
def test_analytic_derivatives_match_central_differences(f, df, rng):
    for _ in range(200):
        base = rng.uniform(0.3, 3.0)
        aux = rng.uniform(0.3, 3.0)
        x = base * rng.uniform(0.55, 1.8)
        if abs(x - base) < 1e-3 * base:
            continue
        h = 1e-6 * x
        fd = (f(x + h, base, aux, GAMMA) - f(x - h, base, aux, GAMMA)) / (2 * h)
        assert df(x, base, aux, GAMMA) == pytest.approx(fd, rel=5e-6)


def test_monotonicity_on_subsonic_domain(rng):
    # psi and theta3 increase globally; theta2 increases above the sonic
    # density of its curve, which contains the subsonic range sampled here
    for _ in range(300):
        base = rng.uniform(0.3, 3.0)
        aux = rng.uniform(0.3, 3.0)
        xs = np.sort(rng.uniform(0.6 * base, 1.8 * base, size=8))
        v_psi = [kernels.psi(x, base, aux, GAMMA) for x in xs]
        v_t2 = [kernels.theta2(x, base, aux, GAMMA) for x in xs]
        v_t3 = [kernels.theta3(x, base, aux, GAMMA) for x in xs]
        assert all(a < b for a, b in zip(v_psi, v_psi[1:]))
        assert all(a < b for a, b in zip(v_t2, v_t2[1:]))
        assert all(a < b for a, b in zip(v_t3, v_t3[1:]))


def test_star_solver_roundtrip(rng):
    for _ in range(100):
        p_l, p_r = rng.uniform(0.3, 3.0, size=2)
        rho_l, rho_r = rng.uniform(0.3, 3.0, size=2)
        u_l, u_r = rng.uniform(-0.5, 0.5, size=2)
        p, it = kernels.solve_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r,
                                        GAMMA, 1e-12, 100)
        assert it > 0
        res = (kernels.psi(p, p_l, rho_l, GAMMA)
               + kernels.psi(p, p_r, rho_r, GAMMA) + (u_r - u_l))
        assert abs(res) <= 1e-12


def test_vacuum_detection():
    p, it = kernels.solve_p_star_m1(1.0, -10.0, 1.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)
    assert it == -2
    r, it = kernels.solve_rho_star_m2(1.0, -10.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)
    assert it == -2
    r, it = kernels.solve_rho_star_m3(1.0, -10.0, 1.0, 10.0, 1.0, GAMMA, 1e-12, 100)
    assert it == -2


def test_single_kernel_module():
    assert gasnet.laxcurves.kernels is kernels
    assert gasnet.riemann.kernels is kernels
    assert gasnet.fronttracking.kernels is kernels
    package = Path(kernels.__file__).parent
    assert not [p.name for p in package.iterdir() if p.suffix in (".pyx", ".c")]
