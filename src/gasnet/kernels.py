"""Wave-curve kernels.

Scalar building blocks shared by the Riemann and coupling solvers: the
mass-flux increments theta2/theta3 of the isentropic wave curves, the
velocity increment psi and density parameterization phi of the full Euler
wave curves, their first derivatives, and the bracketed Newton solves for
the star parameter of a two-state Riemann problem.

Every function here is a pure function of floats.  The star solvers
return ``(value, residual, iterations)``, where ``residual`` is |f| of the
equation they iterated, and raise ``VacuumFormation`` or
``NoConvergence`` themselves, so callers need not re-evaluate a star
equation for its residual.

All branch switches put the joining point (rho* = rho_bar, p* = p_k) on
the rarefaction side, where the closed forms stay regular.

Each star solve starts from the two-rarefaction closed form (Toro,
Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd ed., ch. 4),
whose base is positive exactly when the data open no vacuum.  When the
start lies on the rarefaction branch of both wave curves it is the root,
returned after one residual evaluation; otherwise it is within O(delta^3)
of the root for waves of strength delta, and Newton runs from it.  A
Newton iterate is accepted within tol only when it is converged to
rounding: an exact zero, reached by a step of relative size at most
2**-26 (the next error is of the order of its square), or one whose
Newton correction rounds to nothing.  An iterate merely within tol could
be 1e-10 off, and the tracker would build fronts that miss their Lax
curve by that much.
"""

from math import sqrt

from .errors import NoConvergence, VacuumFormation

TOL = 1e-10
MAX_ITER = 100
_ROUNDING_STEP = 2.0**-26   # a Newton step this small leaves an error below rounding


def theta2(rho_star, rho_bar, kappa, gamma):
    """Mass-flux increment along the momentum-bearing isentropic curve."""
    if rho_star <= rho_bar:
        beta = 0.5 * (gamma - 1.0)
        a = 2.0 * sqrt(kappa * gamma) / (gamma - 1.0)
        return a * rho_star * (rho_star**beta - rho_bar**beta)
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    return sqrt((rho_star / rho_bar) * (rho_star - rho_bar) * dp)


def dtheta2(rho_star, rho_bar, kappa, gamma):
    # a shock a rounding above the joint (g = 0) takes the rarefaction
    # slope, which the shock slope meets there (theta2 is C1)
    if rho_star > rho_bar:
        dp = kappa * (rho_star**gamma - rho_bar**gamma)
        g = (rho_star / rho_bar) * (rho_star - rho_bar) * dp
        if g > 0.0:
            dg = (
                (2.0 * rho_star - rho_bar) * dp
                + rho_star * (rho_star - rho_bar) * kappa * gamma * rho_star ** (gamma - 1.0)
            ) / rho_bar
            return 0.5 * dg / sqrt(g)
    beta = 0.5 * (gamma - 1.0)
    a = 2.0 * sqrt(kappa * gamma) / (gamma - 1.0)
    return a * ((1.0 + beta) * rho_star**beta - rho_bar**beta)


def theta3(rho_star, rho_bar, kappa, gamma):
    """Mass-flux increment along the low-velocity-model wave curve."""
    if rho_star <= rho_bar:
        delta = 0.5 * (gamma + 1.0)
        b = 2.0 * sqrt(kappa * gamma) / (gamma + 1.0)
        return b * (rho_star**delta - rho_bar**delta)
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    return sqrt((rho_star - rho_bar) * dp)


def dtheta3(rho_star, rho_bar, kappa, gamma):
    # g = 0 a rounding above the joint: the rarefaction slope, as in dtheta2
    if rho_star > rho_bar:
        dp = kappa * (rho_star**gamma - rho_bar**gamma)
        g = (rho_star - rho_bar) * dp
        if g > 0.0:
            dg = dp + (rho_star - rho_bar) * kappa * gamma * rho_star ** (gamma - 1.0)
            return 0.5 * dg / sqrt(g)
    # b * delta * rho^(delta-1) collapses to the local sound speed
    return sqrt(kappa * gamma) * rho_star ** (0.5 * (gamma - 1.0))


def psi(p_star, p_k, rho_k, gamma):
    """Velocity increment along the full Euler acoustic wave curves."""
    if p_star <= p_k:
        c_k = sqrt(gamma * p_k / rho_k)
        e = 0.5 * (gamma - 1.0) / gamma
        return 2.0 * c_k / (gamma - 1.0) * ((p_star / p_k) ** e - 1.0)
    mu2 = (gamma - 1.0) / (gamma + 1.0)
    return (p_star - p_k) * sqrt((1.0 - mu2) / (rho_k * (p_star + mu2 * p_k)))


def dpsi(p_star, p_k, rho_k, gamma):
    if p_star <= p_k:
        c_k = sqrt(gamma * p_k / rho_k)
        e = 0.5 * (gamma - 1.0) / gamma
        return c_k / (gamma * p_star) * (p_star / p_k) ** e
    mu2 = (gamma - 1.0) / (gamma + 1.0)
    root = sqrt((1.0 - mu2) / (rho_k * (p_star + mu2 * p_k)))
    return root * (1.0 - 0.5 * (p_star - p_k) / (p_star + mu2 * p_k))


def phi(p_star, p_k, rho_k, gamma):
    """Density reached through the full Euler acoustic wave curves."""
    if p_star <= p_k:
        return rho_k * (p_star / p_k) ** (1.0 / gamma)
    mu2 = (gamma - 1.0) / (gamma + 1.0)
    return rho_k * (p_star + mu2 * p_k) / (mu2 * p_star + p_k)


def dphi(p_star, p_k, rho_k, gamma):
    if p_star <= p_k:
        return rho_k * (p_star / p_k) ** (1.0 / gamma) / (gamma * p_star)
    mu2 = (gamma - 1.0) / (gamma + 1.0)
    return rho_k * p_k * (1.0 - mu2 * mu2) / (mu2 * p_star + p_k) ** 2


def _bracketed_newton(f, df, increasing, guess, lo, hi, tol, max_iter, what):
    """Root of a monotone scalar equation f = 0 above lo.

    ``hi`` doubles until f changes sign; Newton steps from ``guess`` then
    stay inside [lo, hi] and fall back to bisection when they leave it.
    ``increasing`` says which way f runs, so bracket updates stay
    consistent.  An iterate within tol is accepted when it is an exact
    zero or a Newton step of relative size at most ``_ROUNDING_STEP``
    produced it; any iterate whose Newton correction rounds to nothing,
    or whose bracket collapsed, is returned as it is.  Returns
    (x, |f(x)|, iterations).
    """
    sign = 1.0 if increasing else -1.0
    for _ in range(201):
        if not sign * f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergence(f"{what}: no sign change below {hi:g}", iterations=0)
    x = min(max(guess, 2.0 * lo), 0.5 * hi)
    polished = False
    for it in range(1, max_iter + 1):
        fx = f(x)
        if abs(fx) <= tol and (polished or fx == 0.0):
            return x, abs(fx), it
        if sign * fx < 0.0:
            lo = x
        else:
            hi = x
        d = df(x)
        step_ok = d != 0.0
        if step_ok:
            x_new = x - fx / d
            if x_new == x:
                # a Newton correction below rounding
                return x, abs(fx), it
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            # bracket collapsed to machine resolution
            return x, abs(fx), it
        polished = step_ok and abs(x_new - x) <= _ROUNDING_STEP * x
        x = x_new
    res = abs(f(x))
    if res > tol:
        raise NoConvergence(f"{what}: residual {res:g} above tol {tol:g}",
                            residual=res, iterations=max_iter)
    return x, res, max_iter


def _star_root(f, df, increasing, start, rarefactions, lo, hi, tol, max_iter, what):
    """Star root from the two-rarefaction closed form ``start``: the root
    itself when ``rarefactions`` (the start lies on the rarefaction
    branch of both wave curves), returned with its residual after one
    evaluation of f; otherwise the start of ``_bracketed_newton``."""
    if rarefactions:
        return start, abs(f(start)), 1
    return _bracketed_newton(f, df, increasing, start, lo, hi, tol, max_iter, what)


def _vacuum(what):
    return VacuumFormation(f"{what}: data admit no positive-density solution")


def solve_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma,
                    tol=TOL, max_iter=MAX_ITER):
    """Star pressure of the full Euler Riemann problem.

    Solves psi(p, left) + psi(p, right) + (u_r - u_l) = 0 from the
    two-rarefaction value
    p^e = (c_l + c_r - (gamma - 1) (u_r - u_l) / 2) / (c_l / p_l^e + c_r / p_r^e),
    e = (gamma - 1) / (2 gamma), which is the root when p <= min(p_l, p_r).
    """
    what = "full Euler Riemann solve"
    c_l = sqrt(gamma * p_l / rho_l)
    c_r = sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    e = 0.5 * (gamma - 1.0) / gamma
    num = c_l + c_r - 0.5 * (gamma - 1.0) * du
    if num <= 0.0:
        raise _vacuum(what)

    def f(p):
        return psi(p, p_l, rho_l, gamma) + psi(p, p_r, rho_r, gamma) + du

    def df(p):
        return dpsi(p, p_l, rho_l, gamma) + dpsi(p, p_r, rho_r, gamma)

    start = (num / (c_l / p_l**e + c_r / p_r**e)) ** (1.0 / e)
    return _star_root(f, df, True, start, start <= min(p_l, p_r), 1e-14 * min(p_l, p_r),
                      2.0 * max(p_l, p_r, start), tol, max_iter, what)


def solve_rho_star_m2(rho_l, u_l, rho_r, u_r, kappa, gamma, tol=TOL, max_iter=MAX_ITER):
    """Star density of the isentropic Riemann problem (momentum model).

    Starts from the two-rarefaction value
    rho^beta = (rho_l^beta + rho_r^beta + (u_l - u_r) / a) / 2, the root
    when rho <= min(rho_l, rho_r) (beta and a as in theta2).
    """
    what = "isentropic Riemann solve"
    beta = 0.5 * (gamma - 1.0)
    a = 2.0 * sqrt(kappa * gamma) / (gamma - 1.0)
    base = 0.5 * (rho_l**beta + rho_r**beta + (u_l - u_r) / a)
    if base <= 0.0:
        raise _vacuum(what)

    def f(rho):
        return (u_l - u_r) * rho - theta2(rho, rho_l, kappa, gamma) - theta2(rho, rho_r, kappa, gamma)

    def df(rho):
        return (u_l - u_r) - dtheta2(rho, rho_l, kappa, gamma) - dtheta2(rho, rho_r, kappa, gamma)

    start = base ** (1.0 / beta)
    return _star_root(f, df, False, start, start <= min(rho_l, rho_r), 1e-14 * min(rho_l, rho_r),
                      2.0 * max(rho_l, rho_r, start), tol, max_iter, what)


def solve_rho_star_m3(rho_l, q_l, rho_r, q_r, kappa, gamma, tol=TOL, max_iter=MAX_ITER):
    """Star density of the low-velocity-model Riemann problem.

    Starts from the two-rarefaction value
    rho^delta = (rho_l^delta + rho_r^delta + (q_l - q_r) / b) / 2, the
    root when rho <= min(rho_l, rho_r) (delta and b as in theta3).
    """
    what = "low-velocity Riemann solve"
    delta = 0.5 * (gamma + 1.0)
    b = 2.0 * sqrt(kappa * gamma) / (gamma + 1.0)
    base = 0.5 * (rho_l**delta + rho_r**delta + (q_l - q_r) / b)
    if base <= 0.0:
        raise _vacuum(what)

    def f(rho):
        return (q_l - q_r) - theta3(rho, rho_l, kappa, gamma) - theta3(rho, rho_r, kappa, gamma)

    def df(rho):
        return -dtheta3(rho, rho_l, kappa, gamma) - dtheta3(rho, rho_r, kappa, gamma)

    start = base ** (1.0 / delta)
    return _star_root(f, df, False, start, start <= min(rho_l, rho_r), 1e-14 * min(rho_l, rho_r),
                      2.0 * max(rho_l, rho_r, start), tol, max_iter, what)
