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
"""

from math import sqrt

from .errors import NoConvergence, VacuumFormation

TOL = 1e-10
MAX_ITER = 100


def iso_sound_speed(rho, kappa, gamma):
    return sqrt(kappa * gamma * rho ** (gamma - 1.0))


def theta2(rho_star, rho_bar, kappa, gamma):
    """Mass-flux increment along the momentum-bearing isentropic curve."""
    if rho_star <= rho_bar:
        beta = 0.5 * (gamma - 1.0)
        a = 2.0 * sqrt(kappa * gamma) / (gamma - 1.0)
        return a * rho_star * (rho_star**beta - rho_bar**beta)
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    return sqrt((rho_star / rho_bar) * (rho_star - rho_bar) * dp)


def dtheta2(rho_star, rho_bar, kappa, gamma):
    if rho_star <= rho_bar:
        beta = 0.5 * (gamma - 1.0)
        a = 2.0 * sqrt(kappa * gamma) / (gamma - 1.0)
        return a * ((1.0 + beta) * rho_star**beta - rho_bar**beta)
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    g = (rho_star / rho_bar) * (rho_star - rho_bar) * dp
    dg = (
        (2.0 * rho_star - rho_bar) * dp
        + rho_star * (rho_star - rho_bar) * kappa * gamma * rho_star ** (gamma - 1.0)
    ) / rho_bar
    return 0.5 * dg / sqrt(g)


def theta3(rho_star, rho_bar, kappa, gamma):
    """Mass-flux increment along the low-velocity-model wave curve."""
    if rho_star <= rho_bar:
        delta = 0.5 * (gamma + 1.0)
        b = 2.0 * sqrt(kappa * gamma) / (gamma + 1.0)
        return b * (rho_star**delta - rho_bar**delta)
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    return sqrt((rho_star - rho_bar) * dp)


def dtheta3(rho_star, rho_bar, kappa, gamma):
    if rho_star <= rho_bar:
        # b * delta * rho^(delta-1) collapses to the local sound speed
        return sqrt(kappa * gamma) * rho_star ** (0.5 * (gamma - 1.0))
    dp = kappa * (rho_star**gamma - rho_bar**gamma)
    g = (rho_star - rho_bar) * dp
    dg = dp + (rho_star - rho_bar) * kappa * gamma * rho_star ** (gamma - 1.0)
    return 0.5 * dg / sqrt(g)


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
    consistent.  Returns (x, |f(x)|, iterations).
    """
    sign = 1.0 if increasing else -1.0
    for _ in range(201):
        if not sign * f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergence(f"{what}: no sign change below {hi:g}", iterations=0)
    x = min(max(guess, 2.0 * lo), 0.5 * hi)
    for it in range(1, max_iter + 1):
        fx = f(x)
        if abs(fx) <= tol:
            return x, abs(fx), it
        if sign * fx < 0.0:
            lo = x
        else:
            hi = x
        d = df(x)
        step_ok = d != 0.0
        if step_ok:
            x_new = x - fx / d
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            # bracket collapsed to machine resolution
            return x, abs(fx), it
        x = x_new
    res = abs(f(x))
    if res > tol:
        raise NoConvergence(f"{what}: residual {res:g} above tol {tol:g}",
                            residual=res, iterations=max_iter)
    return x, res, max_iter


def _vacuum(what):
    return VacuumFormation(f"{what}: data admit no positive-density solution")


def solve_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma,
                    tol=TOL, max_iter=MAX_ITER):
    """Star pressure of the full Euler Riemann problem.

    Solves psi(p, left) + psi(p, right) + (u_r - u_l) = 0, with the
    two-rarefaction value as the initial guess.
    """
    what = "full Euler Riemann solve"
    c_l = sqrt(gamma * p_l / rho_l)
    c_r = sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise _vacuum(what)

    def f(p):
        return psi(p, p_l, rho_l, gamma) + psi(p, p_r, rho_r, gamma) + du

    def df(p):
        return dpsi(p, p_l, rho_l, gamma) + dpsi(p, p_r, rho_r, gamma)

    e = 0.5 * (gamma - 1.0) / gamma
    guess = ((c_l + c_r - 0.5 * (gamma - 1.0) * du) / (c_l / p_l**e + c_r / p_r**e)) ** (1.0 / e)
    return _bracketed_newton(f, df, True, guess, 1e-14 * min(p_l, p_r),
                             2.0 * max(p_l, p_r, guess), tol, max_iter, what)


def solve_rho_star_m2(rho_l, u_l, rho_r, u_r, kappa, gamma, tol=TOL, max_iter=MAX_ITER):
    """Star density of the isentropic Riemann problem (momentum model)."""
    what = "isentropic Riemann solve"
    c_l = iso_sound_speed(rho_l, kappa, gamma)
    c_r = iso_sound_speed(rho_r, kappa, gamma)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= u_r - u_l:
        raise _vacuum(what)

    def f(rho):
        return (u_l - u_r) * rho - theta2(rho, rho_l, kappa, gamma) - theta2(rho, rho_r, kappa, gamma)

    def df(rho):
        return (u_l - u_r) - dtheta2(rho, rho_l, kappa, gamma) - dtheta2(rho, rho_r, kappa, gamma)

    return _bracketed_newton(f, df, False, 0.5 * (rho_l + rho_r), 1e-14 * min(rho_l, rho_r),
                             2.0 * max(rho_l, rho_r), tol, max_iter, what)


def solve_rho_star_m3(rho_l, q_l, rho_r, q_r, kappa, gamma, tol=TOL, max_iter=MAX_ITER):
    """Star density of the low-velocity-model Riemann problem."""
    what = "low-velocity Riemann solve"
    c_l = iso_sound_speed(rho_l, kappa, gamma)
    c_r = iso_sound_speed(rho_r, kappa, gamma)
    if q_l - q_r + 2.0 * (c_l * rho_l + c_r * rho_r) / (gamma + 1.0) <= 0.0:
        raise _vacuum(what)

    def f(rho):
        return (q_l - q_r) - theta3(rho, rho_l, kappa, gamma) - theta3(rho, rho_r, kappa, gamma)

    def df(rho):
        return -dtheta3(rho, rho_l, kappa, gamma) - dtheta3(rho, rho_r, kappa, gamma)

    return _bracketed_newton(f, df, False, 0.5 * (rho_l + rho_r), 1e-14 * min(rho_l, rho_r),
                             2.0 * max(rho_l, rho_r), tol, max_iter, what)
