"""Wave-curve kernels.

Scalar building blocks shared by the Riemann and coupling solvers: the
mass-flux increments theta2/theta3 of the isentropic wave curves, the
velocity increment psi and density parameterization phi of the full Euler
wave curves, their first derivatives, and the bracketed Newton solves for
the star parameter of a two-state Riemann problem.

Every function here is a pure function of floats.  The star solvers
return ``(value, iterations)``; ``iterations`` is negative on failure
(-1: budget exhausted, -2: vacuum) and the callers translate that into
exceptions.

All branch switches put the joining point (rho* = rho_bar, p* = p_k) on
the rarefaction side, where the closed forms stay regular.
"""

from math import sqrt


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


def _bracketed_newton(f, df, x, lo, hi, tol, max_iter):
    """Newton iteration kept inside [lo, hi]; bisection on bad steps.

    The bracket must satisfy sign(f(lo)) != sign(f(hi)).  `orient` below
    records which end is negative so bracket updates stay consistent.
    """
    f_lo = f(lo)
    increasing = f_lo < 0.0
    for it in range(1, max_iter + 1):
        fx = f(x)
        if abs(fx) <= tol:
            return x, it
        below = fx < 0.0 if increasing else fx > 0.0
        if below:
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
            return x, it
        x = x_new
    return x, -1


def solve_p_star_m1(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma, tol, max_iter):
    """Star pressure of the full Euler Riemann problem.

    Solves psi(p, left) + psi(p, right) + (u_r - u_l) = 0, with the
    two-rarefaction value as the initial guess.
    """
    c_l = sqrt(gamma * p_l / rho_l)
    c_r = sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        return 0.0, -2

    def f(p):
        return psi(p, p_l, rho_l, gamma) + psi(p, p_r, rho_r, gamma) + du

    def df(p):
        return dpsi(p, p_l, rho_l, gamma) + dpsi(p, p_r, rho_r, gamma)

    e = 0.5 * (gamma - 1.0) / gamma
    guess = ((c_l + c_r - 0.5 * (gamma - 1.0) * du) / (c_l / p_l**e + c_r / p_r**e)) ** (1.0 / e)
    lo = 1e-14 * min(p_l, p_r)
    hi = 2.0 * max(p_l, p_r, guess)
    grow = 0
    while f(hi) < 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = min(max(guess, lo * 2.0), hi * 0.5)
    return _bracketed_newton(f, df, x, lo, hi, tol, max_iter)


def solve_rho_star_m2(rho_l, u_l, rho_r, u_r, kappa, gamma, tol, max_iter):
    """Star density of the isentropic Riemann problem (momentum model)."""
    c_l = iso_sound_speed(rho_l, kappa, gamma)
    c_r = iso_sound_speed(rho_r, kappa, gamma)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= u_r - u_l:
        return 0.0, -2

    def f(rho):
        return (u_l - u_r) * rho - theta2(rho, rho_l, kappa, gamma) - theta2(rho, rho_r, kappa, gamma)

    def df(rho):
        return (u_l - u_r) - dtheta2(rho, rho_l, kappa, gamma) - dtheta2(rho, rho_r, kappa, gamma)

    lo = 1e-14 * min(rho_l, rho_r)
    hi = 2.0 * max(rho_l, rho_r)
    grow = 0
    while f(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = 0.5 * (rho_l + rho_r)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return _bracketed_newton(f, df, x, lo, hi, tol, max_iter)


def solve_rho_star_m3(rho_l, q_l, rho_r, q_r, kappa, gamma, tol, max_iter):
    """Star density of the low-velocity-model Riemann problem."""
    c_l = iso_sound_speed(rho_l, kappa, gamma)
    c_r = iso_sound_speed(rho_r, kappa, gamma)
    vacuum_guard = q_l - q_r + 2.0 * (c_l * rho_l + c_r * rho_r) / (gamma + 1.0)
    if vacuum_guard <= 0.0:
        return 0.0, -2

    def f(rho):
        return (q_l - q_r) - theta3(rho, rho_l, kappa, gamma) - theta3(rho, rho_r, kappa, gamma)

    def df(rho):
        return -dtheta3(rho, rho_l, kappa, gamma) - dtheta3(rho, rho_r, kappa, gamma)

    lo = 1e-14 * min(rho_l, rho_r)
    hi = 2.0 * max(rho_l, rho_r)
    grow = 0
    while f(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            return 0.0, -1
    x = 0.5 * (rho_l + rho_r)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return _bracketed_newton(f, df, x, lo, hi, tol, max_iter)
