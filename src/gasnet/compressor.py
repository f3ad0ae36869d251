"""Two-pipe compressor coupling for adiabatic-head and power control.

A compressor is the junction coupling of :mod:`gasnet.junction` between
one incoming and one outgoing pipe of equal area, built as
``JunctionProblem(pipes, g, control)``.  Two rows change: the control's
pressure-rise balance minus the control value replaces equality of total
enthalpy, and the entropy condition of a full-Euler outlet, whose mix
has the inlet as its only incoming pipe, reads s_outlet = s_inlet.  For
isentropic outlets the entropy condition is absorbed by assigning the
inlet entropy to the outlet region, and the system reduces to two
equations.

:class:`CompressorControl` provides the balance, its gradient and its
row scale.  The residual keeps the pressure-rise row as (balance -
control); the regularity argument orients it as (control - balance),
which flips only the sign of the base Jacobian's determinant, not the
solution.
"""

from math import inf
from typing import NamedTuple

from .errors import NonPositiveFlux
from .junction import DEFAULT_TOL, JunctionProblem, StarSolution, _solve
from .thermo import GasConstants, PipeState, _Checked, temperature

ADIABATIC_HEAD = "CP1"
POWER = "CP2"


class _ControlFields(NamedTuple):
    kind: str
    value: float
    cp_coeff: float


class CompressorControl(_Checked, _ControlFields):
    """Either a prescribed adiabatic head H* (J/kg) or power P* (W).

    Power control carries the proportionality coefficient relating power
    to mass flux times head (P = cp_coeff * q * H).
    """

    __slots__ = ()

    def __new__(cls, kind, value, cp_coeff=None):
        if kind not in (ADIABATIC_HEAD, POWER):
            raise ValueError(f"control kind must be CP1 or CP2, got {kind!r}")
        if not value >= 0.0:
            raise ValueError("control value must be non-negative")
        if kind == POWER and (cp_coeff is None or not cp_coeff > 0.0):
            raise ValueError("power control needs a positive cp_coeff")
        if inf in (value, cp_coeff):
            raise ValueError(f"control value and cp_coeff must be finite, got {value}, {cp_coeff}")
        return tuple.__new__(cls, (kind, value, cp_coeff))

    @staticmethod
    def head(T_in, p_in, p_out, g: GasConstants):
        """Adiabatic head cp * T_in * ((p_out/p_in)^((gamma-1)/gamma) - 1)."""
        return g.cp * T_in * ((p_out / p_in) ** ((g.gamma - 1.0) / g.gamma) - 1.0)

    def balance(self, T_in, p_in, p_out, q_out, g: GasConstants):
        """The controlled quantity at inlet temperature and pressure and
        outlet pressure and mass flux: the head, or the power
        cp_coeff * q_out * head."""
        head = self.head(T_in, p_in, p_out, g)
        if self.kind == ADIABATIC_HEAD:
            return head
        if q_out <= 0.0:
            raise NonPositiveFlux(f"power balance evaluated at outlet flux {q_out:g}")
        return self.cp_coeff * q_out * head

    def gradient(self, t_in, t_out, g: GasConstants):
        """Derivatives of the balance at the traces ``t_in`` and ``t_out``
        with respect to (sigma_in, sigma_out, tau_out), which
        ``JunctionProblem.newton_step`` takes for a junction's
        (h_sigma,pivot, -h_sigma,j, -h_tau,j)."""
        e = (g.gamma - 1.0) / g.gamma
        re = (t_out.p / t_in.p) ** e
        # d/dsigma_in of T_in*((p_out/p_in)^e - 1); the ratio pulls in -dp_in/p_in
        d_in = g.cp * (t_in.dT_dsigma * (re - 1.0) - t_in.T * e * re * t_in.dp_dsigma / t_in.p)
        k = g.cp * t_in.T * e * re / t_out.p
        d_out, d_tau = k * t_out.dp_dsigma, k * t_out.dp_dtau
        if self.kind == ADIABATIC_HEAD:
            return d_in, d_out, d_tau
        head = g.cp * t_in.T * (re - 1.0)
        c, q = self.cp_coeff, t_out.q
        return (c * q * d_in, c * (t_out.dq_dsigma * head + q * d_out),
                c * (t_out.dq_dtau * head + q * d_tau))

    def row_scale(self, inlet: PipeState, g: GasConstants):
        """max(|value|, cp * T_in), with the power form's cp_coeff * |q_in|
        on the second term, so an idle control keeps a finite scale."""
        rise = g.cp * temperature(inlet, g)
        if self.kind == POWER:
            rise *= self.cp_coeff * abs(inlet.q)
        return max(abs(self.value), rise)


def solve_compressor(problem: JunctionProblem, tol=DEFAULT_TOL) -> StarSolution:
    """Solve the compressor coupling for both trace star states.

    Idle controls (value 0) are accepted and flagged in
    ``extras['idle_control']``.  ``h_star`` is None: total enthalpy is not
    a compressor condition.
    """
    g = problem.constants
    control = problem.control
    sol, (t1, t2) = _solve(problem, tol)
    head = control.head(t1.T, t1.p, t2.p, g)
    extras = {
        "pressure_ratio": t2.p / t1.p,
        "head": head,
        "idle_control": control.value == 0.0,
    }
    if control.kind == POWER:
        extras["power"] = control.cp_coeff * t2.q * head
    return sol._replace(h_star=None, extras=extras)
