"""Optimal split of the transmit budget between data and artificial noise.

The secrecy rate as a function of the data fraction xi admits a
closed-form stationary point: the derivative, after dropping terms that
are negligible when M_E K / M^2 is small, reduces to a quadratic in xi.
The exact derivative is kept alongside for diagnostics and for verifying
the approximation regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundInvalidError, InfiniteEveCapacityError, InvalidParameterError, NoRealRootError
from .rates import RateTerms, secrecy_gap_split

LN2 = math.log(2.0)

# Operating region where the quadratic solution is trusted without a grid
# cross-check: M_E K / M^2 at or below this is 'small'.
REGIME_LIMIT = 0.01


def secrecy_derivative_exact(terms: RateTerms, xi: float) -> float:
    """d/dxi of the unclipped secrecy gap, no approximations."""
    s, psi, d = terms.s_ddot, terms.psi_const, terms.d_ddot
    a1, a2, a3, a4, a5 = terms.a1, terms.a2, terms.a3, terms.a4, terms.a5
    kt = terms.kappa_t_bs
    ups = 1.0 - xi + kt

    user = s * d / (LN2 * (xi * psi + d) * (xi * psi + d + xi * s))

    denom = ups ** 2 * a2 - (1.0 - xi) ** 2 * a3 + xi * a4 - a5
    denom_prime = -2.0 * ups * a2 + 2.0 * (1.0 - xi) * a3 + a4
    num = a1 * (1.0 - 2.0 * xi + kt) * denom - xi * ups * a1 * denom_prime
    eve = num / (LN2 * denom * (denom + xi * ups * a1))
    return user - eve


def secrecy_derivative(terms: RateTerms, xi: float) -> float:
    """Small-M_E K/M^2 approximation of the derivative; basis of the solver."""
    s, psi, d = terms.s_ddot, terms.psi_const, terms.d_ddot
    kt = terms.kappa_t_bs
    ups = 1.0 - xi + kt
    kl1 = terms.k_users * terms.l1

    user = s * d / (LN2 * (xi * psi + d) * (xi * psi + d + xi * s))
    eve = (1.0 + kt) * terms.a1 / (LN2 * (ups ** 2 * kl1 + xi * ups * terms.a1))
    return user - eve


@dataclass(frozen=True)
class XiSolution:
    """Closed-form optimal power split and how far it can be trusted."""

    xi_star: float
    derivative_at_solution: float    # residual of the approximate derivative
    valid: bool                      # xi_star inside (0, 1]
    in_regime: bool                  # M_E K / M^2 small enough to trust
    note: str = ""


def _quadratic_constants(terms: RateTerms):
    """Constants of a xi^2 - b xi + c = 0, the stationarity condition."""
    s, psi, d = terms.s_ddot, terms.psi_const, terms.d_ddot
    u = 1.0 + terms.kappa_t_bs
    kl1 = terms.k_users * terms.l1
    a1 = terms.a1
    a = s * d * (kl1 - a1) - (psi ** 2 + psi * s) * u * a1
    b = u * (2.0 * s * d * kl1 - s * d * a1 + d * a1 * (2.0 * psi + s))
    c = u ** 2 * s * d * kl1 - u * d ** 2 * a1
    return a, b, c


def optimal_xi(terms: RateTerms) -> XiSolution:
    """Quadratic-root power split maximizing the secrecy rate.

    Selects the root of the stationarity quadratic at which the
    derivative crosses from positive to negative. Outside (0, 1] the
    nearest admissible value is reported with ``valid=False`` rather than
    silently clamped.
    """
    if terms.l1 <= 0:
        raise BoundInvalidError(
            "L1 <= 0: the eavesdropper bound is outside its validity region")
    a, b, c = _quadratic_constants(terms)
    in_regime = terms.m_e * terms.k_users / terms.m ** 2 <= REGIME_LIMIT
    note = "" if in_regime else (
        "M_E K / M^2 exceeds the approximation regime; prefer grid_search_xi")

    if a == 0.0:
        if b == 0.0:
            raise NoRealRootError("degenerate stationarity condition (a = b = 0)")
        root = c / b
        note = (note + "; " if note else "") + "linear fallback (a = 0)"
        candidates = [root]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            raise NoRealRootError(
                f"stationarity quadratic has no real root (discriminant {disc:.3e})")
        sq = math.sqrt(disc)
        candidates = [(b - sq) / (2.0 * a), (b + sq) / (2.0 * a)]

    def crosses_down(x: float) -> bool:
        eps = 1e-6
        lo = max(x - eps, 1e-9)
        hi = min(x + eps, 1.0 - 1e-12)
        if lo >= hi:
            return False
        return secrecy_derivative(terms, lo) > 0.0 > secrecy_derivative(terms, hi)

    admissible = [x for x in candidates if 0.0 < x <= 1.0]
    chosen = None
    for x in admissible:
        if crosses_down(x):
            chosen = x
            break
    if chosen is None and admissible:
        chosen = admissible[0]
        note = (note + "; " if note else "") + "no sign change detected at root"
    valid = chosen is not None
    if chosen is None:
        chosen = min(max(candidates[0], 1e-6), 1.0)
        note = (note + "; " if note else "") + (
            f"all roots outside (0, 1] (roots: {', '.join(f'{x:.4f}' for x in candidates)})")

    return XiSolution(
        xi_star=float(chosen),
        derivative_at_solution=secrecy_derivative(terms, float(min(chosen, 1.0 - 1e-9))),
        valid=valid, in_regime=in_regime, note=note,
    )


def grid_search_xi(terms: RateTerms, grid_step: float = 1e-3):
    """Exhaustive split search: returns (argmax, grid, secrecy profile).

    Grid points where the bound is invalid (e.g. xi = 1 with an ideal
    transmitter) contribute -inf and can never win.
    """
    if not 0.0 < grid_step <= 0.05:
        raise InvalidParameterError("grid step must lie in (0, 0.05]")
    n = int(round(1.0 / grid_step))
    grid = np.arange(1, n + 1) * grid_step
    profile = np.empty_like(grid)
    for i, xi in enumerate(grid):
        try:
            profile[i] = secrecy_gap_split(terms, float(xi))
        except (BoundInvalidError, InfiniteEveCapacityError):
            profile[i] = -np.inf
    best = int(np.argmax(profile))
    return float(grid[best]), grid, np.maximum(profile, 0.0)
