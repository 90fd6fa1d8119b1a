"""Optimal split of the transmit budget between data and artificial noise.

The data fraction xi* maximizes one user's unclipped secrecy gap
R_k - C_E (``rates.secrecy_rate``) and solves the fixed-point
equation d(gap)/d(xi) = 0. ``secrecy_derivative`` is that derivative with
no approximation, so the root stays exact under transmit distortion
(kappa_t^BS > 0); ``optimal_xi`` brackets it on (0, 1) and bisects.
"""
from __future__ import annotations

import math

from .errors import BoundInvalidError, NoRealRootError
from .rates import RateTerms, secrecy_rate

LN2 = math.log(2.0)


def secrecy_derivative(terms: RateTerms, xi: float) -> float:
    """d/dxi of the unclipped secrecy gap ``secrecy_rate(terms, xi).gap``."""
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


def optimal_xi(terms: RateTerms) -> float:
    """Data fraction xi* in (0, 1] that maximizes the secrecy gap.

    Bisects ``secrecy_derivative`` on [1e-9, 1 - 1e-9] until the bracket
    is at most 1e-12 wide, and returns 1.0 (no AN) when the gap still
    rises at the upper end. Raises ``NoRealRootError`` when the gap falls
    from xi = 0 on, and ``BoundInvalidError`` when L1 <= 0 or the
    eavesdropper bound is invalid at the root.
    """
    if terms.l1 <= 0:
        raise BoundInvalidError(
            "L1 <= 0: the eavesdropper bound is outside its validity region")
    lo, hi = 1e-9, 1.0 - 1e-9
    if secrecy_derivative(terms, lo) <= 0.0:
        raise NoRealRootError("the secrecy gap is negative at every power split")
    if secrecy_derivative(terms, hi) > 0.0:
        return 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if secrecy_derivative(terms, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    xi = 0.5 * (lo + hi)
    secrecy_rate(terms, xi)             # raises where the eavesdropper bound is invalid
    return xi
