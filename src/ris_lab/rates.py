"""Closed-form rate and secrecy-rate expressions.

Everything here is a deterministic function of the channel statistics.
One per-user ``RateTerms``, built by ``compute_rate_terms``, is the only
source of the statistics the closed forms share: tr(R Psi^-1 R),
tr Q_E, tr Q_E^2, tr(R Psi^-1 R Q_E) and the power-normalized signal,
interference and noise blocks built from them. The terms take K, M and
M_E from the statistics' dimensions and P_t from the ``HardwareProfile``,
so every closed form is f(terms, xi), with xi the data fraction of P_t as
a plain float: the legitimate user's achievable rate with MRT +
null-space AN, the moment-matched upper bound on the eavesdropper
capacity, and the ergodic secrecy rate in its composed and its
power-split form. The no-AN bound and the antenna-count thresholds fix
the split themselves and take the terms alone. None of them touches a
matrix. Callers build the terms once per (setup, user) and reuse them
across every quantity and every xi.

The uncorrelated special case (``secrecy_uncorrelated``) works from the
raw matrices on purpose: it is an independent cross-check of this path.
The large-RIS, power-scaled and limit forms need only scalar gains.

Numerical policy: every SINR is assembled from trace ratios before any
multiplication with large powers, so the expressions stay finite at
M, N >= 1e3. The [.]^+ clipping happens only at the final secrecy-rate
step; the unclipped gap is kept alongside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundInvalidError, InfiniteEveCapacityError, InvalidParameterError
from .estimation import ChannelEstimator
from .hardware import HardwareProfile
from .linalg import HermitianSolver, herm_trace_prod, hermitize
from .precoding import mrt_normalizers, stream_powers

# Moment-matched inverse-Wishart mean needs dof > M_E; require a one-unit
# margin so the bound is not evaluated on the edge of its validity region.
WISHART_DOF_MARGIN = 1.0


# --------------------------------------------------------------------------
# scalar constants of one (user, config) pair
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTerms:
    """Power-normalized constants of one user for the rate and secrecy formulas.

    All fields are invariant to the data/AN power split, which makes the
    xi-parameterized secrecy expression and the power-split optimizer
    cheap to evaluate on fine grids. M, K and M_E are those of the
    statistics, P_t and kappa_t_bs those of the hardware profile.
    """

    m: int
    k_users: int
    m_e: int
    p_t: float
    kappa_t_bs: float
    s_ddot: float          # tau rho tr(R Psi^-1 R) = E||h_hat_k||^2: signal power
    i_ddot: float          # interference + estimation-uncertainty power
    n_ddot: float          # downlink HWI + noise floor of the no-AN form
    d_ddot: float          # xi-free denominator block of the split form
    psi_const: float       # i_ddot - (K/M) tr(C): xi-linear denominator slope
    tr_c: float            # tr(C): estimation-error power
    zeta: float            # tr(R Psi^-1 R)
    tr_q: float            # tr(Q_E)
    tr_q2: float           # tr(Q_E^2)
    tr_rpr_q: float        # tr(R Psi^-1 R Q_E)
    lambda_k: float        # tr_rpr_q / zeta * tr_q
    a1: float              # eavesdropper SINR constants of the split form
    a2: float
    a3: float
    a4: float
    a5: float
    l1: float              # [tr Q]^2 - M_E M/(M-K) tr(Q^2)


def compute_rate_terms(est: ChannelEstimator, hw: HardwareProfile, k: int = 0) -> RateTerms:
    """Assemble every scalar the rate formulas need for user ``k``.

    The only place where the trace products are computed. The E||h_hat_i||^2
    denominators come from ``mrt_normalizers``, which raises
    DegenerateConfigError for a zero-power estimate.
    """
    stats = est.stats
    m, k_users, m_e = stats.dims.m, stats.dims.k, stats.dims.m_e
    p_t = hw.p_t
    if not 0 <= k < k_users:
        raise InvalidParameterError(f"user index {k} out of range")
    norms = mrt_normalizers(est)                  # tau_u rho tr(R_i Psi_i^-1 R_i)
    tr_pilot = est.pilots.tau_u * est.pilots.rho

    zeta = est.tr_rpr[k]
    s_ddot = norms[k]
    interference = sum(herm_trace_prod(stats.r_k[k], est.est_cov[i]) / norms[i]
                       for i in range(k_users) if i != k)
    uncertainty = herm_trace_prod(est.c[k], est.est_cov[k]) / norms[k]
    i_ddot = interference + uncertainty

    tr_r = est.tr_r[k]
    tr_c = float(np.real(np.trace(est.c[k])))
    kappa_dl = hw.kappa_t_bs + hw.kappa_r_ue
    n_ddot = kappa_dl * p_t * tr_r / m + hw.sigma_k2
    d_ddot = (k_users / m) * (tr_c + kappa_dl * tr_r) + hw.sigma_k2 * k_users / p_t
    psi_const = i_ddot - (k_users / m) * tr_c

    q_e = stats.q_e
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    tr_rpr_q = herm_trace_prod(est.est_cov[k], q_e) / tr_pilot
    lambda_k = tr_rpr_q / zeta * tr_q

    kt = hw.kappa_t_bs
    a1 = m_e * m * tr_rpr_q * tr_q / zeta
    a2 = k_users * tr_q ** 2
    a3 = m_e * m * k_users / (m - k_users) * tr_q2
    a4 = 2.0 * m_e * k_users * kt * tr_q2
    a5 = m_e * k_users * kt * (kt + 2.0) * tr_q2
    l1 = tr_q ** 2 - m_e * m / (m - k_users) * tr_q2

    return RateTerms(
        m=m, k_users=k_users, m_e=m_e, p_t=p_t, kappa_t_bs=hw.kappa_t_bs,
        s_ddot=s_ddot, i_ddot=i_ddot, n_ddot=n_ddot, d_ddot=d_ddot,
        psi_const=psi_const, tr_c=tr_c, zeta=zeta,
        tr_q=tr_q, tr_q2=tr_q2, tr_rpr_q=tr_rpr_q, lambda_k=lambda_k,
        a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, l1=l1,
    )


# --------------------------------------------------------------------------
# legitimate user (Theorem-1 form)
# --------------------------------------------------------------------------

def user_rate(terms: RateTerms, xi: float):
    """Achievable rate of the terms' user with MRT and null-space AN.

    Returns (rate_bits, signal_power, interference_power). The denominator
    collects multiuser interference and estimation uncertainty (p i_ddot),
    AN leakage q (M-K)/M tr(C), and the downlink HWI and noise (n_ddot).
    """
    p, q = stream_powers(terms.p_t, xi, terms.k_users, terms.m)
    s_k = p * terms.s_ddot
    i_k = (p * terms.i_ddot
           + q * (terms.m - terms.k_users) / terms.m * terms.tr_c + terms.n_ddot)
    return float(np.log2(1.0 + s_k / i_k)), s_k, i_k


# --------------------------------------------------------------------------
# eavesdropper upper bound (moment-matched Wishart)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EveBound:
    """Upper bound on the eavesdropper's ergodic capacity, both forms."""

    c_e_bar: float        # log2(1 + s_e / i_e)
    c_e_appendix: float   # equivalent value via the matched Wishart (phi_w, eta_w)


def wishart_match(tr_q: float, tr_q2: float, q: float, kappa_t_bs: float,
                  p_t: float, m: int, k_users: int):
    """Scale and degrees of freedom of the matched Wishart law.

    Matches the first two moments of X = H_E^H (q V V^H + Ups_t) H_E
    under two isotropy assumptions: E{V V^H} = (M - K)/M I and
    E{diag T} = P_t/M I for the transmit covariance T. When Q_E is a
    multiple of I the matched first moment is exact, and with
    kappa_t_bs = 0 X is then exactly a scaled Wishart matrix. When Q_E is
    not, the users share its dominant subspace through the RIS cascade,
    V avoids that subspace, and the matched E{tr X}/M_E = eta phi
    overstates the true one.
    """
    drive = q * (m - k_users) + kappa_t_bs * p_t
    if drive <= 0:
        raise InfiniteEveCapacityError(
            "no AN and no transmit distortion: eavesdropper interference vanishes")
    second = (q ** 2 * (m - k_users) + 2.0 * q * kappa_t_bs * p_t * (m - k_users) / m
              + (kappa_t_bs * p_t) ** 2 / m)
    phi_w = tr_q2 * second / (tr_q * drive)
    eta_w = tr_q ** 2 * drive ** 2 / (m * tr_q2 * second)
    return phi_w, eta_w


def eve_capacity_bound(terms: RateTerms, xi: float) -> EveBound:
    """Moment-matched upper bound on the eavesdropper capacity for the terms' user.

    Raises InfiniteEveCapacityError when neither AN nor transmit
    distortion masks the data streams, and BoundInvalidError when the
    matched Wishart degrees of freedom are too close to M_E for the
    inverse mean to exist.
    """
    m, k_users, m_e = terms.m, terms.k_users, terms.m_e
    tr_q, tr_q2 = terms.tr_q, terms.tr_q2
    kt, p_t = terms.kappa_t_bs, terms.p_t
    p, q = stream_powers(p_t, xi, k_users, m)
    drive = q * (m - k_users) + kt * p_t
    phi_w, eta_w = wishart_match(tr_q, tr_q2, q, kt, p_t, m, k_users)
    if eta_w <= m_e + WISHART_DOF_MARGIN:
        raise BoundInvalidError(
            f"matched Wishart dof {eta_w:.3f} must exceed M_E + 1 = {m_e + 1}")

    s_e = p * m_e * m * drive * terms.tr_rpr_q * tr_q
    chi = (drive ** 2 * tr_q ** 2
           - m_e * ((kt * p_t) ** 2 + q ** 2 * m * (m - k_users)
                    + 2.0 * q * (m - k_users) * kt * p_t) * tr_q2)
    if chi <= 0:
        raise BoundInvalidError("bound denominator non-positive; too many Eve antennas")
    i_e = chi * terms.zeta

    gamma_appendix = p * m_e * terms.tr_rpr_q / (phi_w * (eta_w - m_e) * terms.zeta)
    return EveBound(c_e_bar=float(np.log2(1.0 + s_e / i_e)),
                    c_e_appendix=float(np.log2(1.0 + gamma_appendix)))


def eve_capacity_no_an(terms: RateTerms) -> float:
    """Eavesdropper bound without AN; only transmit distortion masks the data."""
    if terms.kappa_t_bs <= 0:
        raise InfiniteEveCapacityError(
            "without AN, a zero transmit-distortion factor gives Eve unbounded SINR")
    denom_core = terms.tr_q ** 2 - terms.m_e * terms.tr_q2
    if denom_core <= 0:
        raise BoundInvalidError(
            "no-AN bound requires [tr Q]^2 > M_E tr(Q^2); too many Eve antennas")
    sinr = (terms.m_e * terms.m * terms.tr_rpr_q * terms.tr_q
            / (terms.kappa_t_bs * terms.zeta * terms.k_users * denom_core))
    return float(np.log2(1.0 + sinr))


# --------------------------------------------------------------------------
# secrecy rate: composition and split-parameterized forms
# --------------------------------------------------------------------------

def user_sinr_split(terms: RateTerms, xi: float) -> float:
    """User SINR as a function of the power split alone."""
    return xi * terms.s_ddot / (xi * terms.psi_const + terms.d_ddot)


def eve_sinr_split(terms: RateTerms, xi: float) -> float:
    """Eavesdropper SINR of the split form; exact match of the bound."""
    upsilon = 1.0 - xi + terms.kappa_t_bs
    denom = (upsilon ** 2 * terms.a2 - (1.0 - xi) ** 2 * terms.a3
             + xi * terms.a4 - terms.a5)
    if denom <= 0:
        raise BoundInvalidError("split-form bound denominator non-positive")
    return xi * upsilon * terms.a1 / denom


def secrecy_gap_split(terms: RateTerms, xi: float) -> float:
    """Unclipped R_k - C_E in the split parameterization."""
    if xi >= 1.0 and terms.kappa_t_bs <= 0:
        raise InfiniteEveCapacityError("xi = 1 with ideal BS transmitter")
    return float(np.log2(1.0 + user_sinr_split(terms, xi))
                 - np.log2(1.0 + eve_sinr_split(terms, xi)))


@dataclass(frozen=True)
class SecrecyReport:
    """Secrecy-rate evaluation of one user."""

    r_k: float             # legitimate user rate
    c_e_bar: float         # eavesdropper capacity bound
    gap: float             # unclipped r_k - c_e_bar
    r_sec: float           # clipped secrecy rate


def secrecy_rate(terms: RateTerms, xi: float) -> SecrecyReport:
    """Ergodic secrecy rate [R_k - C_E]^+ of the terms' user.

    The direct composition, user rate minus capacity bound. The split
    form ``secrecy_gap_split(terms, xi)`` equals ``gap`` analytically;
    the tests hold the two to each other.
    """
    r_k, _, _ = user_rate(terms, xi)
    c_e_bar = eve_capacity_bound(terms, xi).c_e_bar
    gap = r_k - c_e_bar
    return SecrecyReport(r_k=r_k, c_e_bar=c_e_bar, gap=gap, r_sec=max(0.0, gap))


def max_eve_antennas_no_an(terms: RateTerms):
    """Largest Eve array (as a fraction of M) with positive no-AN secrecy.

    Returns (delta, floor(delta M)); zero whenever the BS transmitter is
    distortion-free. Does not depend on the terms' M_E.
    """
    if terms.kappa_t_bs == 0.0:
        return 0.0, 0
    num = terms.s_ddot * terms.kappa_t_bs * (terms.k_users / terms.m) * terms.tr_q
    den = (terms.kappa_t_bs * terms.s_ddot * terms.k_users * terms.tr_q2 / terms.tr_q
           + (terms.m / terms.zeta)
           * (terms.i_ddot + terms.k_users * terms.n_ddot / terms.p_t) * terms.tr_rpr_q)
    delta = num / den
    return float(delta), int(math.floor(delta * terms.m))


def max_eve_antennas_an(terms: RateTerms):
    """Largest Eve array with positive secrecy when the AN power dominates.

    Threshold of the split form as the data fraction goes to zero: the
    most AN-protected operating point. Returns (delta, floor(delta M));
    does not depend on the terms' M_E.
    """
    kt = terms.kappa_t_bs
    ups0 = 1.0 + kt
    chi0 = (terms.m / (terms.m - terms.k_users) + 2.0 * kt + kt ** 2) / ups0
    num = terms.s_ddot * terms.k_users * ups0 * terms.tr_q ** 2
    den = (terms.m ** 2 * terms.lambda_k * terms.d_ddot
           + terms.s_ddot * terms.k_users * terms.m * chi0 * terms.tr_q2)
    delta = num / den
    return float(delta), int(math.floor(delta * terms.m))


# --------------------------------------------------------------------------
# uncorrelated special case and large-system limits
# --------------------------------------------------------------------------

def secrecy_uncorrelated(dims, fading, h1: np.ndarray, rho: float, sigma_u2: float,
                         hw: HardwareProfile, xi: float, k: int = 0):
    """Secrecy rate under uncorrelated fading and ideal uplink hardware.

    Independent evaluation path: works directly with the rank structure
    beta_2 I + beta_i H1 H1^H, so it cross-checks the general pipeline.
    Returns (user_rate, eve_bound, clipped secrecy rate).
    """
    m, k_users, m_e, tau_u = dims.m, dims.k, dims.m_e, dims.tau_u
    kt, p_t = hw.kappa_t_bs, hw.p_t
    p, q = stream_powers(p_t, xi, k_users, m)
    hh = hermitize(h1 @ h1.conj().T)
    eye = np.eye(m)

    b_user = [b2 * eye + bi * hh for b2, bi in zip(fading.beta_2, fading.beta_i)]
    upsilons = []
    for b_k in b_user:
        solver = HermitianSolver(hermitize(tau_u * rho * b_k + sigma_u2 * eye),
                                 name="uncorrelated pilot covariance")
        upsilons.append(hermitize(b_k @ solver.solve(b_k)))

    b_k = b_user[k]
    ups_k = upsilons[k]
    tr_ups_k = float(np.real(np.trace(ups_k)))
    interf = sum(herm_trace_prod(b_k, upsilons[i]) / float(np.real(np.trace(upsilons[i])))
                 for i in range(k_users) if i != k)
    resid = hermitize(b_k - tau_u * rho * ups_k)
    interf += herm_trace_prod(resid, ups_k) / tr_ups_k
    tr_resid = float(np.real(np.trace(resid)))
    tr_b = float(np.real(np.trace(b_k)))

    num = p * tau_u * rho * tr_ups_k
    den = (p * interf + q * (m - k_users) / m * tr_resid
           + (hw.kappa_t_bs + hw.kappa_r_ue) * p_t / m * tr_b + hw.sigma_k2)
    r_user = float(np.log2(1.0 + num / den))

    b_eve = fading.beta_3 * eye + fading.beta_ie * hh
    tr_be = float(np.real(np.trace(b_eve)))
    tr_be2 = herm_trace_prod(b_eve, b_eve)
    drive = q * (m - k_users) + kt * p_t
    if drive <= 0:
        raise InfiniteEveCapacityError("no AN and no transmit distortion")
    varpi = m_e * ((kt * p_t) ** 2 + q ** 2 * m * (m - k_users)
                   + 2.0 * q * (m - k_users) * kt * p_t)
    e_num = p * m_e * m * drive * tr_be * herm_trace_prod(b_eve, ups_k) / tr_ups_k
    e_den = drive ** 2 * tr_be ** 2 - varpi * tr_be2
    if e_den <= 0:
        raise BoundInvalidError("uncorrelated bound denominator non-positive")
    c_eve = float(np.log2(1.0 + e_num / e_den))
    return r_user, c_eve, max(0.0, r_user - c_eve)


def secrecy_large_n(beta_2k: float, beta_ik: float, beta_1: float, n: int, m: int,
                    k_users: int, m_e: int, xi: float, rho: float, tau_u: int,
                    sigma_u2: float, hw: HardwareProfile):
    """Large-RIS secrecy rate: the bridge congruence replaced by its limit.

    Returns (user_rate, eve_bound, clipped secrecy rate). The eavesdropper
    term is independent of its gains beta_3 and beta_ie, which cancel
    exactly, so they are not arguments.
    """
    p_t = hw.p_t
    gain = beta_2k + beta_ik * beta_1 * n
    gamma_bar = gain ** 2 / (gain + sigma_u2 / (tau_u * rho))
    cap_xi = k_users * gain - gamma_bar

    num = xi * p_t * m * gamma_bar / k_users
    den = (xi * p_t * cap_xi / k_users + (1.0 - xi) * p_t * (gain - gamma_bar)
           + (hw.kappa_t_bs + hw.kappa_r_ue) * p_t * gain + hw.sigma_k2)
    r_user = float(np.log2(1.0 + num / den))

    c_eve = _eve_bound_isotropic(m, k_users, m_e, xi, hw.kappa_t_bs)
    return r_user, c_eve, max(0.0, r_user - c_eve)


def secrecy_power_scaled(e_u: float, m: int, k_users: int, m_e: int,
                         beta_ik: float, beta_1: float, xi: float,
                         kappa_t_bs: float, kappa_r_ue: float, sigma_k2: float):
    """Secrecy-rate limit when the budget shrinks as E_u / N.

    Returns (user_rate, eve_bound, clipped secrecy rate); direct-link
    gains drop out of the limit.
    """
    kappa_dl = kappa_t_bs + kappa_r_ue
    num = xi * e_u * m * beta_ik * beta_1 / k_users
    den = (xi * e_u * (k_users - 1) * beta_ik * beta_1 / k_users
           + kappa_dl * e_u * beta_ik * beta_1 + sigma_k2)
    r_user = float(np.log2(1.0 + num / den))
    c_eve = _eve_bound_isotropic(m, k_users, m_e, xi, kappa_t_bs)
    return r_user, c_eve, max(0.0, r_user - c_eve)


def _eve_bound_isotropic(m: int, k_users: int, m_e: int, xi: float,
                         kappa_t_bs: float) -> float:
    """Eve bound when Q_E is a scaled identity; its scale and P_t both cancel."""
    upsilon = 1.0 - xi + kappa_t_bs
    if upsilon <= 0:
        raise InvalidParameterError("xi = 1 with ideal BS transmitter: undefined limit")
    den = m * upsilon ** 2 - m_e * (kappa_t_bs ** 2
                                    + m * (1.0 - xi) ** 2 / (m - k_users)
                                    + 2.0 * (1.0 - xi) * kappa_t_bs)
    if den <= 0:
        raise BoundInvalidError("isotropic bound denominator non-positive")
    num = xi * m_e * m * upsilon / k_users
    return float(np.log2(1.0 + num / den))


def secrecy_limit(m: int, k_users: int, m_e: int, xi: float, kappa_t_bs: float,
                  kappa_r_ue: float):
    """Asymptotic secrecy rate for huge arrays and unbounded RIS size.

    Returns (user_rate, eve_bound, clipped secrecy rate).
    """
    upsilon = 1.0 - xi + kappa_t_bs
    if upsilon <= 0:
        raise InvalidParameterError("xi = 1 with ideal BS transmitter: undefined limit")
    den_user = xi * (k_users - 1) / k_users + kappa_t_bs + kappa_r_ue
    if den_user <= 0:
        r_user = float("inf")
    else:
        r_user = float(np.log2(1.0 + xi * m / k_users / den_user))
    c_eve = float(np.log2(1.0 + xi * m_e / (k_users * upsilon)))
    return r_user, c_eve, max(0.0, r_user - c_eve)
