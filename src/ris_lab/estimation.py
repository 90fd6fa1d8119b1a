"""Distortion-aware LMMSE estimation of the aggregate uplink channels.

The estimator works on the pilot observations despread per user and
knows the full second-order statistics of the impaired pilot phase:
transmit distortion at the users, receive distortion at the BS (whose
power rides on the instantaneous per-antenna channel power), and AWGN.

The pilots are any orthogonal tau_u x K matrix Phi, Phi^H Phi = tau_u I.
Despreading the tau_u received symbols with Phi turns the three
impairments into i.i.d. complex Gaussians of known power, given the
channels (the sufficient-statistic model of Bjornson, Hoydis and
Sanguinetti, *Massive MIMO Networks*, 2017), so the pilot-phase
simulator draws the despread observation directly and never forms Phi
or the tau_u received symbols.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import IllConditionedWarning, InvalidParameterError
from .geometry import ChannelStatistics
from .linalg import COND_LIMIT, herm_trace_prod, hermitize, solve_pd


@dataclass(frozen=True)
class PilotConfig:
    """Uplink training configuration and the uplink hardware.

    The only home of the pilot length, the uplink noise power and the
    uplink distortion factors: the estimator, the pilot-phase simulator
    and the closed forms read them here. The pilots are orthogonal with
    squared norm tau_u; nothing else about them enters the despread
    observation. The estimator checks tau_u >= K, since K is an array size.
    """

    tau_u: int
    rho: float                      # pilot transmit power
    sigma_u2: float = 1.0           # uplink noise power
    kappa_t_ue: float = 0.0         # user transmit distortion factor
    kappa_r_bs: float = 0.0         # BS receive distortion factor

    def __post_init__(self):
        if self.tau_u < 1:
            raise InvalidParameterError("pilot length must be positive")
        if self.rho <= 0:
            raise InvalidParameterError("pilot power must be positive")
        if self.sigma_u2 < 0 or self.kappa_t_ue < 0 or self.kappa_r_bs < 0:
            raise InvalidParameterError("noise and distortion powers must be non-negative")


def build_psi(r_k: list, pilots: PilotConfig) -> list:
    """Per-user pilot-observation covariances (despread, divided by tau_u).

    Psi_k = tau_u rho R_k + rho kappa_t sum_i R_i
          + rho kappa_r sum_i diag(R_i) + sigma_u^2 I,

    from the K (M, M) covariances ``r_k`` that the caller has bound once
    (``ChannelStatistics.r_k`` derives them on each read).
    """
    m = r_k[0].shape[0]
    sum_r = sum(r_k)
    sum_diag = np.diag(np.real(np.diag(sum_r)))
    common = (pilots.rho * pilots.kappa_t_ue * sum_r
              + pilots.rho * pilots.kappa_r_bs * sum_diag
              + pilots.sigma_u2 * np.eye(m))
    return [hermitize(pilots.tau_u * pilots.rho * rk + common) for rk in r_k]


class ChannelEstimator:
    """Cached per-configuration estimator.

    Factorizes every Psi_k once. This is the object the precoder, the
    closed-form rates and the Monte Carlo oracle all share. It holds the
    K (M, M) gains ``gain``, which the oracle applies, and O(K^2) scalars:
    the NMSEs and the trace products the closed forms read, taken from R_k
    and Q_E (derived by the statistics, read once here), the estimate
    covariances Phi_k = tau_u rho R_k Psi_k^-1 R_k and the error covariances
    C_k = R_k - Phi_k, none of which is kept:

    - ``tr_r[k]`` = tr R_k and ``tr_rpr[k]`` = tr(R_k Psi_k^-1 R_k);
    - ``tr_r_phi[k, i]`` = tr(R_k Phi_i), a (K, K) array;
    - ``tr_c_phi[k]`` = tr(C_k Phi_k) and ``tr_c[k]`` = tr C_k;
    - ``tr_phi_q[k]`` = tr(Phi_k Q_E), ``tr_q`` = tr Q_E and ``tr_q2`` = tr(Q_E^2).
    """

    def __init__(self, stats: ChannelStatistics, pilots: PilotConfig):
        if pilots.tau_u < stats.dims.k:
            raise InvalidParameterError("pilot length shorter than user count")
        self.stats = stats
        self.pilots = pilots
        r_k = stats.r_k
        # psi_inv_r[k] = Psi_k^{-1} R_k; everything else is a trace away.
        psi_inv_r, conds = zip(*(solve_pd(psi, rk, name=f"Psi_{k}") for k, (psi, rk)
                                 in enumerate(zip(build_psi(r_k, pilots), r_k))))
        if max(conds) > COND_LIMIT:
            warnings.warn(
                f"worst pilot covariance condition number ~{max(conds):.3e} exceeds "
                f"{COND_LIMIT:.0e}", IllConditionedWarning, stacklevel=2)

        tr = pilots.tau_u * pilots.rho
        est_cov = [hermitize(tr * rk @ x) for rk, x in zip(r_k, psi_inv_r)]
        # sqrt(rho) R_k Psi_k^{-1} = sqrt(rho) (Psi_k^{-1} R_k)^H; not Hermitian itself.
        self.gain = [np.sqrt(pilots.rho) * x.conj().T for x in psi_inv_r]
        self.tr_r = [float(np.real(np.trace(rk))) for rk in r_k]
        self.tr_rpr = [herm_trace_prod(rk, x) for rk, x in zip(r_k, psi_inv_r)]
        self.tr_r_phi = np.array([[herm_trace_prod(rk, ec) for ec in est_cov] for rk in r_k])
        q_e = stats.q_e
        self.tr_q = float(np.real(np.trace(q_e)))
        self.tr_q2 = herm_trace_prod(q_e, q_e)
        self.tr_phi_q = [herm_trace_prod(ec, q_e) for ec in est_cov]
        err_cov = [hermitize(rk - ec) for rk, ec in zip(r_k, est_cov)]
        self.tr_c_phi = [herm_trace_prod(c, ec) for c, ec in zip(err_cov, est_cov)]
        self.tr_c = [float(np.real(np.trace(c))) for c in err_cov]
        self.nmse = self._nmse(self.tr_r, self.tr_c)

    @staticmethod
    def _nmse(tr_r: list, tr_c: list) -> np.ndarray:
        """tr(C_k)/tr(R_k) per user from the two traces, clipped into [0, 1] against roundoff."""
        val = np.array(tr_c) / np.array(tr_r)
        if np.any((val < -1e-8) | (val > 1.0 + 1e-8)):
            raise InvalidParameterError(f"NMSE {val} outside [0, 1]; inconsistent inputs")
        return np.clip(val, 0.0, 1.0)

    def estimate(self, y_pk: np.ndarray) -> np.ndarray:
        """Estimates for stacked despread observations, shape (..., M, K)."""
        y = np.asarray(y_pk)
        out = np.empty_like(y)
        for k in range(self.stats.dims.k):
            out[..., k] = (y[..., k] @ self.gain[k].T)
        return out


def nmse_high_power_limit(stats: ChannelStatistics, pilots: PilotConfig) -> np.ndarray:
    """Error floors of the users' NMSEs as the pilot power grows without bound, shape (K,).

    Zero for ideal hardware; otherwise user k's limit uses the reduced
    covariance tau_u R_k + kappa_t sum R_i + kappa_r sum diag(R_i), which is
    ``build_psi`` at unit pilot power without noise.
    """
    if pilots.kappa_t_ue == 0.0 and pilots.kappa_r_bs == 0.0:
        return np.zeros(stats.dims.k)
    floors = []
    r_k = stats.r_k
    for psi_t, rk in zip(build_psi(r_k, replace(pilots, rho=1.0, sigma_u2=0.0)), r_k):
        x, _ = solve_pd(psi_t, rk, name="high-power pilot covariance")
        resid = rk - pilots.tau_u * rk @ x
        floors.append(float(np.real(np.trace(resid)) / np.real(np.trace(rk))))
    return np.array(floors)


def nmse_large_n_limit(beta_2k: float, beta_ik: float, beta_1: float, n: int,
                       rho: float, tau_u: int, sigma_u2: float) -> float:
    """Large-RIS NMSE under identity correlations and ideal hardware."""
    gain = beta_2k + beta_ik * beta_1 * n
    return float(1.0 - gain / (gain + sigma_u2 / (tau_u * rho)))


def pilot_gaussians(rng: np.random.Generator, shape) -> tuple:
    """Unscaled complex Gaussians g_re + j g_im of the despread pilot phase of (B, K, M) channels.

    Returns the despread user transmit distortion (B, K, K), then the
    despread BS receive distortion plus noise (B, M, K), drawn from ``rng``
    in that order. ``simulate_pilot_phase`` scales them, so one draw serves
    every pilot configuration: neither part depends on the pilot length.
    """
    b, k, m = shape
    out = []
    for part_shape in ((b, k, k), (b, m, k)):
        g = rng.standard_normal((2, *part_shape))
        part = np.empty(part_shape, dtype=complex)
        part.real, part.imag = g
        out.append(part)
    return tuple(out)


def simulate_pilot_phase(h: np.ndarray, pilots: PilotConfig, gaussians: tuple) -> np.ndarray:
    """Despread impaired pilot observations of stacked channel blocks.

    ``h`` has shape (B, K, M): the aggregate user channels of B coherence
    blocks. ``gaussians`` is the ``pilot_gaussians`` draw for ``h``.
    Returns the (B, M, K) despread vectors y = sqrt(rho) tau_u h + h E + W:
    E (B, K, K) is the user transmit distortion after despreading, i.i.d.
    CN(0, rho kappa_t tau_u); W is the BS receive distortion plus AWGN
    after despreading, independent across users and antennas, with power
    tau_u (rho kappa_r d_r + sigma_u^2) on antenna m, where d_r is the
    instantaneous channel power sum_k |h_km|^2 of that antenna. Given h this
    is the law of despreading the tau_u received pilot symbols.
    """
    g_t, g_w = gaussians
    k = h.shape[1]
    tau = pilots.tau_u
    # sqrt(rho) tau_u I + E, applied to the users' channels in one matmul
    p_eff = np.sqrt(pilots.rho * pilots.kappa_t_ue * tau / 2.0) * g_t
    p_eff[:, np.arange(k), np.arange(k)] += tau * np.sqrt(pilots.rho)

    d_r = np.sum(h.real ** 2 + h.imag ** 2, axis=1)     # (B, M)
    w_std = np.sqrt((tau / 2.0) * (pilots.rho * pilots.kappa_r_bs * d_r + pilots.sigma_u2))

    y = np.swapaxes(h, 1, 2) @ p_eff                     # (B, M, K)
    # W = w_std g_w, as real products on the interleaved real/imaginary parts
    y_parts = y.view(np.float64)
    y_parts += w_std[:, :, None] * g_w.view(np.float64)
    return y
