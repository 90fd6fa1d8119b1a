"""Distortion-aware LMMSE estimation of the aggregate uplink channels.

The estimator works on the pilot observations despread per user and
knows the full second-order statistics of the impaired pilot phase:
transmit distortion at the users, receive distortion at the BS (whose
power rides on the instantaneous per-antenna channel power), and AWGN.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedWarning, InvalidParameterError
from .geometry import ChannelStatistics
from .linalg import COND_LIMIT, HermitianSolver, herm_trace_prod, hermitize
from .streams import complex_normal


@dataclass(frozen=True)
class PilotConfig:
    """Uplink training configuration and the uplink hardware.

    The only home of the uplink noise power and the uplink distortion
    factors: the estimator and the pilot-phase simulator read them here.

    The pilot matrix defaults to the first K columns of a tau_u-point DFT
    basis: unit-modulus entries, exactly orthogonal columns with squared
    norm tau_u.
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

    def pilot_matrix(self, k: int) -> np.ndarray:
        if k > self.tau_u:
            raise InvalidParameterError("more users than pilot symbols")
        t = np.arange(self.tau_u)
        return np.exp(-2j * np.pi * np.outer(t, np.arange(k)) / self.tau_u)


def build_psi(stats: ChannelStatistics, pilots: PilotConfig) -> list:
    """Per-user pilot-observation covariances (despread, divided by tau_u).

    Psi_k = tau_u rho R_k + rho kappa_t sum_i R_i
          + rho kappa_r sum_i diag(R_i) + sigma_u^2 I.
    """
    m = stats.dims.m
    sum_r = sum(stats.r_k)
    sum_diag = np.diag(np.real(np.diag(sum_r)))
    common = (pilots.rho * pilots.kappa_t_ue * sum_r
              + pilots.rho * pilots.kappa_r_bs * sum_diag
              + pilots.sigma_u2 * np.eye(m))
    return [hermitize(pilots.tau_u * pilots.rho * rk + common) for rk in stats.r_k]


def nmse(r_k: np.ndarray, c_k: np.ndarray) -> float:
    """tr(C_k)/tr(R_k), clipped into [0, 1] against roundoff."""
    val = float(np.real(np.trace(c_k)) / np.real(np.trace(r_k)))
    if val < -1e-8 or val > 1.0 + 1e-8:
        raise InvalidParameterError(f"NMSE {val} outside [0, 1]; inconsistent inputs")
    return min(max(val, 0.0), 1.0)


class ChannelEstimator:
    """Cached per-configuration estimator.

    Factorizes every Psi_k once and exposes the estimation gain matrices,
    error covariances and NMSEs. This is the object the precoder, the
    closed-form rates and the Monte Carlo oracle all share.
    """

    def __init__(self, stats: ChannelStatistics, pilots: PilotConfig):
        if pilots.tau_u < stats.dims.k:
            raise InvalidParameterError("pilot length shorter than user count")
        self.stats = stats
        self.pilots = pilots
        solvers = [HermitianSolver(p, name=f"Psi_{k}")
                   for k, p in enumerate(build_psi(stats, pilots))]
        if any(not s.is_well_conditioned for s in solvers):
            worst = max(s.cond_estimate for s in solvers)
            warnings.warn(
                f"worst pilot covariance condition number ~{worst:.3e} exceeds "
                f"{COND_LIMIT:.0e}", IllConditionedWarning, stacklevel=2)

        tr = pilots.tau_u * pilots.rho
        # psi_inv_r[k] = Psi_k^{-1} R_k; everything else is a trace away.
        psi_inv_r = [s.solve(rk) for s, rk in zip(solvers, stats.r_k)]
        self.est_cov = [hermitize(tr * rk @ x) for rk, x in zip(stats.r_k, psi_inv_r)]
        self.c = [hermitize(rk - ec) for rk, ec in zip(stats.r_k, self.est_cov)]
        # sqrt(rho) R_k Psi_k^{-1} = sqrt(rho) (Psi_k^{-1} R_k)^H; not Hermitian itself.
        self.gain = [np.sqrt(pilots.rho) * x.conj().T for x in psi_inv_r]
        self.tr_r = [float(np.real(np.trace(rk))) for rk in stats.r_k]
        self.tr_rpr = [herm_trace_prod(rk, x) for rk, x in zip(stats.r_k, psi_inv_r)]
        self.nmse = np.array([nmse(rk, ck) for rk, ck in zip(stats.r_k, self.c)])

    def estimate(self, y_pk: np.ndarray) -> np.ndarray:
        """Estimates for stacked despread observations, shape (..., M, K)."""
        y = np.asarray(y_pk)
        out = np.empty_like(y)
        for k in range(self.stats.dims.k):
            out[..., k] = (y[..., k] @ self.gain[k].T)
        return out


def nmse_high_power_limit(stats: ChannelStatistics, pilots: PilotConfig, k: int) -> float:
    """Error floor of user k's NMSE as the pilot power grows without bound.

    Zero for ideal hardware; otherwise the limit uses the reduced
    covariance tau_u R_k + kappa_t sum R_i + kappa_r sum diag(R_i).
    """
    if pilots.kappa_t_ue == 0.0 and pilots.kappa_r_bs == 0.0:
        return 0.0
    sum_r = sum(stats.r_k)
    psi_t = (pilots.tau_u * stats.r_k[k] + pilots.kappa_t_ue * sum_r
             + pilots.kappa_r_bs * np.diag(np.real(np.diag(sum_r))))
    solver = HermitianSolver(hermitize(psi_t), name="high-power pilot covariance")
    rk = stats.r_k[k]
    resid = rk - pilots.tau_u * rk @ solver.solve(rk)
    return float(np.real(np.trace(resid)) / np.real(np.trace(rk)))


def nmse_large_n_limit(beta_2k: float, beta_ik: float, beta_1: float, n: int,
                       rho: float, tau_u: int, sigma_u2: float) -> float:
    """Large-RIS NMSE under identity correlations and ideal hardware."""
    gain = beta_2k + beta_ik * beta_1 * n
    return float(1.0 - gain / (gain + sigma_u2 / (tau_u * rho)))


def simulate_pilot_phase(h: np.ndarray, pilots: PilotConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """Impaired pilot phase for stacked channel blocks.

    ``h`` has shape (B, K, M): the aggregate user channels of B coherence
    blocks. Draws user transmit distortion, BS receive distortion with the
    instantaneous per-antenna power profile, and AWGN, then despreads with
    each user's pilot. Returns the (B, M, K) despread vectors.
    """
    b, k, m = h.shape
    phi_p = pilots.pilot_matrix(k)                       # (tau, K)
    h_t = np.swapaxes(h, 1, 2)                           # (B, M, K)

    eta = complex_normal(rng, (b, k, pilots.tau_u),
                         scale=np.sqrt(pilots.rho * pilots.kappa_t_ue))
    p_eff = np.sqrt(pilots.rho) * phi_p.conj().T[None, :, :] + eta.conj()

    d_r = np.sum(np.abs(h) ** 2, axis=1)                 # (B, M) instantaneous powers
    ups_r = (np.sqrt(pilots.rho * pilots.kappa_r_bs * d_r)[:, :, None]
             * complex_normal(rng, (b, m, pilots.tau_u)))
    noise = complex_normal(rng, (b, m, pilots.tau_u), scale=np.sqrt(pilots.sigma_u2))

    y_p = h_t @ p_eff + ups_r + noise                    # (B, M, tau)
    return y_p @ phi_p                                   # (B, M, K)
