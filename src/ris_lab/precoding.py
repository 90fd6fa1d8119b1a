"""Downlink precoding: MRT for data, null-space projection for AN.

The MRT columns are normalized by the statistical norm of the channel
estimate (not the instantaneous one), which is what makes the closed-form
rate expressions exact. The AN precoder V is an orthonormal basis of the
orthogonal complement of the estimated channel matrix. The model uses V
only through the AN covariance q V V^H = q (I - Q Q^H), Q the thin
orthonormal basis of span(h_hat), so the Monte Carlo oracle never forms
V; the explicit bases below are the single-realization API and the
complete-QR reference the tests compare against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigError, InvalidParameterError
from .estimation import ChannelEstimator


@dataclass(frozen=True)
class PowerAllocation:
    """Split of the total budget between data streams and AN streams."""

    p_t: float                     # total transmit power
    xi: float                      # fraction given to the information signal
    k: int                         # data streams
    m: int                         # BS antennas
    e_u: float | None = None       # budget constant when p_t = e_u / N

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise InvalidParameterError("power fraction xi must lie in (0, 1]")
        if self.p_t <= 0:
            raise InvalidParameterError("total power must be positive")
        if self.m <= self.k:
            raise InvalidParameterError("need M > K for the AN precoder")

    @property
    def p(self) -> float:
        """Per-stream data power."""
        return self.xi * self.p_t / self.k

    @property
    def q(self) -> float:
        """Per-stream AN power."""
        return (1.0 - self.xi) * self.p_t / (self.m - self.k)

    @classmethod
    def power_scaled(cls, e_u: float, n: int, xi: float, k: int, m: int):
        """Budget shrinking as 1/N with the RIS size."""
        return cls(p_t=e_u / n, xi=xi, k=k, m=m, e_u=e_u)


def mrt_precoder(h_hat: np.ndarray, est: ChannelEstimator) -> np.ndarray:
    """MRT columns h_hat_k / sqrt(E||h_hat_k||^2).

    ``h_hat`` has shape (..., M, K). The normalizer is the statistical
    second moment tau_u rho tr(R_k Psi_k^{-1} R_k) of the estimate.
    """
    norms = mrt_normalizers(est)
    return np.asarray(h_hat) / np.sqrt(norms)[..., None, :]


def mrt_normalizers(est: ChannelEstimator) -> np.ndarray:
    """E{||h_hat_k||^2} for every user."""
    tr = est.pilots.tau_u * est.pilots.rho
    norms = tr * np.asarray(est.tr_rpr)
    if np.any(norms <= 0):
        raise DegenerateConfigError("zero-power channel estimate; MRT undefined")
    return norms


def null_space_an(h_hat: np.ndarray, rank_tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(h_hat).

    ``h_hat`` is M x K (a single realization). Computed from the full QR
    decomposition, which is deterministic for a given input. If the matrix
    is numerically rank deficient the larger complement is returned with a
    warning.
    """
    h_hat = np.asarray(h_hat)
    m, k = h_hat.shape
    if m <= k:
        raise InvalidParameterError("no null space: M must exceed K")
    q, r = np.linalg.qr(h_hat, mode="complete")
    diag = np.abs(np.diag(r[:k, :k]))
    scale = max(float(np.max(np.abs(h_hat))), 1e-300)
    if np.min(diag) <= rank_tol * scale * m:
        u, s, _ = np.linalg.svd(h_hat, full_matrices=True)
        rank = int(np.sum(s > rank_tol * max(float(s[0]), 1e-300) * m))
        warnings.warn(
            f"estimated channel matrix is rank deficient ({rank} < {k}); "
            f"returning a {m - rank}-dimensional AN basis", stacklevel=2)
        return u[:, rank:]
    return q[:, k:]


def null_space_an_batch(h_hat: np.ndarray) -> np.ndarray:
    """Complements for stacked (B, M, K) estimates; assumes full rank.

    Complete-QR reference for the oracle's I - Q Q^H form of V V^H.
    """
    k = h_hat.shape[-1]
    q, _ = np.linalg.qr(h_hat, mode="complete")
    return q[..., k:]


@dataclass
class TransmitStatistics:
    """Per-realization transmit covariance and the distortion levels it sets."""

    t: np.ndarray                  # (M, M) symbol-averaged transmit covariance
    ups_t_diag: np.ndarray         # (M,) BS transmit distortion variances
    mu_r: np.ndarray | None        # (K,) user receive distortion powers


def transmit_statistics(w: np.ndarray, v: np.ndarray, alloc: PowerAllocation,
                        kappa_t_bs: float = 0.0, kappa_r_ue: float = 0.0,
                        h: np.ndarray | None = None) -> TransmitStatistics:
    """Symbol-averaged transmit covariance T = p W W^H + q V V^H.

    The BS transmit distortion variance profile is kappa_t_bs diag(T); the
    user receive distortion power is kappa_r_ue h_k^H T h_k per user when
    the aggregate channels ``h`` (K, M) are supplied.
    """
    t = alloc.p * w @ w.conj().T + alloc.q * v @ v.conj().T
    ups = kappa_t_bs * np.real(np.diag(t))
    mu_r = None
    if h is not None:
        mu_r = kappa_r_ue * np.real(np.einsum("km,mn,kn->k", h.conj(), t, h))
    return TransmitStatistics(t=t, ups_t_diag=ups, mu_r=mu_r)
