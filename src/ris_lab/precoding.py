"""Downlink precoding: MRT for data, null-space projection for AN.

The MRT columns are normalized by the statistical norm of the channel
estimate (not the instantaneous one), which is what makes the closed-form
rate expressions exact. The AN precoder V is an orthonormal basis of the
orthogonal complement of the estimated channel matrix. The model uses V
only through the AN covariance q V V^H = q (I - Q Q^H), Q the thin
orthonormal basis of span(h_hat), so the Monte Carlo oracle never forms
V; ``null_space_an_batch`` builds the explicit basis with a complete QR,
as the reference the tests compare the oracle against.
"""
from __future__ import annotations

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
        return cls(p_t=e_u / n, xi=xi, k=k, m=m)


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


def null_space_an_batch(h_hat: np.ndarray) -> np.ndarray:
    """Complements for stacked (B, M, K) estimates; assumes full rank.

    Complete-QR reference for the oracle's I - Q Q^H form of V V^H.
    """
    k = h_hat.shape[-1]
    q, _ = np.linalg.qr(h_hat, mode="complete")
    return q[..., k:]
