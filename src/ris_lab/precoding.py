"""Downlink precoding: MRT for data, null-space projection for AN.

``stream_powers`` is the only place that splits the total power P_t into
the per-stream data power p and AN power q, and the only check that the
data fraction xi lies in (0, 1]. The Monte Carlo oracles and every
closed form that works with p and q call it with the P_t of their
``HardwareProfile`` and the K and M of their statistics.

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

import numpy as np

from .errors import DegenerateConfigError, InvalidParameterError
from .estimation import ChannelEstimator


def stream_powers(p_t: float, xi: float, k: int, m: int) -> tuple[float, float]:
    """Per-stream data and AN powers (p, q) when a fraction xi of P_t carries data.

    K data streams share xi P_t and M - K AN streams share the rest, so
    K p + (M - K) q = P_t.
    """
    if not 0.0 < xi <= 1.0:
        raise InvalidParameterError("power fraction xi must lie in (0, 1]")
    return xi * p_t / k, (1.0 - xi) * p_t / (m - k)


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
