"""Downlink operating point: transmit budget and transceiver hardware.

``HardwareProfile`` holds the total transmit power P_t, the residual RF
distortion factors of the BS transmitter and the user receivers, and the
user noise power. It is the downlink counterpart of
``estimation.PilotConfig``, which holds the pilot power rho and the uplink
noise and distortion. Residual RF distortion is modeled as additive
Gaussian noise whose power is proportional to the signal power. The
data/AN split of P_t is not stored: closed forms and oracles take it as
the plain fraction xi (see ``precoding.stream_powers``). The RIS
phase-error law is not transceiver hardware and lives in
``ChannelStatistics.phase_model``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class HardwareProfile:
    """Total transmit power, downlink distortion factors and the user noise power."""

    p_t: float                     # total transmit power
    kappa_t_bs: float = 0.0        # BS transmit distortion
    kappa_r_ue: float = 0.0        # user receive distortion
    sigma_k2: float = 1.0          # downlink noise power at each user

    def __post_init__(self):
        if self.p_t <= 0:
            raise InvalidParameterError("total power must be positive")
        for name in ("kappa_t_bs", "kappa_r_ue"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative")
        if self.sigma_k2 < 0:
            raise InvalidParameterError("noise powers must be non-negative")
