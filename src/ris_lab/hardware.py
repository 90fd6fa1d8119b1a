"""Downlink transceiver hardware profile.

Residual RF distortion is modeled as additive Gaussian noise whose power
is proportional to the signal power. Only the downlink factors (BS
transmit, user receive) live here; the RIS phase-error law is not
transceiver hardware and lives in ``ChannelStatistics.phase_model``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class HardwareProfile:
    """Downlink distortion factors and the user noise power, nothing else.

    The uplink factors (user transmit kappa_t_ue, BS receive kappa_r_bs) and
    the uplink noise power sigma_u2 live in ``estimation.PilotConfig``; the
    RIS phase-error law lives in the channel statistics.
    """

    kappa_t_bs: float = 0.0        # BS transmit distortion
    kappa_r_ue: float = 0.0        # user receive distortion
    sigma_k2: float = 1.0          # downlink noise power at each user

    def __post_init__(self):
        for name in ("kappa_t_bs", "kappa_r_ue"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative")
        if self.sigma_k2 < 0:
            raise InvalidParameterError("noise powers must be non-negative")
