"""Reproducible random-stream derivation.

One master seed drives everything. Each consumer derives an independent
substream from ``(master_seed, purpose, index...)`` via a SeedSequence
spawn key, so results are bit-identical no matter how work is scheduled
across threads.
"""
from __future__ import annotations

import numpy as np

# Purpose tags for spawn keys. Fixed values: changing them changes every
# derived stream, which invalidates frozen regression values.
LOS_ANGLES = 1
SCENARIO = 2
CHANNEL_BLOCK = 3
EVE_BLOCK = 4
NMSE_BLOCK = 5
# RIS phase errors of one Monte Carlo chunk: the last element of the key
# (master_seed, oracle purpose, chunk index, PHASE_ERRORS). Their own
# substream keeps the chunk stream, with its Gaussians and pilot noise, the
# same for all operating points of one oracle call; each law restarts it.
PHASE_ERRORS = 6


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for substream ``key`` of ``master_seed``."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def complex_normal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian CN(0, scale^2) samples."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (scale / np.sqrt(2.0)) * (re + 1j * im)
