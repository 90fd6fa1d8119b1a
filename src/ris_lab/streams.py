"""Reproducible random-stream derivation.

One master seed drives everything. Each consumer derives an independent
substream from ``(master_seed, purpose, index...)`` via a SeedSequence
spawn key, so results are bit-identical no matter how work is scheduled
across threads.

A complex Gaussian array of ``shape`` is drawn as the numbers of one real
``standard_normal((2, *shape))`` call, all real parts before all imaginary
parts, in one call or one per part; its consumer scales and colors the
parts itself.

The chunk stream ``(master_seed, purpose, chunk)`` of a Monte Carlo oracle
gives the users' links, then Eve's links where the oracle reads her channel
(``CHANNEL_BLOCK``, the secrecy oracle), then the pilot Gaussians. The
``NMSE_BLOCK`` stream holds no Eve links: its pilot Gaussians follow the
users' links. The pilot Gaussians are those of the despread pilot
observation, (B, K, K) transmit distortion and then (B, M, K) receive
distortion plus noise, so their count does not depend on the pilot length.
All of them are drawn at the largest arrays of the oracle call, and each
point reads its RIS sub-grid and leading antennas of them, so a point is
bit-identical to itself alone at the same draw grid: in any call whose
largest arrays are the same.

``STREAM_LAYOUT`` names this layout. A CSV carries the seed and the config
hash, not the layout, so two runs of one config under different layouts can
differ in every Monte Carlo cell; the manifest records the layout.
"""
from __future__ import annotations

import numpy as np

# Raised by every deliberate change of which random numbers a Monte Carlo
# cell reads. Layout 6: the points of a sweep over nested array sizes read
# one draw at its largest arrays. Layout 7: chunks of 50 blocks
# (montecarlo.CHUNK_BLOCKS), not 100, so every chunk stream moved.
STREAM_LAYOUT = 7

# Purpose tags for spawn keys. Fixed values: changing them changes every
# derived stream, which invalidates frozen regression values.
LOS_ANGLES = 1
SCENARIO = 2
CHANNEL_BLOCK = 3
# 4 is the Wishart-moment test oracle's stream (tests/test_montecarlo.py)
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
