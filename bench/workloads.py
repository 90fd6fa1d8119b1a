"""Benchmark workloads: each is one ``simulate`` invocation.

The benchmark seed picks the program's master seed from a fixed pool of
``POOL_SIZE`` seeds starting at ``DEFAULT_SEED``; the master seed sets the
scenario geometry (so the closed forms) and the Monte Carlo streams, and
the output check holds a reference CSV for every seed of the pool.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20240901
POOL_SIZE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    why: str
    config: dict = field(default_factory=dict)   # written to the --config file
    flags: tuple = ()

    def argv(self, seed: int, out_dir: Path, config_path: Path) -> list:
        """Arguments for ``ris_lab.cli.main``; writes the config file."""
        config_path.write_text(json.dumps(self.config, sort_keys=True), encoding="utf-8")
        return [self.experiment, "--config", str(config_path), "--seed", str(seed),
                "--out", str(out_dir), *self.flags]


WORKLOADS = {w.name: w for w in [
    Workload(
        "secrecy_paper", "secrecy_vs_snr",
        "paper scale M=128 N=196: BS-side QR, AN projections and Eve solves; two "
        "512-block chunks run the thread pool; equal-size rows",
        config={"sweep": [0.0, 10.0, 20.0]},
        flags=("--paper-scale", "--trials", "1024")),
    Workload(
        "phase_noise_n400", "phase_noise_sweep",
        "RIS side at N=400: N^2 sampler contractions, R_I and its square root "
        "rebuilt per phase-noise level; one chunk, no pool",
        config={"sweep": [400]}),
    Workload(
        "nmse_sweep_n", "nmse_vs_N",
        "estimation oracle only, a different N per row: no precoder, no Eve pass, "
        "no pool; caching and fusion should not move it",
        config={}),
]}


def program_seed(seed: int) -> int:
    """Master seed handed to ``simulate`` for benchmark seed ``seed``."""
    return DEFAULT_SEED + (seed - DEFAULT_SEED) % POOL_SIZE


def seed_pool() -> list:
    return [DEFAULT_SEED + i for i in range(POOL_SIZE)]
