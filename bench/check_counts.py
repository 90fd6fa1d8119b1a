"""Check that the traced work counts are exact and match the seed commit.

    python3 bench/check_counts.py [--workload NAME ...] [--seed S]

Runs every workload traced twice. Each count (``*.calls``, ``*.blocks``,
``montecarlo.blocks_requested`` and ``montecarlo.blocks_drawn_per_requested``)
must be identical between the two runs, and is compared with the value
recorded at the commit that defined the benchmark (``SEED_COUNTS``). A
change that moves a count on purpose shows up here as a difference from
the seed value, to be reported as such. Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, layer_unit, run_child  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, program_seed  # noqa: E402

# Counts that do not depend on the seed, as measured when the benchmark was defined.
SEED_COUNTS = {
    "secrecy_paper": {
        "experiments.build_setup.calls": 3,
        "linalg.herm_sqrt.calls": 6,
        "estimation.ChannelEstimator.calls": 3,
        "geometry.sample_realizations.calls": 12,
        "geometry.sample_realizations.blocks": 6144,
        "precoding.null_space_an_batch.blocks": 6144,
        "rates.secrecy_rate.calls": 18,
        "rates.compute_rate_terms.calls": 54,
        "montecarlo.blocks_requested": 3072,
        "montecarlo.blocks_drawn_per_requested": 2.0,
    },
    "phase_noise_n400": {
        "experiments.build_setup.calls": 3,
        "linalg.herm_sqrt.calls": 6,
        "estimation.ChannelEstimator.calls": 3,
        "geometry.sample_realizations.calls": 6,
        "geometry.sample_realizations.blocks": 2400,
        "precoding.null_space_an_batch.blocks": 2400,
        "rates.secrecy_rate.calls": 18,
        "rates.compute_rate_terms.calls": 54,
        "montecarlo.blocks_requested": 1200,
        "montecarlo.blocks_drawn_per_requested": 2.0,
    },
    "nmse_sweep_n": {
        "experiments.build_setup.calls": 6,
        "linalg.herm_sqrt.calls": 12,
        "estimation.ChannelEstimator.calls": 6,
        "geometry.sample_realizations.calls": 6,
        "geometry.sample_realizations.blocks": 2400,
        "precoding.null_space_an_batch.blocks": 0,
        "rates.secrecy_rate.calls": 0,
        "rates.compute_rate_terms.calls": 0,
        "montecarlo.blocks_requested": 2400,
        "montecarlo.blocks_drawn_per_requested": 1.0,
    },
}


def is_count(name: str) -> bool:
    return layer_unit(name) == "count" or name == "montecarlo.blocks_drawn_per_requested"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    opts = parser.parse_args()
    work = ROOT / ".bench_work" / f"counts-{os.getpid()}"
    bad = 0
    try:
        for name in opts.workload:
            work.mkdir(parents=True, exist_ok=True)
            first, second = (
                {k: v for k, v in run_child(name, program_seed(opts.seed), work, 1)
                 ["layers"].items() if is_count(k)}
                for _ in range(2))
            for key in sorted(first):
                expected = SEED_COUNTS[name].get(key)
                notes = []
                if first[key] != second[key]:
                    notes.append(f"second run {second[key]}")
                if expected is not None and first[key] != expected:
                    notes.append(f"seed value {expected}")
                bad += bool(notes)
                print(f"{name:<18} {key:<46} {first[key]:>8g}  "
                      + ("DIFFERS: " + ", ".join(notes) if notes else "ok"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
