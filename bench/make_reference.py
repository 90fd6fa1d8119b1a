"""Write the reference CSVs the output check compares against.

    python3 bench/make_reference.py [--workload NAME ...] [--seed S ...]

Runs each workload once per program seed of the pool (``workloads.
seed_pool``) with the current sources and stores the CSV under
``bench/reference/<workload>/seed<S>.csv``. References are made once, from
the commit whose outputs later commits must reproduce.
"""
from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from run import ROOT, run_child  # noqa: E402
from workloads import WORKLOADS, seed_pool  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", nargs="*", type=int, default=seed_pool())
    opts = parser.parse_args()
    work = ROOT / ".bench_work" / "reference"
    try:
        for name in opts.workload:
            for seed in opts.seed:
                work.mkdir(parents=True, exist_ok=True)
                res = run_child(name, seed, work, 0)
                if res["rc"] != 0:
                    print(f"{name} seed {seed}: simulate exited {res['rc']}", file=sys.stderr)
                    return 1
                dest = check.reference_path(name, seed)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(res["csv"], dest)
                print(f"{dest.relative_to(ROOT)}  wall {res['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
