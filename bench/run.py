"""ris_lab benchmark: time ``simulate`` workloads and check their output.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each measured run is a fresh child interpreter (``child.py``) running
one workload through ``ris_lab.cli.main``; runs go one at a time until
``--seconds`` of measuring have passed (at least one run). Before that,
``SETUP_RUNS`` children only import ris_lab and resolve the config, for
the set-up time. Every run's CSV is checked against the reference CSV
for its seed (``check.py``).

With ``--trace 0`` the end-to-end metrics are reported, each the median
over runs; with ``--trace 1`` the per-layer metrics of ``tracer.py``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, program_seed  # noqa: E402

SETUP_RUNS = 10         # set-up-only children per run, after one warm-up
BUDGET_S = 150.0        # no new child once it would likely end past this
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".blocks", "blocks_requested")):
        return "count"
    return "ratio"


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, work: Path, trace: int,
              setup_only: bool = False) -> dict:
    result_path = work / "result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result_path),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path,
            started: float) -> dict:
    """Set-up children, then measured runs; returns samples and check totals."""
    pseed = program_seed(seed)
    setups = []
    if not trace:
        run_child(workload, pseed, work, 0, setup_only=True)   # warm-up, compiles .pyc
        setups = [run_child(workload, pseed, work, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS)]

    runs, attempted, failed, problems, last = [], 0, 0, [], None
    measure_start = time.perf_counter()
    while not runs or time.perf_counter() - measure_start < seconds:
        t0 = time.perf_counter()
        if runs and (t0 - started) + 1.2 * runs[-1]["child_s"] > BUDGET_S:
            break
        res = run_child(workload, pseed, work, trace)
        res["child_s"] = time.perf_counter() - t0
        if res["rc"] == 0:
            result = check.check_file(res["csv"], workload, pseed)
        else:
            result = check.failed_run(workload, pseed, f"simulate exited {res['rc']}")
        attempted += result.attempted
        failed += result.failed
        problems.extend(result.problems)
        setups.append(res["setup_s"])
        runs.append(res)
        last = result
    return {"runs": runs, "setups": setups, "attempted": attempted, "failed": failed,
            "problems": problems, "last_check": last, "program_seed": pseed}


def metrics_of(sample: dict, trace: int) -> dict:
    runs = sample["runs"]
    if trace:
        layered = [r["layers"] for r in runs if "layers" in r]
        if not layered:
            return {}
        return {name: {"value": statistics.median(r[name] for r in layered),
                       "unit": layer_unit(name)}
                for name in layered[0]}
    values = {name: [r[name] for r in runs] for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = sample["setups"]
    return {name: {"value": statistics.median(values[name]), "unit": END_TO_END[name]}
            for name in END_TO_END}


def report(workload: str, sample: dict, metrics: dict) -> None:
    runs = sample["runs"]
    print(f"== {workload}: {len(runs)} run(s), program seed {sample['program_seed']}, "
          f"{len(sample['setups'])} set-up sample(s)")
    print("env " + json.dumps(runs[-1]["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    frac = sample["failed"] / sample["attempted"]
    print(f"  {'row_fail_frac':<46} {frac:>14.6g} ratio "
          f"({sample['failed']}/{sample['attempted']} rows)")
    last = sample["last_check"]
    print(f"  check: Monte Carlo cells equal to the reference {last.mc_exact}/{last.mc_cells}"
          f" (last run); z=(cf-mc)/se per row: "
          + "; ".join(",".join(f"{k}={v:+.2f}" for k, v in row.items()) for row in last.z))
    for problem in sample["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "ris_lab" / "__init__.py").is_file():
        print(f"error: no ris_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    for name in names:
        ref = check.reference_path(name, program_seed(opts.seed))
        if not ref.is_file():
            print(f"error: missing reference {ref}", file=sys.stderr)
            return 2

    work = ROOT / ".bench_work" / f"{opts.workload}-{os.getpid()}"
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            work.mkdir(parents=True, exist_ok=True)
            sample = measure(name, opts.seed, opts.seconds, opts.trace, work,
                             time.perf_counter())
            found = metrics_of(sample, opts.trace)
            report(name, sample, found)
            prefix = f"{name}." if opts.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += sample["attempted"]
            failed += sample["failed"]
            correct = correct and sample["failed"] == 0 and bool(found)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
