"""One measured ``simulate`` run in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed S --work DIR --result FILE
                           [--trace 0|1] [--setup-only]

Times the ``ris_lab`` import plus config resolution (setup), then
``ris_lab.cli.main`` (wall and process CPU over all threads), and records
the peak RSS and the environment. With ``--trace 1`` the ris_lab layers
are wrapped by ``tracer`` and per-layer metrics are added. The result is
written as JSON to ``--result``.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(montecarlo) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RIS_LAB_THREADS": os.environ.get("RIS_LAB_THREADS"),
        "worker_count": montecarlo.worker_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args()

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    opts.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[opts.workload]
    argv = workload.argv(opts.seed, opts.work / "out", opts.work / "config.json")

    sys.path.insert(0, str(SRC_DIR))
    import ris_lab.cli as cli
    from ris_lab import montecarlo

    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"ris_lab imported from {cli.__file__}, not {SRC_DIR}")
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    result = {"setup_s": time.perf_counter() - T_START}
    if opts.setup_only:
        opts.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    recorder = None
    if opts.trace:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
        root = recorder.open(tracer.ROOT)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    rc = cli.main(argv)
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    if recorder is not None:
        recorder.close(root)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rc"] = rc
    result["csv"] = str(opts.work / "out" / f"{workload.experiment}.csv")
    result["env"] = environment(montecarlo)
    if recorder is not None and rc == 0:
        with open(result["csv"], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        result["layers"] = tracer.layer_metrics(recorder, rows * config.n_blocks)
    opts.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
