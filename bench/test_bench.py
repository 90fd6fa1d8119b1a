"""Tests of the benchmark's own machinery: span recorder and output check.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
from run import END_TO_END  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, POOL_SIZE, WORKLOADS, program_seed, seed_pool  # noqa: E402


# --------------------------------------------------------------------------
# span recorder
# --------------------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        tracer.Span(0, None, "parent", thread=1, start=0.0, end=10.0),
        tracer.Span(1, 0, "child", thread=2, start=1.0, end=9.0),
        tracer.Span(2, 0, "child", thread=3, start=2.0, end=10.0),
        tracer.Span(3, 1, "grandchild", thread=2, start=3.0, end=4.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(1.0)     # a naive sum of children gives -6
    assert selfs[1] == pytest.approx(7.0)
    assert selfs[3] == pytest.approx(1.0)
    agg = tracer.summarize(spans)
    assert agg["child"]["busy_s"] == pytest.approx(16.0)
    assert agg["child"]["calls"] == 2


def test_pool_threads_parent_to_submitting_span():
    rec = tracer.Recorder()
    pool_class = rec.pool_class()
    barrier = threading.Barrier(2, timeout=5)

    def work():
        with_span = rec.wrap("child", lambda: (barrier.wait(), time.sleep(0.2)))
        with_span()

    parent = rec.open("parent")
    with pool_class(max_workers=2) as pool:
        futures = [pool.submit(work) for _ in range(2)]
        for f in futures:
            f.result(timeout=10)
    rec.close(parent)

    children = [s for s in rec.spans if s.name == "child"]
    assert len(children) == 2
    assert {s.parent for s in children} == {parent.sid}
    assert len({s.thread for s in children}) == 2
    agg = tracer.summarize(rec.spans)
    assert agg["child"]["busy_s"] >= 0.4
    duration = parent.end - parent.start
    assert 0.0 <= agg["parent"]["self_s"] < duration - 0.19
    assert rec.pool_task_s >= 0.4
    assert len(rec.pools) == 1 and rec.pools[0][1] == 2


def test_install_finds_every_traced_binding():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracer; "
            "tracer.install(tracer.Recorder())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(BENCH_DIR.parent / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

def _reference(workload="secrecy_paper"):
    return check.read_csv(check.reference_path(workload, DEFAULT_SEED))


def _with_cell(rows, header, row, column, value):
    out = [list(r) for r in rows]
    out[row][header.index(column)] = value
    return out


def test_reference_passes_itself_with_every_mc_cell_exact():
    header, rows = _reference()
    result = check.check_rows(header, rows, header, rows)
    assert (result.attempted, result.failed) == (len(rows), 0)
    assert result.mc_exact == result.mc_cells > 0


@pytest.mark.parametrize("column, scale", [("r_sec_cf", 1 + 1e-6), ("c_eve_cf", 1 - 1e-6)])
def test_perturbed_closed_form_fails_its_row(column, scale):
    header, rows = _reference()
    value = float(rows[1][header.index(column)]) * scale
    bad = _with_cell(rows, header, 1, column, repr(value))
    result = check.check_rows(header, bad, header, rows)
    assert (result.attempted, result.failed) == (3, 1)
    assert result.problems[0].startswith("row 1:")


def test_monte_carlo_within_combined_se_passes_and_beyond_fails():
    header, rows = _reference()
    mc, se = (float(rows[0][header.index(c)]) for c in ("r_sec_mc", "r_sec_mc_se"))
    combined = se * 2 ** 0.5
    near = _with_cell(rows, header, 0, "r_sec_mc", repr(mc + 3.0 * combined))
    result = check.check_rows(header, near, header, rows)
    assert result.failed == 0 and result.mc_exact == result.mc_cells - 1
    far = _with_cell(rows, header, 0, "r_sec_mc", repr(mc + 5.0 * combined))
    assert check.check_rows(header, far, header, rows).failed == 1


def test_invariants_fail_a_row_even_when_the_reference_agrees():
    for workload, column, value in [("nmse_sweep_n", "nmse_mc", "1.5"),
                                    ("nmse_sweep_n", "nmse_cf", "-0.01"),
                                    ("nmse_sweep_n", "nmse_mc_se", "0"),
                                    ("nmse_sweep_n", "nmse_large_n_cf", "inf"),
                                    ("phase_noise_n400", "r_sec_cf", "-0.1")]:
        header, rows = _reference(workload)
        bad = _with_cell(rows, header, 0, column, value)
        assert check.check_rows(header, bad, header, bad).failed == 1, column


def test_row_identity_and_shape():
    header, rows = _reference("nmse_sweep_n")
    for column, value in [("seed", "7"), ("n", "17")]:
        bad = _with_cell(rows, header, 2, column, value)
        assert check.check_rows(header, bad, header, rows).failed == 1, column
    hashed = _with_cell(rows, header, 0, "config_hash", "000000000000")
    assert check.check_rows(header, hashed, header, rows).failed == 0
    short = check.check_rows(header, rows[:-1], header, rows)
    assert (short.attempted, short.failed) == (len(rows), 1)
    extra_column = check.check_rows(header + ["status"], [r + ["ok"] for r in rows],
                                    header, rows)
    assert extra_column.failed == 0
    dropped = check.check_rows(header[:-2], [r[:-2] for r in rows], header, rows)
    assert dropped.failed == len(rows)


# --------------------------------------------------------------------------
# workloads and references
# --------------------------------------------------------------------------

def test_program_seed_maps_into_the_pool():
    assert program_seed(DEFAULT_SEED) == DEFAULT_SEED
    pool = set(seed_pool())
    assert {program_seed(s) for s in range(-3, 3 * POOL_SIZE)} == pool
    assert program_seed(12345) == program_seed(12345)


def test_every_workload_has_a_reference_per_pool_seed():
    for name in WORKLOADS:
        for seed in seed_pool():
            assert check.reference_path(name, seed).is_file(), (name, seed)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    rec = tracer.Recorder()
    rec.close(rec.open(tracer.ROOT))
    layers = tracer.layer_metrics(rec, blocks_requested=1)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
