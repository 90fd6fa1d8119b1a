"""Output check: a ``simulate`` CSV against the stored reference CSV.

Columns are classified by name:

* ``config_hash`` is ignored: it hashes the whole config including
  ``out_dir``, so the same run written elsewhere gets another hash.
* the sweep columns and ``seed`` must match exactly;
* ``*_cf`` (closed form) must match within ``CF_RTOL`` relative;
* ``*_mc`` (Monte Carlo) must lie within ``MC_SIGMAS`` combined standard
  errors sqrt(se^2 + se_ref^2) of the reference, so a deliberate change of
  the random-stream layout does not fail by chance;
* invariants: every value finite, ``nmse*`` in [0, 1], ``r_sec*`` >= 0,
  ``*_se`` > 0.

A row fails if any of these fails; a missing or extra row fails too.
Exactly matching Monte Carlo cells and the per-row z = (cf - mc)/se are
reported for information only.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

CF_RTOL = 1e-9
MC_SIGMAS = 4.0
IGNORED = ("config_hash",)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed{seed}.csv"


def read_csv(path) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@dataclass
class CheckResult:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    mc_cells: int = 0
    mc_exact: int = 0
    z: list = field(default_factory=list)       # per row: {column: z}


def _row_problems(columns, got, want) -> tuple[list, int, int, dict]:
    """Problems in one row, exact Monte Carlo cells, MC cells, and z-scores.

    ``got`` and ``want`` map column name to cell text; ``columns`` are the
    reference's columns.
    """
    problems = []
    num = {}
    for col in columns:
        if col in IGNORED:
            continue
        try:
            num[col] = float(got[col])
        except ValueError:
            problems.append(f"{col}={got[col]!r} is not a number")
            continue
        if not math.isfinite(num[col]):
            problems.append(f"{col}={got[col]} is not finite")
    if problems:
        return problems, 0, 0, {}

    exact = cells = 0
    z = {}
    for col in columns:
        if col in IGNORED:
            continue
        value, reference = num[col], float(want[col])
        if col.startswith("nmse") and not 0.0 <= value <= 1.0:
            problems.append(f"{col}={value} outside [0, 1]")
        if col.startswith("r_sec") and value < 0.0:
            problems.append(f"{col}={value} negative")
        if col.endswith("_se"):
            if value <= 0.0:
                problems.append(f"{col}={value} not positive")
            continue
        if col.endswith("_cf"):
            if abs(value - reference) > CF_RTOL * max(abs(value), abs(reference)):
                problems.append(f"{col}={value!r} differs from reference {reference!r}")
        elif col.endswith("_mc"):
            se_col = col + "_se"
            cells += 2
            exact += (got[col] == want[col]) + (got[se_col] == want[se_col])
            se = math.hypot(num[se_col], float(want[se_col]))
            if abs(value - reference) > MC_SIGMAS * se:
                problems.append(f"{col}={value!r} is {abs(value - reference) / se:.1f} "
                                f"combined SE from reference {reference!r}")
            cf = col[:-3] + "_cf"
            if cf in num and num[se_col] > 0:
                z[col[:-3]] = (num[cf] - value) / num[se_col]
        elif value != reference:
            problems.append(f"{col}={got[col]!r} differs from reference {want[col]!r}")
    return problems, exact, cells, z


def check_rows(header, rows, ref_header, ref_rows) -> CheckResult:
    """Compare parsed CSV content with the reference; one verdict per row.

    Every reference column must be present; extra output columns are not
    checked.
    """
    result = CheckResult(attempted=len(ref_rows))
    missing = [c for c in ref_header if c not in header]
    if missing:
        result.failed = len(ref_rows)
        result.problems.append(f"columns {missing} missing from the output")
        return result
    for i, ref in enumerate(ref_rows):
        if i >= len(rows) or len(rows[i]) != len(header):
            result.failed += 1
            result.problems.append(f"row {i}: missing or malformed")
            continue
        problems, exact, cells, z = _row_problems(
            ref_header, dict(zip(header, rows[i])), dict(zip(ref_header, ref)))
        result.mc_exact += exact
        result.mc_cells += cells
        result.z.append(z)
        if problems:
            result.failed += 1
            result.problems.extend(f"row {i}: {p}" for p in problems)
    if len(rows) > len(ref_rows):
        extra = len(rows) - len(ref_rows)
        result.attempted += extra
        result.failed += extra
        result.problems.append(f"{extra} rows more than the reference")
    return result


def check_file(csv_path, workload: str, seed: int) -> CheckResult:
    ref_header, ref_rows = read_csv(reference_path(workload, seed))
    try:
        header, rows = read_csv(csv_path)
    except (OSError, IndexError) as exc:
        result = CheckResult(attempted=len(ref_rows), failed=len(ref_rows))
        result.problems.append(f"cannot read {csv_path}: {exc}")
        return result
    return check_rows(header, rows, ref_header, ref_rows)


def failed_run(workload: str, seed: int, reason: str) -> CheckResult:
    """A run that produced no usable output: every reference row failed."""
    _, ref_rows = read_csv(reference_path(workload, seed))
    result = CheckResult(attempted=len(ref_rows), failed=len(ref_rows))
    result.problems.append(reason)
    return result
