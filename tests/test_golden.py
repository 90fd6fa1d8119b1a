"""Golden-output regression: all nine experiments at a pinned seed.

Each experiment runs through ``run_experiment`` on a tiny grid with a few
Monte Carlo blocks, and its table is compared with the CSV under
``tests/golden/``. The golden files hold every cell at full precision
(``repr``), not the 12 significant digits ``emit_csv`` writes, so that a
roundoff change cannot flip a rounded digit. Closed-form columns must
agree to 1e-12 relative; Monte Carlo columns, the sweep axes, the seed
and the config hash must be identical.

Regenerate the goldens (only when a change is meant to move them) with

    PYTHONPATH=src python tests/test_golden.py

and set ``GOLDEN_STREAM_LAYOUT`` to the ``STREAM_LAYOUT`` they were written
under.
"""
import csv
import math
import os
import sys

import pytest

from ris_lab.experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from ris_lab.streams import STREAM_LAYOUT

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12
# the random-stream layout the Monte Carlo cells of the goldens were drawn under
GOLDEN_STREAM_LAYOUT = 9

BASE = {"m": 8, "n": 4, "k": 2, "m_e": 1, "snr_db": 10.0, "n_blocks": 64,
        "seed": 20240917}

# Per experiment: config overrides on top of BASE, each with an explicit grid.
CASES = {
    "nmse_vs_snr": {"sweep": [0.0, 20.0]},
    "nmse_vs_N": {"sweep": [4, 16]},
    "secrecy_vs_snr": {"sweep": [0.0, 10.0, 20.0]},
    "secrecy_vs_M": {"sweep": [8, 12], "m_e": 2},
    "secrecy_vs_N": {"sweep": [4, 16]},
    "asymptotic_vs_N": {"sweep": [16, 64]},
    "xi_sweep": {"sweep": [0.3, 1.0]},
    # xi = 1 with an ideal BS transmitter is the infinite-Eve-capacity corner
    "kappa_t_sweep": {"sweep": [0.0, 0.01], "xi": 1.0},
    "phase_noise_sweep": {"sweep": [4, 9], "phase_noise_levels": [0.0, 1.0]},
}


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.csv")


def run_case(name):
    return run_experiment(name, ExperimentConfig.from_dict({**BASE, **CASES[name]}))


def is_closed_form(column):
    return column.endswith("_cf") or column == "r_sec_closed"


def closed_form_agrees(got, want):
    """The closed-form cell rule: ``got`` matches the golden text ``want``."""
    want = float(want)
    if math.isinf(want) or want == 0.0:
        return got == want
    return abs(got - want) <= RTOL * abs(want)


def write_golden(name):
    """Write the golden CSV of one case.

    A closed-form cell whose committed value still agrees within RTOL keeps
    its committed text, so a regeneration moves only the cells that moved.
    """
    table = run_case(name)
    old_rows = []
    if os.path.exists(golden_path(name)):
        old_columns, old_rows = read_golden(name)
        if old_columns != table.columns or len(old_rows) != len(table.rows):
            old_rows = []
    lines = [",".join(table.columns)]
    for i, row in enumerate(table.rows):
        cells = [repr(v) if isinstance(v, float) else str(v) for v in row]
        if old_rows:
            cells = [old if is_closed_form(column) and closed_form_agrees(value, old) else new
                     for column, value, old, new in zip(table.columns, row, old_rows[i], cells)]
        lines.append(",".join(cells))
    with open(golden_path(name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_golden(name):
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_goldens_were_written_under_the_current_stream_layout():
    # a deliberate stream move raises STREAM_LAYOUT and regenerates the goldens
    assert GOLDEN_STREAM_LAYOUT == STREAM_LAYOUT


def test_every_experiment_has_a_case():
    assert sorted(CASES) == sorted(EXPERIMENT_NAMES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_matches_golden(name):
    columns, golden_rows = read_golden(name)
    table = run_case(name)
    assert table.columns == columns
    assert len(table.rows) == len(golden_rows)
    for row, want_row in zip(table.rows, golden_rows):
        for column, got, want in zip(columns, row, want_row):
            if is_closed_form(column):
                assert closed_form_agrees(got, want), (column, got, want)
            else:
                text = repr(got) if isinstance(got, float) else str(got)
                assert text == want, (column, text, want)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        write_golden(case)
        print(golden_path(case), file=sys.stderr)
