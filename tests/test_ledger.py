"""Margin ledger: the checks and records of ``within``, and ``ledger_diff``."""
import numpy as np
import pytest

from conftest import recorder
from ledger_diff import format_rows, margin_rows


def test_within_asserts_the_comparison_and_records_the_worst_margin():
    records = {}
    within = recorder(records)
    within("one-sided", np.array([0.5, 2.0, 1.2]), below=np.array([3.0, 3.0, 1.5]))
    within("two-sided", 1.0, above=0.7, below=1.4)
    within("lower", 40.0, above=10.0)
    within("repeated", 0.0, below=3.0)
    within("repeated", 2.0, below=3.0)
    within("repeated", 1.0, below=3.0)
    within("at the bound", 3.0, below=3.0, inclusive=True)
    assert records["one-sided"] == {"value": 1.2, "below": 1.5, "margin": pytest.approx(0.2)}
    assert records["two-sided"] == {"value": 1.0, "above": 0.7, "below": 1.4,
                                    "margin": pytest.approx(0.3 / 0.35)}
    assert records["lower"]["margin"] == pytest.approx(3.0)
    assert records["repeated"]["value"] == 2.0
    assert records["at the bound"]["margin"] == 0.0
    for kwargs in ({"below": 3.0}, {"above": 3.0}, {"above": 0.7, "below": 1.4}):
        with pytest.raises(AssertionError, match="failing"):
            within("failing", 3.0, **kwargs)


def test_ledger_diff_flags_margins_below_half_their_bound():
    old = {"t::a": {"w": {"margin": 0.3}, "x": {"margin": 0.9}, "y": {"margin": 0.8}}}
    new = {"t::a": {"w": {"margin": 0.2}, "x": {"margin": 0.4}}, "t::b": {"z": {"margin": 0.6}}}
    rows = margin_rows(old, new)
    assert rows == [("t::a", "w", 0.3, 0.2), ("t::a", "x", 0.9, 0.4), ("t::a", "y", 0.8, None),
                    ("t::b", "z", None, 0.6)]
    assert format_rows(rows)[1:] == [
        "  +0.300   +0.200 low  t::a :: w",
        "  +0.900   +0.400 fell t::a :: x",
        "  +0.800        -      t::a :: y",
        "       -   +0.600      t::b :: z",
        "4 checks: 1 fell below half their bound, 1 were below it in both ledgers",
    ]
