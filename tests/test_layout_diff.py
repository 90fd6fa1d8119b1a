"""``layout_diff``: the check of a deliberate stream-layout move."""
import math

from layout_diff import compare, main, mean_z

HEADER = ["snr_db", "r_sec_cf", "r_sec_mc", "r_sec_mc_se", "seed"]
OLD = (HEADER, [["0.0", "1.25", "1.0", "0.1", "7"], ["10.0", "2.5", "2.0", "0.1", "7"]])


def test_monte_carlo_cells_may_move_within_three_combined_se():
    # |2.4 - 2.0| / hypot(0.1, 0.1) = 2.83 passes, 2.5 reads 3.54 and fails
    worst, breaches = compare(OLD, (HEADER, [OLD[1][0], ["10.0", "2.5", "2.4", "0.1", "7"]]))
    assert math.isclose(worst, 0.4 / math.hypot(0.1, 0.1)) and breaches == []
    worst, breaches = compare(OLD, (HEADER, [OLD[1][0], ["10.0", "2.5", "2.5", "0.1", "7"]]))
    assert worst > 3 and breaches == ["row 1 r_sec_mc: 2.0 -> 2.5, |z| = 3.54"]


def test_every_other_cell_must_be_byte_equal(tmp_path):
    # a closed form that moved in its last digit, or a new header, is a breach
    moved = (HEADER, [OLD[1][0], ["10.0", "2.5000000000000004", "2.0", "0.2", "7"]])
    assert compare(OLD, moved)[1] == ["row 1 r_sec_cf: 2.5 -> 2.5000000000000004, not byte-equal"]
    assert compare(OLD, (HEADER[::-1], OLD[1]))[1]
    for name, table in (("old", OLD), ("new", moved)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text(
            "\n".join(",".join(row) for row in [table[0], *table[1]]) + "\n")
    assert main([str(tmp_path / "old"), str(tmp_path / "old")]) == 0
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1


def test_draw_run_mean_z_tells_a_whole_run_move_from_one_cell(capsys, tmp_path):
    # the rows of one draw run share their Gaussians: a run moved as a whole
    # reads a mean z near its worst cell, one cell moved alone a mean near 0
    whole = (HEADER, [["0.0", "1.25", "1.2", "0.1", "7"], ["10.0", "2.5", "2.2", "0.1", "7"]])
    alone = (HEADER, [OLD[1][0], ["10.0", "2.5", "1.6", "0.1", "7"]])
    assert math.isclose(mean_z(OLD, whole), 0.2 / math.hypot(0.1, 0.1))
    assert math.isclose(mean_z(OLD, alone), -0.2 / math.hypot(0.1, 0.1))
    assert math.isnan(mean_z(OLD, (HEADER[::-1], OLD[1])))
    for name, table in (("old", OLD), ("new", whole)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text(
            "\n".join(",".join(row) for row in [table[0], *table[1]]) + "\n")
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert "a.csv: worst |z| = 1.41, draw-run mean z = +1.41" in capsys.readouterr().out
