"""Compare the CSVs of two runs made under different stream layouts.

    python tests/layout_diff.py OLD_DIR NEW_DIR

A deliberate stream move (``streams.STREAM_LAYOUT``) may move every Monte
Carlo cell, and nothing else. The CSVs under both directories are paired by
their path below it. In each pair the header, the row count and every cell
but the Monte Carlo ones must be byte-equal: the closed forms, the sweep
axes, the seed and the config hash. Each Monte Carlo cell (a column ending
in ``_mc``) must lie within ``Z_BOUND`` combined standard errors of the old
one, |new - old| <= 3 sqrt(se_old^2 + se_new^2), its SE read from the
``<column>_se`` cell of the same row; the SE cells themselves are not
compared. Prints the worst |z| of each file and every breach, and exits 1
on any breach or on a CSV found in one directory only.

The cells of one draw run (``montecarlo._draw_runs``) share their
Gaussians, so they are not independent comparisons: a layout move shifts a
whole draw run together, and one low draw can carry one of its cells past
the bound. Every default grid is one draw run, so each CSV is taken as one,
and its mean signed z, (new - old) over the combined SE, is printed beside
its worst cell: a mean near the worst |z| says the run moved as a whole,
a mean near 0 that the worst cell moved alone. A custom N or M grid that
does not nest draws in several runs, and its mean then spans them.
"""
import argparse
import csv
import math
from pathlib import Path

Z_BOUND = 3.0


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def z_score(old, new, se_old, se_new):
    """|new - old| over the combined SE; 0 for equal cells, inf for unequal cells without SE."""
    return abs(signed_z(old, new, se_old, se_new))


def signed_z(old, new, se_old, se_new):
    """(new - old) over the combined SE; 0 for equal cells, +-inf for unequal cells without SE."""
    if old == new:
        return 0.0
    diff = float(new) - float(old)
    se = math.hypot(float(se_old), float(se_new))
    return diff / se if se > 0 else math.copysign(math.inf, diff)


def mean_z(old_rows, new_rows):
    """Mean signed z of the Monte Carlo cells of one draw run's pair of tables; nan without any.

    Each table is ``(header, rows)`` as ``read_csv`` returns it; tables
    whose headers or row counts differ have no mean.
    """
    (header, old), (new_header, new) = old_rows, new_rows
    if header != new_header or len(old) != len(new):
        return math.nan
    zs = []
    for a, b in zip(old, new):
        cells = dict(zip(header, zip(a, b)))
        zs += [signed_z(*cells[column], *cells[column + "_se"])
               for column in cells if column.endswith("_mc")]
    return sum(zs) / len(zs) if zs else math.nan


def compare(old_rows, new_rows):
    """(worst |z| of the Monte Carlo cells, breach messages) of one pair of tables.

    Each table is ``(header, rows)`` as ``read_csv`` returns it.
    """
    (header, old), (new_header, new) = old_rows, new_rows
    if header != new_header:
        return 0.0, [f"header {new_header} != {header}"]
    if len(old) != len(new):
        return 0.0, [f"{len(new)} rows != {len(old)}"]
    worst, breaches = 0.0, []
    for i, (a, b) in enumerate(zip(old, new)):
        cells = dict(zip(header, zip(a, b)))
        for column, (x, y) in cells.items():
            if column.endswith("_mc"):
                z = z_score(x, y, *cells[column + "_se"])
                worst = max(worst, z)
                if not z <= Z_BOUND:
                    breaches.append(f"row {i} {column}: {x} -> {y}, |z| = {z:.2f}")
            elif not column.endswith("_mc_se") and x != y:
                breaches.append(f"row {i} {column}: {x} -> {y}, not byte-equal")
    return worst, breaches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="directory of the old layout's CSVs")
    parser.add_argument("new", type=Path, help="directory of the new layout's CSVs")
    args = parser.parse_args(argv)
    names = {d: {p.relative_to(d) for p in d.rglob("*.csv")} for d in (args.old, args.new)}
    failed = False
    for name in sorted(names[args.old] | names[args.new]):
        if name not in names[args.old] or name not in names[args.new]:
            print(f"{name}: only in {args.old if name in names[args.old] else args.new}")
            failed = True
            continue
        tables = read_csv(args.old / name), read_csv(args.new / name)
        worst, breaches = compare(*tables)
        print(f"{name}: worst |z| = {worst:.2f}, draw-run mean z = {mean_z(*tables):+.2f}"
              + (" BREACH" if breaches else ""))
        for breach in breaches:
            print(f"  {breach}")
        failed |= bool(breaches)
    print(f"{len(names[args.old] & names[args.new])} CSV pairs, "
          f"{'a breach' if failed else 'no breach'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
