"""Compare two margin ledgers written by ``pytest --ledger=PATH``.

    python tests/ledger_diff.py OLD NEW

Prints one line per check of either ledger, keyed by the test's node id and
the check's name: its margin in OLD, its margin in NEW ("-" where a ledger
lacks the check) and a flag where the NEW margin lies below half its bound,
"fell" if the OLD one did not and "low" if it did too. A margin is the
check's slack to its bound over that bound (see ``recorder`` in
``tests/conftest.py``): a |x - y| < 3 se check reads 1 at x = y and 0 at
the bound, so it is flagged beyond |x - y| = 1.5 se.
"""
import argparse
import json

HALF = 0.5


def margin_rows(old, new):
    """(node id, check, old margin, new margin) for every check of either ledger.

    A margin is None where its ledger lacks the check; rows are sorted.
    """
    keys = sorted({(test, check) for ledger in (old, new)
                   for test, checks in ledger.items() for check in checks})
    return [(test, check,
             old.get(test, {}).get(check, {}).get("margin"),
             new.get(test, {}).get(check, {}).get("margin"))
            for test, check in keys]


def flag(old, new):
    """The flag of one check's margins: "fell", "low" or none (see the module docstring)."""
    if new is None or new >= HALF:
        return ""
    return "low" if old is not None and old < HALF else "fell"


def format_rows(rows):
    """The diff's lines: a header, one line per row and a count of each flag."""
    def cell(margin):
        return f"{margin:+8.3f}" if margin is not None else f"{'-':>8}"

    lines = [f"{'old':>8} {'new':>8} flag test :: check"]
    flags = []
    for test, check, old, new in rows:
        flags.append(flag(old, new))
        lines.append(f"{cell(old)} {cell(new)} {flags[-1]:<4} {test} :: {check}")
    lines.append(f"{len(rows)} checks: {flags.count('fell')} fell below half their bound, "
                 f"{flags.count('low')} were below it in both ledgers")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="ledger of the parent")
    parser.add_argument("new", help="ledger of the change")
    args = parser.parse_args(argv)
    ledgers = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    print("\n".join(format_rows(margin_rows(*ledgers))))


if __name__ == "__main__":
    main()
