"""Compare two ``extrinsic-q verify`` reports row by row.

Usage, from anywhere:

    python3 tools/compare_reports.py A.json B.json

A and B are reports written by ``extrinsic-q verify --suite all --output``
(any suite works).  A row is one check result, named by its scenario and
check.  The script prints the number of rows that are identical in every
field, then each row that differs with |delta max_abs_err| / scale (the scale
of A's row, or 1 where that is 0) and any other field that changed, largest
first, then every pass/fail flip and every row found in only one report.

Exit status: 0 when no row flips and both reports hold the same rows, 1 when
a row flips or is missing from one side, 2 when a file cannot be read as a
report.
"""

import json
import sys


def rows(path):
    """{(scenario block, check, occurrence): row} of one report."""
    with open(path) as fh:
        report = json.load(fh)
    out = {}
    for scn in report["scenarios"]:
        for row in scn["checks"]:
            key = (scn["name"], row["check"])
            n = sum(k[:2] == key for k in out)
            out[key + (n,)] = row
    return report, out


def label(key, row):
    """check@scenario, with the scenario the row itself names (an audit row
    in one scenario's block may integrate on another)."""
    block, check, n = key
    return f"{check}@{row.get('scenario', block)}" + (f" #{n + 1}" if n else "")


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        (ra, a), (rb, b) = rows(argv[0]), rows(argv[1])
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if ra.get("config") != rb.get("config"):
        print("note: the reports' configs differ")
    common = [k for k in a if k in b]
    same = [k for k in common if a[k] == b[k]]
    print(f"identical rows: {len(same)} of {len(common)} in both reports")
    diffs = []
    for k in common:
        if a[k] == b[k]:
            continue
        scale = a[k].get("scale") or 1.0
        delta = abs(b[k]["max_abs_err"] - a[k]["max_abs_err"]) / scale
        other = sorted(f for f in set(a[k]) | set(b[k])
                       if f not in ("max_abs_err", "rel_err") and a[k].get(f) != b[k].get(f))
        diffs.append((delta, k, other))
    if diffs:
        print("differing rows, |delta max_abs_err| / scale:")
        for delta, k, other in sorted(diffs, key=lambda t: -t[0]):
            extra = f"  (also {', '.join(other)})" if other else ""
            print(f"  {delta:.3e}  {label(k, a[k])}{extra}")
    flips = [k for k in common if a[k].get("passed") != b[k].get("passed")]
    for k in flips:
        print(f"FLIP  {label(k, a[k])}: passed {a[k].get('passed')} -> {b[k].get('passed')}")
    only = [(argv[0], k, a[k]) for k in a if k not in b]
    only += [(argv[1], k, b[k]) for k in b if k not in a]
    for path, k, row in only:
        print(f"ONLY IN {path}: {label(k, row)}")
    if not flips and not only:
        print("no pass/fail flips")
    return 1 if flips or only else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
