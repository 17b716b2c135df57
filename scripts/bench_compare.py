#!/usr/bin/env python3
"""Collect and compare BENCH_*.json files.

Two modes:

  collect   Read raw `BENCH_JSON=1 cargo bench` output (stdin or a file)
            and write the canonical wrapped JSON format used by
            BENCH_baseline.json / BENCH_pr2.json.

                BENCH_JSON=1 cargo bench 2>&1 | \
                    python3 scripts/bench_compare.py collect -o BENCH_pr2.json

  compare   Diff two recorded files (or a recorded file against raw bench
            output) and print per-bench ratios new/old. A bench is compared
            by `median_ns` (the median batch mean) when both records carry
            it, and by `mean_ns` otherwise, so files recorded before the
            stand-in reported medians still compare.

                python3 scripts/bench_compare.py compare \
                    BENCH_baseline.json BENCH_pr2.json

`compare` exits 0 always by default (timings on shared CI boxes are noisy;
the table is informational). Pass --fail-above R to exit 1 if any common
bench regressed by more than a factor of R.
"""

import argparse
import json
import platform
import re
import subprocess
import sys
from datetime import date

LINE_RE = re.compile(r'^\{"bench":.*\}$')


def parse_benches(text):
    """Extract bench records from raw bench output or a wrapped JSON file."""
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
            if isinstance(doc, dict) and "benches" in doc:
                return doc["benches"]
        except json.JSONDecodeError:
            pass
    benches = []
    for line in text.splitlines():
        line = line.strip()
        if LINE_RE.match(line):
            benches.append(json.loads(line))
    return benches


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except Exception:
        return "unknown"


def cmd_collect(args):
    text = sys.stdin.read() if args.input == "-" else open(args.input).read()
    benches = parse_benches(text)
    if not benches:
        print("no bench records found in input", file=sys.stderr)
        return 1
    doc = {
        "meta": {
            "date": date.today().isoformat(),
            "rustc": rustc_version(),
            "os": platform.platform(),
            "command": "BENCH_JSON=1 cargo bench",
            "note": (
                "Vendored criterion stand-in: sample_size timed iterations "
                "after one warm-up, in up to 10 batches; mean_ns over all "
                "iterations, median_ns and min_ns over the batch means; "
                "compare order of magnitude, not microseconds."
            ),
        },
        "benches": benches,
    }
    out = json.dumps(doc, indent=2) + "\n"
    if args.output:
        open(args.output, "w").write(out)
        print(f"wrote {len(benches)} benches to {args.output}")
    else:
        sys.stdout.write(out)
    return 0


def compared(old, new):
    """The statistic two records of one bench are compared by: the median
    batch mean when both carry it, the mean otherwise."""
    key = "median_ns" if "median_ns" in old and "median_ns" in new else "mean_ns"
    return key[: -len("_ns")], old[key], new[key]


def cmd_compare(args):
    old_recs = {b["bench"]: b for b in parse_benches(open(args.old).read())}
    new_recs = {b["bench"]: b for b in parse_benches(open(args.new).read())}
    common = sorted(set(old_recs) & set(new_recs))
    if not common:
        print("no common benches between the two files", file=sys.stderr)
        return 1
    rows = {b: compared(old_recs[b], new_recs[b]) for b in common}
    width = max(len(b) for b in common)
    print(f"{'bench':<{width}}  {'stat':>6}  {'old ns':>14}  {'new ns':>14}  {'ratio':>7}")
    print("-" * (width + 51))
    worst = 0.0
    for b in common:
        stat, old, new = rows[b]
        ratio = new / old if old else float("inf")
        worst = max(worst, ratio)
        marker = "" if ratio <= args.fail_above else "  <-- regression"
        print(f"{b:<{width}}  {stat:>6}  {old:>14.0f}  {new:>14.0f}  {ratio:>6.2f}x{marker}")
    only_old = sorted(set(old_recs) - set(new_recs))
    only_new = sorted(set(new_recs) - set(old_recs))
    if only_old:
        print(f"\nonly in {args.old}: {', '.join(only_old)}")
    if only_new:
        print(f"only in {args.new}: {', '.join(only_new)}")
    geo = 1.0
    for b in common:
        _, old, new = rows[b]
        if old > 0 and new > 0:
            geo *= new / old
    geo **= 1.0 / len(common)
    print(f"\n{len(common)} common benches; geometric-mean ratio {geo:.2f}x")
    if args.fail_above < float("inf") and worst > args.fail_above:
        print(f"FAIL: worst ratio {worst:.2f}x exceeds {args.fail_above:.2f}x")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect", help="raw bench output -> wrapped JSON")
    c.add_argument("input", nargs="?", default="-", help="raw output file or - for stdin")
    c.add_argument("-o", "--output", help="destination file (default stdout)")
    d = sub.add_parser("compare", help="diff two BENCH_*.json files")
    d.add_argument("old")
    d.add_argument("new")
    d.add_argument(
        "--fail-above",
        type=float,
        default=float("inf"),
        help="exit 1 if any common bench regressed by more than this factor",
    )
    args = ap.parse_args()
    return cmd_collect(args) if args.mode == "collect" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
