#!/usr/bin/env python3
"""List public functions that nothing outside the tests calls.

Every `pub fn` under `crates/*/src` (outside `#[cfg(test)]` items and
modules) whose name appears nowhere else in that library code, in `src/`,
`examples/` or `perfbench/src` is reported. Comments and string literals
do not count as uses, and neither do tests or benches. The script exits 1
unless every reported function is on the allowlist below, which names the
ones tests keep as oracles or as statements of the paper.

Usage: python3 scripts/dead_api.py   (from anywhere inside the repository)
"""

import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_STRING = re.compile(r'b?r(#*)"')
CHAR = re.compile(r"'(\\.[^']*|[^\\'])'")
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")

# name -> why it stays although only tests call it. Names are matched as
# words, so a function that shares its name with one the library calls
# (`DistanceEstimate::contains`) is never reported and needs no line here.
ALLOWLIST = {
    "caterpillar": "fixture: the caterpillar family of the diameter and full-stack tests",
    "covers_words": "oracle: the sketch property tests' coverage check on merge_words",
    "d_to_xy": "oracle: the Hilbert curve inverse the layout round-trip tests use",
    "decay_params": "oracle: the Decay parameters the physical-stack tests check",
    "distances": "read-out: a BFS protocol's labels, compared with the reference BFS",
    "exponential_tail": "oracle: tail_matches_empirical_frequency checks sample_exponential's draws",
    "has_physical": "read-out: whether an energy view carries slot counters",
    "next_at_least": "paper statement: the Z-sequence successor of Section 4",
    "next_strictly_larger_or_max": "paper statement: the Z-sequence successor of Section 4",
    "physical_energy": "read-out: one device's slot-level energy on a physical stack",
    "radio": "read-out: the physical stack's simulator and its meter",
    "random_tree": "fixture: the random-tree strategy of the property tests",
    "restricted_bfs": "oracle: dist_A(S, u) of Section 4, checked against the recursion's activity",
    "satisfies_energy_inequality": "paper statement: the energy inequality of Theorem 4.1",
    "serial": "oracle: the one-thread runner configuration the determinism tests compare",
    "total_physical_energy": "read-out: the network's slot-level energy on a physical stack",
    "with_failures": "fixture: the loss rate of the failure-injection tests",
}


def strip(text):
    """`text` with comments removed and string and char literals emptied,
    so that braces and names are only those of code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    out.append("\n" if text[i] == "\n" else "")
                    i += 1
        elif (m := RAW_STRING.match(text, i)) and (i == 0 or not text[i - 1].isalnum()):
            end = '"' + m.group(1)
            j = text.find(end, m.end())
            out.append('""')
            i = n if j < 0 else j + len(end)
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            out.append('""')
            i += 1
        elif m := CHAR.match(text, i):
            out.append("' '")
            i = m.end()
        else:
            out.append(c)
            i += 1
    return "".join(out)


def drop_test_code(code):
    """`code` without the items that follow a `#[cfg(test)]` attribute."""
    out, i = [], 0
    for m in re.finditer(r"#\[cfg\(test\)\]", code):
        if m.start() < i:
            continue
        out.append(code[i : m.start()])
        j = m.end()
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j < len(code) and code[j] == "{":
            depth = 0
            while j < len(code):
                depth += {"{": 1, "}": -1}.get(code[j], 0)
                j += 1
                if depth == 0:
                    break
        else:
            j += 1
        i = j
    out.append(code[i:])
    return "".join(out)


def library_code(path):
    return drop_test_code(strip(path.read_text()))


def main():
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs"))
    users = sources + sorted(
        p
        for d in ("src", "examples", "perfbench/src")
        for p in (ROOT / d).glob("**/*.rs")
    )
    code = {p: library_code(p) for p in users}
    defined = Counter(
        name
        for p in sources
        for name in PUB_FN.findall(code[p])
    )
    words = Counter(w for text in code.values() for w in re.findall(r"\w+", text))
    dead = sorted(name for name, defs in defined.items() if words[name] <= defs)
    unlisted = [name for name in dead if name not in ALLOWLIST]
    for name in dead:
        print(f"{name}: {ALLOWLIST.get(name, 'NOT ALLOWLISTED: no caller outside tests')}")
    stale = sorted(set(ALLOWLIST) - set(dead))
    for name in stale:
        print(f"{name}: allowlisted but called outside tests; drop it from the allowlist")
    if unlisted or stale:
        print(f"{len(unlisted)} uncalled public function(s) not on the allowlist, "
              f"{len(stale)} stale allowlist entr(y/ies)", file=sys.stderr)
        return 1
    print(f"{len(dead)} public functions only tests call, all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
