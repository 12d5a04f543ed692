#!/usr/bin/env python3
"""Prints the call sites holding the peak live heap, from tools/heapprof.c.

    python3 tools/heap_report.py REPORT...

Each REPORT is one process's autocomp-heap.<pid>.txt; the largest peak
is printed first. Frames are symbolized with addr2line (inlined frames
expanded). Three views of the sampled peak:

  * sites: stacks grouped by their innermost frame outside the allocator
    and the standard library, i.e. the code that asked for the memory,
    with the two callers above it;
  * functions and classes, inclusive: each one on a stack is credited
    once per stack, so a component's total shows however deep its
    allocations sit.
"""

import argparse
import collections
import re
import subprocess
import sys

# Rows printed in each view.
TOP = 20

# Frames that only move memory on behalf of a caller, and process entry.
LIBRARY = re.compile(r"^(std::|__gnu_cxx::|operator new|operator delete|"
                     r"malloc$|calloc$|realloc$|__|_start$|main$|\?\?)")


def strip_decltype(name):
    """Drops 'decltype (...)' return types, whose parentheses nest."""
    while (start := name.find("decltype (")) >= 0:
        depth = 0
        for end in range(start + len("decltype "), len(name)):
            depth += {"(": 1, ")": -1}.get(name[end], 0)
            if depth == 0:
                break
        name = name[:start] + name[end + 1:]
    return name


def qualified_name(function):
    """'void std::vector<int>::push_back(int)' -> 'std::vector::push_back'."""
    name = strip_decltype(function.replace("(anonymous namespace)", "{anon}"))
    while (stripped := re.sub(r"<[^<>]*>", "", name)) != name:
        name = stripped
    name = name.split("(")[0].strip()
    return name.split(" ")[-1] if name else function


def class_name(name):
    """'a::NameNode::CreateFile' -> 'a::NameNode'."""
    return name.rsplit("::", 1)[0] if "::" in name else name


def read_report(path):
    report = {"path": path, "peak": 0, "sampled": 0, "stacks": []}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "peak_bytes":
                report["peak"] = int(parts[1])
            elif parts[0] == "sampled_bytes":
                report["sampled"] = int(parts[1])
            elif parts[0] == "stack":
                frames = []
                for frame in parts[2:]:
                    module, _, offset = frame.rpartition("+")
                    frames.append((module, offset))
                report["stacks"].append((int(parts[1]), frames))
    return report


def symbolize(frames):
    """{(module, offset): [(function, location), ...] innermost first}."""
    by_module = collections.defaultdict(set)
    for module, offset in frames:
        by_module[module].add(offset)
    out = {}
    for module, offsets in by_module.items():
        offsets = sorted(offsets)
        if module == "?":
            for offset in offsets:
                out[(module, offset)] = [("??", "??:0")]
            continue
        text = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
            input="\n".join(offsets) + "\n", capture_output=True,
            text=True).stdout.splitlines()
        # -a prints each address before its (function, location) pairs.
        groups = []
        for line in text:
            if line.startswith("0x"):
                groups.append([])
            elif groups:
                groups[-1].append(line)
        for offset, lines in zip(offsets, groups):
            pairs = [(lines[i], lines[i + 1].split(" (")[0])
                     for i in range(0, len(lines) - 1, 2)]
            out[(module, offset)] = pairs or [("??", "??:0")]
    return out


def short_location(location):
    return location.rsplit("/", 1)[-1]


def print_report(report):
    peak = report["peak"]
    stacks = sorted(report["stacks"], key=lambda s: -s[0])
    symbols = symbolize({f for _, frames in stacks for f in frames})
    mb = 1024.0 * 1024.0
    print(f"== {report['path']}")
    print(f"peak live heap ~{peak / mb:.1f} MB (sampled, one per 16 KiB; "
          f"{report['sampled'] / mb:.0f} MB allocated in total), "
          f"{len(stacks)} stacks live at the peak")

    sites = collections.Counter()
    callers = {}
    inclusive = collections.Counter()
    classes = collections.Counter()
    for size, frames in stacks:
        expanded = [pair for f in frames for pair in symbols[f]]
        own = [(qualified_name(fn), loc) for fn, loc in expanded
               if not LIBRARY.match(qualified_name(fn))]
        site = (f"{own[0][0]} ({short_location(own[0][1])})" if own
                else "(library only)")
        sites[site] += size
        if site not in callers:
            # An inlined frame and its out-of-line copy name the same
            # function twice in a row; show each caller once.
            chain = [name for name, _ in own]
            above = [name for i, name in enumerate(chain[1:], 1)
                     if name != chain[i - 1]]
            callers[site] = " <- ".join(above[:2])
        for name in {name for name, _ in own}:
            inclusive[name] += size
        for name in {class_name(name) for name, _ in own}:
            classes[name] += size

    print(f"\ntop {TOP} sites (innermost frame outside the allocator and "
          f"std; MB at peak, share of peak):")
    for site, size in sites.most_common(TOP):
        via = f"  <- {callers[site]}" if callers[site] else ""
        print(f"  {size / mb:7.1f} {100.0 * size / peak:5.1f}%  {site}{via}")
    print(f"\ntop {TOP} functions, inclusive (a stack counts once per "
          f"function on it):")
    for name, size in inclusive.most_common(TOP):
        print(f"  {size / mb:7.1f} {100.0 * size / peak:5.1f}%  {name}")
    print(f"\ntop {TOP} classes and namespaces, inclusive:")
    for name, size in classes.most_common(TOP):
        print(f"  {size / mb:7.1f} {100.0 * size / peak:5.1f}%  {name}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    args = parser.parse_args()
    reports = [read_report(path) for path in args.reports]
    reports = [r for r in reports if r["peak"] > 0]
    if not reports:
        print("heap_report: no sampled peak in any report", file=sys.stderr)
        return 1
    for report in sorted(reports, key=lambda r: -r["peak"]):
        print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
