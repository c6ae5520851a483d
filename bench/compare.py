#!/usr/bin/env python3
"""Diff two BENCH_*.json benchmark artifacts and gate on regressions.

Usage:
    compare.py BASE.json FRESH.json [--threshold 0.25]
               [--subjects prefix,exact,...] [--normalize SUBJECT]

Both files are the flat {"subject": ns_per_run} artifact the bench
harness writes (`bench/main.exe micro --json`).  The two runs may come
from different machines, so times are first normalized by the shared
no-op subject (--normalize, default telemetry/baseline_nop): what is
gated is each subject's cost relative to an empty benchmarked call on
the same box, not raw nanoseconds.

A subject regresses when fresh > base * (1 + threshold) after
normalization.  Only subjects selected by --subjects are gated; the
default allowlist covers the hot paths the bulk-aging fast path and
the device write/read/GC pipeline rely on.  Entries ending in '/' are
prefixes, anything else matches exactly.  Subjects present in only one
file are reported but never fatal (new benchmarks appear, old ones
retire); a gated subject that is null (measurement failed) in the
fresh file does fail.

Exit status: 0 clean, 1 regression, 2 usage/file errors.
"""

import argparse
import json
import sys

# Hot-path subjects gated by default.  Deliberately absolute-time
# subjects only: the parallel/fleet_jobs* scaling relation has its own
# dedicated guard in CI and is too machine-shape-dependent to diff
# across artifacts.
DEFAULT_SUBJECTS = [
    "fig3/",       # single-device salamander read/write
    "ftl/",        # GC churn, read escalation
    "chaos/",      # fault-path reads, retry ladder, scrub
    "fig3ab/fleet_day",
    "parallel/fleet_years_bulk",
    "uber/chip_read_with_disturb",
]


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare.py: cannot read {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"compare.py: {path}: expected a flat JSON object")
    return data


def selected(subject, patterns):
    return any(
        subject.startswith(p) if p.endswith("/") else subject == p
        for p in patterns
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument(
        "--subjects",
        default=",".join(DEFAULT_SUBJECTS),
        help="comma-separated allowlist; entries ending in '/' are prefixes",
    )
    ap.add_argument("--normalize", default="telemetry/baseline_nop")
    args = ap.parse_args()

    base, fresh = load(args.base), load(args.fresh)
    patterns = [p for p in args.subjects.split(",") if p]

    scale = 1.0
    if args.normalize:
        b, f = base.get(args.normalize), fresh.get(args.normalize)
        if b and f:
            scale = f / b
            print(f"machine speed scale (fresh/base {args.normalize}): "
                  f"{scale:.2f}")
        else:
            print(f"note: {args.normalize} missing from one file; "
                  "comparing raw times")

    failed = False
    gated = 0
    for subject in sorted(set(base) | set(fresh)):
        if not selected(subject, patterns):
            continue
        b, f = base.get(subject), fresh.get(subject)
        if b is None and subject not in base:
            print(f"{subject}: new (no baseline), {f} ns")
            continue
        if subject not in fresh:
            print(f"{subject}: retired (not in fresh run)")
            continue
        if b is None or f is None:
            print(f"{subject}: null measurement "
                  f"(base={b}, fresh={f})  <-- REGRESSED")
            failed = True
            continue
        gated += 1
        ratio = f / (b * scale)
        flag = "  <-- REGRESSED" if ratio > 1 + args.threshold else ""
        print(f"{subject}: {b:.1f} -> {f:.1f} ns "
              f"(normalized ratio {ratio:.2f}){flag}")
        failed = failed or ratio > 1 + args.threshold

    if gated == 0:
        sys.exit("compare.py: allowlist matched no gated subjects")
    if failed:
        sys.exit(f"compare.py: regression beyond "
                 f"{args.threshold:.0%} vs {args.base}")
    print(f"OK: {gated} gated subjects within {args.threshold:.0%}")


if __name__ == "__main__":
    main()
