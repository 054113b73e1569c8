#!/usr/bin/env python3
"""Compare a perf_harness BENCH_core.json against a checked-in baseline.

Direction-aware: metrics named *_ns / *_ms are times (lower is better),
*_per_sec are rates (higher is better); everything else (queue depths,
combo counts, job counts) is informational and printed but never gates.

The gate is a ratio: a time metric fails when current > baseline *
max_regress, a rate metric when current < baseline / max_regress.  CI runs
on shared machines with unknown hardware, so its tolerance is generous —
the gate exists to catch order-of-magnitude regressions (a lost fast path,
an accidental O(n^2)), not 10%% noise.

A gateable metric (time or rate) present in the current run but absent
from the baseline is *reported loudly* rather than silently skipped: the
run still passes (the metric is new, there is nothing to compare against)
but a NEW-METRIC notice on stderr tells the author to re-baseline, after
which the metric is gated like any other.  --fail-on-new upgrades the
notice to a failure for CI legs that require a complete baseline.

  bench_compare.py baseline.json current.json [--max-regress 1.5]
"""

import argparse
import json
import sys


def classify(name: str) -> str:
    if name.endswith("_ns") or name.endswith("_ms"):
        return "time"
    if name.endswith("_per_sec"):
        return "rate"
    return "info"


def load_metrics(path: str, role: str) -> dict:
    """Reads a perf_harness JSON file, failing with a clear one-line error
    (not a traceback) on unreadable files, malformed JSON, or a document
    without a numeric "metrics" object."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"bench_compare: cannot read {role} file {path!r}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_compare: {role} file {path!r} is not valid JSON: {e}")
    if not isinstance(doc, dict) or "metrics" not in doc:
        sys.exit(
            f"bench_compare: {role} file {path!r} has no top-level"
            ' "metrics" object — is this a perf_harness output file?'
        )
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in metrics.values()
    ):
        sys.exit(
            f'bench_compare: "metrics" in {role} file {path!r} must map'
            " metric names to numbers"
        )
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=1.5,
        help="allowed slowdown ratio per metric (default 1.5)",
    )
    ap.add_argument(
        "--fail-on-new",
        action="store_true",
        help="treat gateable metrics missing from the baseline as failures"
        " (for CI legs that require a fully re-baselined BENCH file)",
    )
    args = ap.parse_args()
    if args.max_regress < 1.0:
        ap.error("--max-regress must be >= 1.0")

    base = load_metrics(args.baseline, "baseline")
    cur = load_metrics(args.current, "current")

    failures = []
    print(f"{'metric':36} {'baseline':>14} {'current':>14} {'ratio':>8}  verdict")
    for name, b in base.items():
        if name not in cur:
            print(f"{name:36} {b:14.2f} {'missing':>14}")
            failures.append(f"{name}: missing from current run")
            continue
        c = cur[name]
        kind = classify(name)
        if kind == "info" or b == 0:
            print(f"{name:36} {b:14.2f} {c:14.2f} {'':>8}  info")
            continue
        ratio = c / b
        # Normalize so ratio > 1 always means "got worse".
        worse = ratio if kind == "time" else (b / c if c else float("inf"))
        ok = worse <= args.max_regress
        verdict = "ok" if ok else f"REGRESSED (>{args.max_regress:g}x)"
        print(f"{name:36} {b:14.2f} {c:14.2f} {ratio:8.3f}  {verdict}")
        if not ok:
            failures.append(f"{name}: {worse:.2f}x worse than baseline")

    unbaselined = []
    for name in cur:
        if name in base:
            continue
        if classify(name) == "info":
            print(f"{name:36} {'new':>14} {cur[name]:14.2f} {'':>8}  info")
            continue
        print(
            f"{name:36} {'new':>14} {cur[name]:14.2f} {'':>8}"
            "  NEW (not gated)"
        )
        unbaselined.append(name)

    if unbaselined:
        print(
            f"\n{len(unbaselined)} gateable metric(s) missing from the"
            " baseline (re-run perf_harness and refresh"
            " bench/BENCH_baseline.json to gate them):",
            file=sys.stderr,
        )
        for name in unbaselined:
            print(f"  {name}", file=sys.stderr)
        if args.fail_on_new:
            failures.extend(f"{name}: not in baseline" for name in unbaselined)

    if failures:
        print(f"\n{len(failures)} metric(s) regressed:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nall gated metrics within {args.max_regress:g}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
