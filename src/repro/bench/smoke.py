"""Bench-smoke regression gate: compare a run's wall-clock to a baseline.

CI runs every registered figure (``python -m repro.bench all``) which
writes per-figure real wall-clock times (``elapsed_seconds``) into
``BENCH_summary.json``.  This tool takes one or more such documents,
keeps each figure's minimum time over them (one slow sample on a loaded
host does not fail the gate; a figure slow in every run does), compares
that against the committed baseline (``benchmarks/bench_baseline.json``)
and exits non-zero when a figure regressed by more than the threshold
(default 25%).

CI machines differ in absolute speed, so by default ratios are
**normalized**: each figure's current/baseline ratio is divided by the
median ratio across all figures.  A uniformly slower machine shifts
every ratio equally and passes; a single figure regressing relative to
the rest fails.  ``--absolute`` skips the normalization for runs on the
same machine that produced the baseline.

Usage::

    python -m repro.bench.smoke BENCH_summary.json [MORE_SUMMARIES.json ...]
    python -m repro.bench.smoke BENCH_summary.json --baseline PATH
    python -m repro.bench.smoke BENCH_summary.json --threshold 0.25
    python -m repro.bench.smoke A.json B.json --update   # rewrite baseline (min of N)
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

DEFAULT_BASELINE = "benchmarks/bench_baseline.json"
DEFAULT_THRESHOLD = 0.25


def elapsed_by_figure(summary: dict[str, Any]) -> dict[str, float]:
    """``figure -> elapsed_seconds`` for every timed figure in a summary."""
    out: dict[str, float] = {}
    for name, figure in summary.get("figures", {}).items():
        elapsed = figure.get("elapsed_seconds")
        if isinstance(elapsed, (int, float)) and elapsed > 0:
            out[name] = float(elapsed)
    return out


def min_elapsed(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-figure minimum over several runs' ``figure -> seconds`` maps."""
    out: dict[str, float] = {}
    for run in runs:
        for name, secs in run.items():
            out[name] = min(secs, out.get(name, secs))
    return out


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    absolute: bool = False,
) -> tuple[list[str], list[str]]:
    """Compare per-figure wall-clock times; return (failures, report).

    ``failures`` lists human-readable violations (empty means pass);
    ``report`` is the full per-figure table, one line per figure.
    """
    failures: list[str] = []
    report: list[str] = []
    shared = sorted(set(current) & set(baseline))
    for name in sorted(set(baseline) - set(current)):
        report.append(f"  {name:24s} missing from this run (baseline "
                      f"{baseline[name]:.3f}s)")
    for name in sorted(set(current) - set(baseline)):
        report.append(f"  {name:24s} new figure, no baseline "
                      f"({current[name]:.3f}s) — run --update")
    if not shared:
        return failures, report
    ratios = {name: current[name] / baseline[name] for name in shared}
    scale = 1.0 if absolute else statistics.median(ratios.values())
    if scale <= 0:
        scale = 1.0
    for name in shared:
        adjusted = ratios[name] / scale
        line = (f"  {name:24s} {baseline[name]:8.3f}s -> {current[name]:8.3f}s"
                f"  ({adjusted:5.2f}x normalized)")
        if adjusted > 1.0 + threshold:
            failures.append(
                f"{name}: {baseline[name]:.3f}s -> {current[name]:.3f}s "
                f"({adjusted:.2f}x normalized, limit {1.0 + threshold:.2f}x)"
            )
            line += "  REGRESSED"
        report.append(line)
    if not absolute and abs(scale - 1.0) > 0.05:
        report.append(f"  (machine-speed normalization: median ratio "
                      f"{scale:.2f}x treated as 1.00x)")
    return failures, report


def main(argv: list[str]) -> int:
    argv = list(argv)

    def take_option(flag: str) -> str | None:
        if flag not in argv:
            return None
        at = argv.index(flag)
        if at + 1 >= len(argv):
            print(f"{flag} requires a value")
            raise SystemExit(2)
        value = argv[at + 1]
        del argv[at:at + 2]
        return value

    baseline_path = take_option("--baseline") or DEFAULT_BASELINE
    threshold = float(take_option("--threshold") or DEFAULT_THRESHOLD)
    absolute = "--absolute" in argv and (argv.remove("--absolute") or True)
    update = "--update" in argv and (argv.remove("--update") or True)
    if not argv:
        print(__doc__.strip().splitlines()[-4].strip())
        return 2
    summaries = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            summaries.append(json.load(handle))
    profiles = {summary.get("profile") for summary in summaries}
    if len(profiles) != 1:
        print(f"summaries mix profiles {sorted(map(str, profiles))} — not comparable")
        return 2
    (profile,) = profiles
    current = min_elapsed([elapsed_by_figure(summary) for summary in summaries])
    if update:
        payload = {
            "profile": profile or "unknown",
            "threshold": threshold,
            "figures": {name: round(secs, 3) for name, secs in sorted(current.items())},
        }
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {baseline_path} ({len(current)} figures)")
        return 0
    with open(baseline_path, encoding="utf-8") as handle:
        baseline_doc = json.load(handle)
    baseline = {
        name: float(secs)
        for name, secs in baseline_doc.get("figures", {}).items()
        if isinstance(secs, (int, float)) and secs > 0
    }
    if profile != baseline_doc.get("profile"):
        print(f"profile mismatch: run={profile} "
              f"baseline={baseline_doc.get('profile')} — not comparable")
        return 2
    failures, report = compare(current, baseline, threshold, absolute)
    print(f"bench-smoke: min of {len(summaries)} run(s) vs {baseline_path} "
          f"(threshold +{threshold:.0%}, "
          f"{'absolute' if absolute else 'machine-normalized'}):")
    for line in report:
        print(line)
    if failures:
        print(f"\nFAIL: {len(failures)} figure(s) regressed >"
              f"{threshold:.0%} wall-clock:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nOK: no figure regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
