"""Prefetch sweep: io_wait and P95 latency vs prefetch depth, disk backends.

Not a paper figure — it validates the semantic prefetching subsystem's
contract on the two disk backends.  Window operators hint upcoming
trigger reads (and, on the hash store, upcoming RCU append reads) so the
stores overlap state I/O with compute; per (query, backend, depth) cell
the sweep reports:

* **io_wait seconds** and its **residual** prefetch-wait share — total
  io_wait must *drop* as depth grows (the overlap is the whole point),
* the hit / late / wasted prefetch counters,
* a digest check against the depth-0 run of the same cell — hints are
  advisory and must never change job output,
* P95 processing latency at the profile's first open-loop rate, depth
  off vs on.

A ``DIVERGED`` digest or an io_wait *increase* in any prefetching cell
is a correctness bug in the hint or charging path, not a perf tradeoff.
"""

from __future__ import annotations

from repro.bench.harness import RunRecord, run_query
from repro.bench.profiles import ScaleProfile, active_profile
from repro.bench.report import format_table

BACKENDS = ("rocksdb", "faster")
QUERIES = ("q7", "q8")
DEPTHS = (0, 2, 8)


def run(
    profile: ScaleProfile,
    backends: tuple[str, ...] = BACKENDS,
    queries: tuple[str, ...] = QUERIES,
    depths: tuple[int, ...] = DEPTHS,
) -> list[RunRecord]:
    size = profile.window_sizes[0]
    records: list[RunRecord] = []
    for query in queries:
        for backend in backends:
            baseline_hash = None
            baseline_io_wait = 0.0
            for depth in depths:
                # Throughput mode ingests columnar batches: the hints for
                # a whole batch overlap its earlier records.
                record = run_query(
                    profile, query, backend, size, prefetch_depth=depth
                )
                metrics = record.metrics
                io_wait = metrics.io_wait_seconds if metrics else 0.0
                counters = metrics.counters if metrics else {}
                if depth == depths[0]:
                    baseline_hash = record.output_hash
                    baseline_io_wait = io_wait
                sweep = record.operator_stats.setdefault("_sweep", {})
                sweep["mode"] = "tput"
                sweep["depth"] = depth
                sweep["io_wait_seconds"] = io_wait
                sweep["residual_seconds"] = (
                    metrics.prefetch_wait_seconds if metrics else 0.0
                )
                sweep["hits"] = counters.get("prefetch_hits", 0)
                sweep["late"] = counters.get("prefetch_late", 0)
                sweep["wasted"] = counters.get("prefetch_wasted", 0)
                sweep["digest_ok"] = bool(
                    record.ok and record.output_hash == baseline_hash
                )
                # Strict drop is the acceptance bar for every on-cell
                # that has io_wait to hide; a cell whose working set is
                # fully resident (zero baseline io_wait) must stay zero.
                sweep["io_wait_ok"] = bool(
                    record.ok
                    and (
                        depth == depths[0]
                        or io_wait < baseline_io_wait
                        or (baseline_io_wait == 0.0 and io_wait == 0.0)
                    )
                )
                records.append(record)
    # P95 latency, prefetch off vs on, at the profile's highest open-loop
    # rate (the lower rates have no queueing and P95 rounds to zero).
    rate = profile.latency_rates[-1]
    for backend in backends:
        for depth in (0, max(depths)):
            record = run_query(
                profile, "q7", backend, profile.latency_window,
                arrival_rate=rate, events_per_second=rate,
                duration=profile.latency_duration, prefetch_depth=depth,
            )
            sweep = record.operator_stats.setdefault("_sweep", {})
            sweep["mode"] = "latency"
            sweep["depth"] = depth
            sweep["rate"] = rate
            records.append(record)
    return records


def render(records: list[RunRecord]) -> str:
    tput_rows = []
    latency_rows = []
    for record in records:
        sweep = record.operator_stats.get("_sweep", {})
        if sweep.get("mode") == "latency":
            p95 = record.p95_latency
            latency_rows.append([
                record.query,
                record.backend,
                f"{sweep.get('depth', 0)}",
                f"{sweep.get('rate', 0.0):.0f}",
                f"{p95:.6f}" if p95 is not None else "-",
                "ok" if record.ok else record.failure,
            ])
            continue
        ok = sweep.get("digest_ok") and sweep.get("io_wait_ok")
        tput_rows.append([
            record.query,
            record.backend,
            f"{sweep.get('depth', 0)}",
            f"{sweep.get('io_wait_seconds', 0.0):.6f}",
            f"{sweep.get('residual_seconds', 0.0):.6f}",
            f"{sweep.get('hits', 0)}",
            f"{sweep.get('late', 0)}",
            f"{sweep.get('wasted', 0)}",
            ("=" if ok else "DIVERGED") if record.ok else record.failure,
        ])
    parts = [format_table(
        ["query", "backend", "depth", "io_wait s", "residual s",
         "hits", "late", "wasted", "check"],
        tput_rows,
    )]
    if latency_rows:
        parts.append("")
        parts.append(format_table(
            ["query", "backend", "depth", "rate", "p95 s", "status"],
            latency_rows,
        ))
    return "\n".join(parts)


def main() -> None:
    profile = active_profile()
    print(f"Prefetch sweep (profile={profile.name}): "
          f"io_wait must drop with depth; digests must not move")
    print(render(run(profile)))


if __name__ == "__main__":
    main()

from repro.bench.registry import register_figure  # noqa: E402 - self-registration

register_figure("fig_prefetch", __doc__.strip().splitlines()[0], run, render)
