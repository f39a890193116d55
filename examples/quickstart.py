"""Quickstart: a windowed word-count on FlowKV in ~30 lines.

Builds a small event-time streaming job, runs it on the FlowKV state
backend, and prints the results plus the simulated cost breakdown.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.backends import flowkv_backend
from repro.engine import StreamEnvironment, TumblingWindowAssigner
from repro.engine.functions import CountAggregate

WORDS = ["flink", "flowkv", "stream", "window", "state"]


def word_stream(n: int = 5_000, seed: int = 7):
    """(word, event-timestamp) pairs at ~10 events/second of event time."""
    rng = random.Random(seed)
    timestamp = 0.0
    for _ in range(n):
        timestamp += rng.expovariate(10.0)
        yield rng.choice(WORDS), timestamp


def main() -> None:
    env = StreamEnvironment(parallelism=2, backend_factory=flowkv_backend())
    (
        env.from_source(word_stream())
        .key_by(lambda word: word.encode())
        .window(TumblingWindowAssigner(60.0))  # 1-minute fixed windows
        .aggregate(CountAggregate(), with_window=True)
        .sink("counts")
    )
    result = env.execute()

    print("first five window counts:")
    for key, window, count in result.sink_outputs["counts"][:5]:
        print(f"  {key.decode():8s} [{window.start:6.0f}, {window.end:6.0f})  {count}")

    print(f"\nprocessed {result.input_records} records "
          f"in {result.job_seconds * 1e3:.2f} simulated ms "
          f"({result.throughput:,.0f} records/sim-second)")
    print("CPU by category (seconds):")
    for category, seconds in sorted(result.metrics.cpu_seconds.items()):
        if seconds > 0:
            print(f"  {category:12s} {seconds:.6f}")


if __name__ == "__main__":
    main()
