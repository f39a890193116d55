"""The four benchmark workloads, driven through the public API.

Every workload follows the same life cycle:

* ``setup(seed)`` generates its NEXMark stream(s) from the seed and
  builds the query plan once (timed as set-up);
* ``run_unit(prepared)`` is one repetition of the measured work: it
  builds fresh plans over the *materialized* records and executes them,
  returning a :class:`Unit` with the records ingested, the output
  digests and the simulated results;
* ``reference(prepared)`` computes, outside the timed phase, the digests
  the unit's outputs must equal: the same records on the heap
  ``memory`` backend with an unbounded heap (and, for the recovery
  workload, the uninterrupted run of the same job);
* ``verify(unit, reference)`` returns the correctness and vacuity
  failures of one unit (an empty list means the unit is good).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.backends import flowkv_backend, memory_backend, rocksdb_backend
from repro.bench.harness import output_digest
from repro.core import FlowKVConfig
from repro.engine.plan import StreamEnvironment
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.kvstores.lsm import LsmConfig
from repro.kvstores.memory import GcModel
from repro.nexmark import generator
from repro.nexmark.queries import QUERIES
from repro.nexmark.serde import NexmarkSerde
from repro.recovery import RecoveryManager
from repro.rescale import ScheduledRescale
from repro.simenv import CPU_CATEGORIES, scaled_cost_models

Clock = Callable[[], float]

# Engine and store sizing shared by every workload (the repository's
# default scale profile: state spills past a 128 KiB FlowKV write buffer
# and exceeds a 1 MiB LSM block cache).
PARALLELISM = 2
WATERMARK_INTERVAL = 50
WINDOW = 250.0
SESSION_GAP = 5.0
ACTIVE_PEOPLE = 200
ACTIVE_AUCTIONS = 50
FLOWKV = FlowKVConfig(
    read_batch_ratio=0.2,
    write_buffer_bytes=128 << 10,
    max_space_amplification=1.5,
    num_instances=2,
    data_segment_bytes=1 << 20,
    prefetch_buffer_bytes=2 << 20,
)
LSM = LsmConfig(
    write_buffer_bytes=128 << 10,
    block_cache_bytes=1 << 20,
    level1_bytes=2 << 20,
    max_file_bytes=512 << 10,
)
# The reference backend: Flink-style heap state that can never run out.
UNBOUNDED_HEAP = 1 << 50

# Open loop: every cost slowed by this factor, so that the arrival rates
# approach the simulated capacity (about 460 records/s for Q11 on FlowKV).
LATENCY_COST_SCALE = 4000.0
LATENCY_WATERMARK_INTERVAL = 5
LADDER = (240.0, 360.0, 600.0)
REFERENCE_RATE = 240.0
LADDER_DURATION = 200.0
P99_LIMIT_S = 5.0
OVERLOAD_BACKLOG_S = 30.0


def flowkv() -> Any:
    return flowkv_backend(FLOWKV, serde=NexmarkSerde())


def rocksdb() -> Any:
    return rocksdb_backend(LSM, serde=NexmarkSerde())


def reference_backend() -> Any:
    return memory_backend(UNBOUNDED_HEAP, GcModel())


def generate(seed: int, events_per_second: float, duration: float) -> list:
    """Materialize one seeded NEXMark stream."""
    config = generator.GeneratorConfig(
        events_per_second=events_per_second,
        duration=duration,
        active_people=ACTIVE_PEOPLE,
        active_auctions=ACTIVE_AUCTIONS,
        seed=seed,
    )
    return list(generator.generate_events(config))


def plan(query: str, events: list, backend: Any, **env_kwargs: Any) -> StreamEnvironment:
    """A ready-to-run environment over already materialized records."""
    env = StreamEnvironment(parallelism=PARALLELISM, backend_factory=backend, **env_kwargs)
    source = env.from_source(events, name="nexmark")
    QUERIES[query].build(env, source, WINDOW, SESSION_GAP)
    return env


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Unit:
    """One repetition of a workload's measured work."""

    records: int
    wall_s: float
    digests: list[str]
    sim: dict[str, float]
    results: list[Any] = field(default_factory=list)  # JobResults, kept on request


@dataclass
class Prepared:
    """What set-up hands the timed phase: materialized streams only."""

    seed: int
    streams: list[list]
    generate_s: float


class Workload:
    """A NEXMark query on one backend over a seeded, materialized stream."""

    name = ""
    why = ""
    query = ""
    events_per_second = 60.0
    duration = 1500.0

    def backend(self) -> Any:
        raise NotImplementedError

    def rates(self) -> list[float]:
        return [self.events_per_second]

    def duration_for(self, rate: float) -> float:
        return self.duration

    def setup(self, seed: int) -> tuple[Prepared, float]:
        """Generate the stream(s) and build the plan; returns set-up seconds."""
        start = time.perf_counter()
        streams = [generate(seed, rate, self.duration_for(rate)) for rate in self.rates()]
        generated = time.perf_counter()
        self.build(streams[0])
        return Prepared(seed, streams, generated - start), time.perf_counter() - start

    def build(self, events: list, **env_kwargs: Any) -> StreamEnvironment:
        return plan(self.query, events, self.backend(), **env_kwargs)

    def run_unit(
        self, prepared: Prepared, clock: Clock = time.perf_counter, keep: bool = False
    ) -> Unit:
        env = self.build(prepared.streams[0])
        start = clock()
        result = env.execute(watermark_interval=WATERMARK_INTERVAL)
        return self._unit(result, result.input_records, clock() - start, keep)

    def _unit(self, result: Any, records: int, wall: float, keep: bool) -> Unit:
        sim = {"sim_records_per_s": result.throughput, **self.mechanism(result)}
        return Unit(records, wall, [digest(result)], sim, [summary(result)] if keep else [])

    def mechanism(self, result: Any) -> dict[str, float]:
        """The counts the vacuity guards read: did the mechanism fire?"""
        return {}

    def reference(self, prepared: Prepared) -> list[str]:
        return [heap_digest(self.query, prepared.streams[0])]

    def verify(self, unit: Unit, reference: list[str]) -> list[str]:
        problems = []
        if unit.digests != reference:
            problems.append(f"output {unit.digests[0][:16]} differs from the heap reference")
        return problems + self.vacuity(unit)

    def vacuity(self, unit: Unit) -> list[str]:
        return []


def digest(result: Any) -> str:
    if result.failure is not None:
        return f"failure:{result.failure}"
    return output_digest(result.sink_outputs)


def summary(result: Any) -> Any:
    """A job result without its sink outputs (the digest stands for them)."""
    result.sink_outputs = {}
    return result


def heap_digest(query: str, events: list) -> str:
    """Digest of the same records on the heap backend with an unbounded heap."""
    env = plan(query, events, reference_backend())
    return digest(env.execute(watermark_interval=WATERMARK_INTERVAL))


class Q7AarFlowKV(Workload):
    name = "q7-aar-flowkv"
    why = (
        "Q7 max bid per bidder, tumbling windows (AAR) on FlowKV, closed loop: "
        "core.aar/composite and aligned windows, state past the write buffer, no LSM"
    )
    query = "q7"
    events_per_second = 60.0
    duration = 1500.0

    def backend(self) -> Any:
        return flowkv()

    def mechanism(self, result: Any) -> dict[str, float]:
        return {"bytes_written": result.metrics.bytes_written}

    def vacuity(self, unit: Unit) -> list[str]:
        if unit.sim.get("bytes_written", 0) <= 0:
            return ["vacuous: FlowKV wrote nothing to disk"]
        return []


class Q11MedianAurRocksDB(Workload):
    name = "q11median-aur-rocksdb"
    why = (
        "Q11-Median full-list median per bidder session (AUR) on the LSM, closed loop: "
        "merge operands, SST reads, compaction, block cache misses, serde; no FlowKV core"
    )
    query = "q11-median"
    events_per_second = 60.0
    duration = 1000.0

    def backend(self) -> Any:
        return rocksdb()

    def mechanism(self, result: Any) -> dict[str, float]:
        counters = result.metrics.counters
        return {
            "compactions": counters.get("lsm_compactions", 0),
            "cache_misses": counters.get("lsm_cache_misses", 0),
        }

    def vacuity(self, unit: Unit) -> list[str]:
        problems = []
        if unit.sim.get("compactions", 0) <= 0:
            problems.append("vacuous: the LSM never compacted")
        if unit.sim.get("cache_misses", 0) <= 0:
            problems.append("vacuous: the block cache never missed")
        return problems


class Q11RmwFlowKVOpenLoop(Workload):
    name = "q11-rmw-flowkv-openloop"
    why = (
        "Q11 bids per bidder session (RMW) on FlowKV, open loop at 240/360/600 rec/s "
        "(capacity ~460) under 4000x costs: core.rmw, per-arrival queueing, no I/O"
    )
    query = "q11"

    def backend(self) -> Any:
        return flowkv()

    def rates(self) -> list[float]:
        return list(LADDER)

    def duration_for(self, rate: float) -> float:
        return LADDER_DURATION

    def build(self, events: list, **env_kwargs: Any) -> StreamEnvironment:
        cpu, ssd = scaled_cost_models(LATENCY_COST_SCALE)
        return plan(self.query, events, self.backend(), cpu=cpu, ssd=ssd, **env_kwargs)

    def run_unit(
        self, prepared: Prepared, clock: Clock = time.perf_counter, keep: bool = False
    ) -> Unit:
        """Run the whole ladder, lowest rate first; each rung has its own
        stream, generated at that rate so event time tracks arrival time."""
        unit = Unit(records=0, wall_s=0.0, digests=[], sim={})
        sustainable = 0.0
        unbroken = True
        for rate, events in zip(LADDER, prepared.streams):
            env = self.build(events)
            start = clock()
            result = env.execute(
                arrival_rate=rate,
                watermark_interval=LATENCY_WATERMARK_INTERVAL,
                overload_backlog=OVERLOAD_BACKLOG_S,
            )
            unit.wall_s += clock() - start
            unit.records += result.input_records
            unit.digests.append(digest(result))
            latencies = sorted(result.latencies) or [float("inf")]
            p99 = percentile(latencies, 0.99)
            unbroken = unbroken and result.failure is None and p99 <= P99_LIMIT_S
            if unbroken:
                sustainable = rate
            if rate == REFERENCE_RATE:
                unit.sim.update(
                    sim_records_per_s=result.throughput,
                    sim_latency_p50_s=percentile(latencies, 0.5),
                    sim_latency_p99_s=p99,
                    latency_samples=len(result.latencies),
                )
            if keep:
                unit.results.append(summary(result))
        unit.sim["sim_sustainable_rate"] = sustainable
        return unit

    def reference(self, prepared: Prepared) -> list[str]:
        return [heap_digest(self.query, events) for events in prepared.streams]

    def verify(self, unit: Unit, reference: list[str]) -> list[str]:
        problems = []
        for rate, got, want in zip(LADDER, unit.digests, reference):
            if got == "failure:overload" and rate > unit.sim["sim_sustainable_rate"]:
                continue  # overload above the sustainable rate is the measurement
            if got != want:
                problems.append(f"rung {rate:g}/s: {got[:16]} differs from the heap reference")
        return problems + self.vacuity(unit)

    def vacuity(self, unit: Unit) -> list[str]:
        problems = []
        # P99 needs at least ten samples beyond it.
        if unit.sim.get("latency_samples", 0) * 0.01 < 10:
            problems.append("vacuous: too few latency samples for P99 at the reference rung")
        if unit.sim.get("sim_sustainable_rate") == LADDER[-1]:
            problems.append("vacuous: every rung sustains, so the ladder misses capacity")
        if unit.sim.get("sim_sustainable_rate", 0.0) < REFERENCE_RATE:
            problems.append("the reference rung does not sustain")
        return problems


class Q11MedianRecoveryFlowKV(Workload):
    name = "q11median-recovery-flowkv"
    why = (
        "Q11-Median on FlowKV with incremental checkpoints, a live 2->4 rescale and a "
        "seeded crash, then restore and replay: recovery, snapshot, rescale.live, AUR export"
    )
    query = "q11-median"
    events_per_second = 40.0
    duration = 1500.0
    checkpoints = 6  # checkpoint interval = records / checkpoints
    rescale_at = 1 / 3
    crash_at = 0.7

    def backend(self) -> Any:
        return flowkv()

    def _job(
        self, prepared: Prepared, crash: bool, clock: Clock = time.perf_counter
    ) -> tuple[Any, float, float]:
        """Run the job; returns its result, the simulated seconds of the
        attempts that crashed, and the real seconds it took."""
        events = prepared.streams[0]
        n = len(events)
        faults = None
        if crash:
            # The crash lands on a seeded record within one watermark
            # interval after 70% of the input: the restore epoch is the
            # same on every seed and only the replay length jitters.
            jitter = random.Random(prepared.seed).randrange(WATERMARK_INTERVAL)
            faults = FaultPlan(seed=prepared.seed).crash(
                CRASH_RUNTIME_RECORD, on_hit=int(n * self.crash_at) + jitter
            ).build()
        env = self.build(events, faults=faults)
        manager = CrashTimingRecovery(env, max(1, n // self.checkpoints))
        start = clock()
        result = manager.run(
            rescale_policy=ScheduledRescale({int(n * self.rescale_at): 2 * PARALLELISM}),
            watermark_interval=WATERMARK_INTERVAL,
        )
        return result, manager.crashed_s, clock() - start

    def run_unit(
        self, prepared: Prepared, clock: Clock = time.perf_counter, keep: bool = False
    ) -> Unit:
        result, crashed_s, wall = self._job(prepared, crash=True, clock=clock)
        unit = self._unit(result, len(prepared.streams[0]), wall, keep)
        # The whole job on the simulated clock: the crashed attempt up to
        # the crash (with its checkpoints and the live rescale), the
        # restore, and the attempt that replayed and finished the input.
        job_s = crashed_s + unit.sim["sim_recovery_downtime_s"] + result.job_seconds
        unit.sim.update(sim_crashed_s=crashed_s, sim_records_per_s=unit.records / job_s)
        return unit

    def mechanism(self, result: Any) -> dict[str, float]:
        return {
            "sim_recovery_downtime_s": sum(
                e.sim_seconds for e in result.recoveries
                if e.kind in ("restore", "promote", "degraded")
            ),
            "restores": sum(1 for e in result.recoveries if e.kind == "restore"),
            "checkpoints": result.checkpoints,
            "bytes_moved": sum(e.bytes_moved for e in result.rescales),
        }

    def reference(self, prepared: Prepared) -> list[str]:
        uninterrupted, _, _ = self._job(prepared, crash=False)
        return super().reference(prepared) + [digest(uninterrupted)]

    def verify(self, unit: Unit, reference: list[str]) -> list[str]:
        problems = []
        heap, uninterrupted = reference
        if heap != uninterrupted:
            problems.append("the uninterrupted run differs from the heap reference")
        if unit.digests[0] != uninterrupted:
            problems.append("the recovered output differs from the uninterrupted run")
        return problems + self.vacuity(unit)

    def vacuity(self, unit: Unit) -> list[str]:
        problems = []
        if unit.sim.get("restores", 0) < 1:
            problems.append("vacuous: no restore happened")
        if unit.sim.get("bytes_moved", 0) <= 0:
            problems.append("vacuous: the rescale moved no bytes")
        if unit.sim.get("checkpoints", 0) < 2:
            problems.append("vacuous: fewer than two checkpoints")
        if unit.sim.get("sim_crashed_s", 0.0) <= 0:
            problems.append("the crashed attempt's simulated time was not seen")
        return problems


class CrashTimingRecovery(RecoveryManager):
    """A recovery manager that keeps the simulated seconds each crashed
    attempt ran for (its busiest instance's clock), which the job's
    result drops along with the crashed executor."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.crashed_s = 0.0

    def _crash_time(self, executor: Any) -> float:
        seconds = super()._crash_time(executor)
        self.crashed_s += seconds
        return seconds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (Q7AarFlowKV(), Q11MedianAurRocksDB(), Q11RmwFlowKVOpenLoop(),
              Q11MedianRecoveryFlowKV())
}


def ledger_metrics(results: list[Any]) -> dict[str, float]:
    """Per-layer counts and simulated-ledger splits of a unit's jobs."""
    out: dict[str, float] = {
        "engine.records_in": 0, "engine.latency_samples": 0,
        "core.prefetch_hit_ratio": 0.0, "core.disk_bytes": 0,
        "kvstores.lsm.cache_hit_ratio": 0.0, "kvstores.lsm.bloom_negative_ratio": 0.0,
        "kvstores.lsm.compactions": 0,
        "storage.bytes_read": 0, "storage.bytes_written": 0, "storage.read_requests": 0,
        "simenv.ledger.io_wait_s": 0.0,
        "recovery.checkpoints": 0, "recovery.checkpoint_bytes_per_epoch": 0.0,
        "recovery.shards_reused": 0,
        "rescale.bytes_moved": 0, "rescale.max_record_delay_s": 0.0,
    }
    for category in LEDGER_CATEGORIES:
        out[f"simenv.ledger.{category}_s"] = 0.0
    counters: dict[str, int] = {}
    loads = hits = 0
    for result in results:
        metrics = result.metrics
        out["engine.records_in"] += result.input_records
        out["engine.latency_samples"] += len(result.latencies)
        out["storage.bytes_read"] += metrics.bytes_read
        out["storage.bytes_written"] += metrics.bytes_written
        out["storage.read_requests"] += metrics.read_requests
        out["simenv.ledger.io_wait_s"] += metrics.io_wait_seconds
        for category in LEDGER_CATEGORIES:
            out[f"simenv.ledger.{category}_s"] += metrics.cpu_seconds.get(category, 0.0)
        for name, value in metrics.counters.items():
            counters[name] = counters.get(name, 0) + value
        for stats in result.operator_stats.values():
            loads += stats.get("prefetch_loads", 0)
            hits += stats.get("prefetch_hits", 0)
            if "prefetch_loads" in stats:  # FlowKV composite instances only
                out["core.disk_bytes"] += stats.get("disk_bytes", 0)
        out["recovery.checkpoints"] += result.checkpoints
        stats = result.checkpoint_stats
        if stats:
            out["recovery.checkpoint_bytes_per_epoch"] += (
                sum(s.bytes_written for s in stats) / len(stats)
            )
            out["recovery.shards_reused"] += sum(s.shards_reused for s in stats)
        for event in result.rescales:
            out["rescale.bytes_moved"] += event.bytes_moved
            out["rescale.max_record_delay_s"] = max(
                out["rescale.max_record_delay_s"], event.max_record_delay
            )
    if loads:
        out["core.prefetch_hit_ratio"] = hits / loads
    cache = counters.get("lsm_cache_hits", 0) + counters.get("lsm_cache_misses", 0)
    if cache:
        out["kvstores.lsm.cache_hit_ratio"] = counters.get("lsm_cache_hits", 0) / cache
    if counters.get("lsm_bloom_checks"):
        out["kvstores.lsm.bloom_negative_ratio"] = (
            counters.get("lsm_bloom_negatives", 0) / counters["lsm_bloom_checks"]
        )
    out["kvstores.lsm.compactions"] = counters.get("lsm_compactions", 0)
    return out


LEDGER_CATEGORIES = tuple(
    c for c in CPU_CATEGORIES
    if c in ("query", "engine", "store_write", "store_read", "compaction", "serde",
             "sync", "migration", "recovery")
)

