"""Latency mode on the per-record router: recovery, rescale and a charge pin.

Open-loop runs (``arrival_rate``) deliver one record per work unit
through the executor's compiled per-record router, so the batch-parity
suite never reaches them.  These tests cover that router under the
features that replace executor state mid-run:

* a crash restores a fresh executor and reassigns its sinks, latencies
  and owner table — outputs after the restore must land in the restored
  lists, so the digest equals the uncrashed run and every sink record
  has exactly one latency sample;
* a live 2→4 rescale grows the instance lists and flips the owner table
  group by group while records keep arriving;
* a pin of the simulated results (job time, per-category CPU seconds as
  exact floats, a hash of the latency list), on one machine and across
  two, catches any reordered float operation in the router's inline
  unit accounting.

``FAULT_SEED`` (env var) varies the crash plans as in the rest of the
fault suite.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.bench.harness import output_digest
from repro.bench.profiles import TINY_PROFILE
from repro.cluster import ClusterTopology
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.nexmark.queries import build_query
from repro.recovery import RecoveryManager
from repro.rescale import ScheduledRescale

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))

PROFILE = TINY_PROFILE
RATE = 10.0  # records/s, open loop
# Event time runs a quarter faster than arrivals, so results reach the
# sinks after their timestamps: every latency sample carries the
# router's completion-time arithmetic instead of clipping to zero.
EVENT_RATE = 12.5
CELLS = (("q11", "flowkv"), ("q8-interval", "rocksdb"))


def latency_run(
    query: str,
    backend: str,
    fault_plan: FaultPlan | None = None,
    checkpoint_interval: int | None = None,
    rescale_schedule: dict[int, int] | None = None,
    nodes: int | None = None,
):
    """One open-loop job at :data:`RATE` (on a cluster of ``nodes``
    machines if given); returns the ``JobResult``."""
    window = PROFILE.latency_window
    env = build_query(
        query,
        PROFILE.backend_factory(backend),
        PROFILE.generator(duration=PROFILE.latency_duration, events_per_second=EVENT_RATE),
        window,
        parallelism=PROFILE.parallelism,
        workers=PROFILE.workers,
        session_gap=window * PROFILE.session_gap_fraction,
        cost_scale=PROFILE.latency_cost_scale,
        faults=fault_plan.build() if fault_plan is not None else None,
        cluster=ClusterTopology.uniform(nodes) if nodes else None,
    )
    run_kwargs = dict(
        arrival_rate=RATE,
        watermark_interval=PROFILE.latency_watermark_interval,
        overload_backlog=PROFILE.overload_backlog,
        rescale_policy=ScheduledRescale(dict(rescale_schedule)) if rescale_schedule else None,
    )
    if checkpoint_interval is None:
        return env.execute(**run_kwargs)
    return RecoveryManager(env, checkpoint_interval).run(**run_kwargs)


def sink_records(result) -> int:
    return sum(len(values) for values in result.sink_outputs.values())


def assert_complete(result, baseline) -> None:
    assert result.failure is None
    assert output_digest(result.sink_outputs) == output_digest(baseline.sink_outputs)
    assert sink_records(result) == sink_records(baseline) > 0
    # One latency sample per sink record: a router holding on to the
    # pre-restore latency list would drop the samples after the restore.
    assert len(result.latencies) == sink_records(result)


@pytest.fixture(scope="module")
def baselines():
    return {cell: latency_run(*cell) for cell in CELLS}


@pytest.mark.parametrize("rescale", (False, True), ids=("steady", "after-rescale"))
@pytest.mark.parametrize("query,backend", CELLS)
def test_crash_restore_in_latency_mode(query, backend, rescale, baselines):
    # With a live 2->4 rescale before the restored checkpoint, the
    # restore also replaces the owner table and the instance lists.
    baseline = baselines[(query, backend)]
    n = baseline.input_records
    crashed = latency_run(
        query, backend,
        fault_plan=FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=n * 4 // 5),
        checkpoint_interval=n // 5,
        rescale_schedule={n // 2: 4} if rescale else None,
    )
    assert [event.kind for event in crashed.recoveries] == ["crash", "restore"]
    if rescale:
        assert [event.new_parallelism for event in crashed.rescales] == [4]
    assert_complete(crashed, baseline)


@pytest.mark.parametrize("query,backend", CELLS)
def test_live_rescale_in_latency_mode(query, backend, baselines):
    baseline = baselines[(query, backend)]
    rescaled = latency_run(
        query, backend, rescale_schedule={baseline.input_records // 2: 4},
    )
    (event,) = rescaled.rescales
    assert event.mode == "live" and not event.aborted
    assert event.old_parallelism == 2 and event.new_parallelism == 4
    assert event.moved_groups > 0
    assert_complete(rescaled, baseline)


# Simulated results at the commit that introduced the compiled router,
# taken from the router it replaced (string dispatch per hop): the two
# must agree to the last bit.
PINS = {
    ("q11", "flowkv"): {
        "job_seconds": 1.6472679999999686,
        "cpu_seconds": {
            "changelog": 0.0,
            "compaction": 0.0,
            "engine": 0.8910000000000255,
            "gc": 0.0,
            "migration": 0.0,
            "network": 0.0,
            "prefetch": 0.0,
            "query": 0.33887999999999785,
            "recovery": 0.0,
            "serde": 1.1285999999999798,
            "store_read": 0.42359999999999526,
            "store_write": 0.4049999999999956,
            "sync": 0.0,
        },
        "latencies_sha256":
            "14b68ac568a28c35633f841cb278d81f657f4e7b14718e8ec52f236ad84a51d5",
    },
    ("q8-interval", "rocksdb"): {
        "job_seconds": 0.9783900000000285,
        "cpu_seconds": {
            "changelog": 0.0,
            "compaction": 0.0,
            "engine": 1.626120000000032,
            "gc": 0.0,
            "migration": 0.0,
            "network": 0.0,
            "prefetch": 0.0,
            "query": 0.2668800000000008,
            "recovery": 0.0,
            "serde": 0.0,
            "store_read": 0.0,
            "store_write": 0.0,
            "sync": 0.0,
        },
        "latencies_sha256":
            "aa7c58c1866702d06146e05d9be3f8f1bc0d1b8f37ac4159a581584277f77165",
    },
}


def pin(result) -> dict:
    return {
        "job_seconds": result.job_seconds,
        "cpu_seconds": dict(sorted(result.metrics.cpu_seconds.items())),
        "latencies_sha256": hashlib.sha256(repr(result.latencies).encode()).hexdigest(),
    }


@pytest.mark.parametrize("query,backend", CELLS)
def test_latency_mode_charges_are_pinned(query, backend, baselines):
    assert pin(baselines[(query, backend)]) == PINS[(query, backend)]


def test_cross_node_latency_run_is_pinned():
    # Two machines: about half the keyed hand-offs cross the network, so
    # the router's shuffle-hop charge runs inside the pinned unit times.
    result = latency_run("q11", "flowkv", nodes=2)
    assert result.metrics.network_bytes == 50832
    assert result.metrics.cpu_seconds["network"] == 4.0665599999999986e-05
    assert result.job_seconds == 1.6472890239999813
    assert hashlib.sha256(repr(result.latencies).encode()).hexdigest() == (
        "1e694c8fb27c08c6c3040701ee64e1673206ca3d5e5833f7efba69818b9c3f61"
    )
