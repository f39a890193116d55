"""Per-key-group load accounting invariants.

The tracker increments its group, instance and node axes at the same
call sites, so each axis must sum to the same totals — exactly for the
integer counters, to float-sum precision for busy seconds — on every
backend, with batching, across a live migration, and through recovery.
And because the tracker is pure-Python bookkeeping, a run with it (it
is always on) charges the simulated ledgers *exactly* what the pre-skew
build charged: pinned here to the digit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.cluster import ClusterTopology
from repro.rescale import GroupLoadTracker, SkewController

WINDOW = TINY_PROFILE.window_sizes[0]
BACKENDS = ("memory", "flowkv", "rocksdb", "faster")

# One cell of the evaluation matrix, pinned from the build that
# introduced the tracker (identical to the build before it): the
# always-on accounting must never shift a simulated charge.
PINNED_OUTPUT = "d7e5c0b7a7dedead20011530c5e98225b4025fd79fe92fa0d7b3743cc2803b75"
PINNED_INPUT_RECORDS = 6019
PINNED_RESULTS = 767
PINNED_JOB_SECONDS = 0.008350109999999692
PINNED_CPU = {
    "engine": 0.001004880000000029,
    "query": 0.0014860399999999997,
    "serde": 0.003178320000000296,
    "store_read": 0.001023854999999999,
    "store_write": 0.001098544999999933,
}


def profile_for(backend: str):
    if backend == "memory":
        return replace(TINY_PROFILE, heap_total_bytes=8 << 20)
    return TINY_PROFILE


def assert_axes_consistent(group_load: dict) -> None:
    groups = group_load["groups"].values()
    instances = group_load["instances"].values()
    nodes = group_load["nodes"].values()
    for key in ("records", "bytes"):
        by_group = sum(entry[key] for entry in groups)
        by_instance = sum(entry[key] for entry in instances)
        by_node = sum(entry[key] for entry in nodes)
        assert by_group == by_instance == by_node > 0, key
    busy_group = math.fsum(e["busy_seconds"] for e in groups)
    busy_instance = math.fsum(e["busy_seconds"] for e in instances)
    busy_node = math.fsum(e["busy_seconds"] for e in nodes)
    assert busy_group == pytest.approx(busy_instance, rel=1e-12)
    assert busy_group == pytest.approx(busy_node, rel=1e-12)
    assert busy_group > 0.0


class TestChargeIdentity:
    def test_tracked_run_charges_identically(self):
        """The tracker is pure bookkeeping: same digest, same simulated
        time, same per-category CPU as the pre-tracker build.  The pin
        was taken with per-tuple delivery: batching may move
        ``job_seconds`` by float ulps (tests/test_batching.py)."""
        with mock.patch("repro.engine.runtime.BATCH_RECORDS", 1):
            record = run_query(TINY_PROFILE, "q7", "flowkv", WINDOW)
        assert record.ok
        assert record.output_hash == PINNED_OUTPUT
        assert record.input_records == PINNED_INPUT_RECORDS
        assert record.results == PINNED_RESULTS
        assert record.job_seconds == PINNED_JOB_SECONDS
        observed = {k: v for k, v in record.metrics.cpu_seconds.items() if v}
        assert observed == PINNED_CPU


@pytest.mark.parametrize("backend", BACKENDS)
class TestAxisInvariants:
    def test_axes_sum_exactly(self, backend):
        """Per-tuple delivery: one key-group per service charge."""
        with mock.patch("repro.engine.runtime.BATCH_RECORDS", 1):
            record = run_query(profile_for(backend), "q7", backend, WINDOW)
        assert record.ok
        assert_axes_consistent(record.group_load)

    def test_axes_sum_exactly_batched(self, backend):
        """The batched path splits one service charge across groups with
        an exact float remainder — sums must still match."""
        record = run_query(profile_for(backend), "q7", backend, WINDOW)
        assert record.ok
        assert_axes_consistent(record.group_load)

    def test_axes_survive_live_migration(self, backend):
        """Counters are global per group: a mid-stream split re-places
        groups without resetting or double-counting anything."""
        record = run_query(
            profile_for(backend), "q7", backend, WINDOW, parallelism=4,
            generator_overrides={"bidder_zipf": 1.5},
            rescale_policy=SkewController(
                imbalance_threshold=1.5, patience=3, cooldown=10
            ),
        )
        assert record.ok
        assert any(e.reason == "skew-split" for e in record.rescales)
        assert_axes_consistent(record.group_load)
        plain = run_query(
            profile_for(backend), "q7", backend, WINDOW, parallelism=4,
            generator_overrides={"bidder_zipf": 1.5},
        )
        # Same stream, same keyed work: the group axis is placement-
        # independent, so its totals match the unsplit run exactly.
        split_groups = record.group_load["groups"]
        plain_groups = plain.group_load["groups"]
        assert set(split_groups) == set(plain_groups)
        for group, entry in plain_groups.items():
            assert split_groups[group]["records"] == entry["records"], group
            assert split_groups[group]["bytes"] == entry["bytes"], group


class TestClusterAxis:
    def test_node_stats_mirror_tracker(self):
        record = run_query(
            TINY_PROFILE, "q7", "flowkv", WINDOW, parallelism=4,
            cluster=ClusterTopology.uniform(2),
        )
        assert record.ok
        assert_axes_consistent(record.group_load)
        nodes = record.group_load["nodes"]
        assert len(nodes) == 2
        # node_stats carries the same keyed counters, keyed by name.
        for node_id, entry in nodes.items():
            stats = record.node_stats[f"node{node_id}"]
            assert stats["keyed_records"] == entry["records"]
            assert stats["keyed_busy_seconds"] == entry["busy_seconds"]


class TestRecoveryResets:
    def test_axes_consistent_after_restore(self):
        """Recovery builds a fresh executor (and tracker): the surfaced
        counters describe the final attempt only, and still balance."""
        from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan

        baseline = run_query(TINY_PROFILE, "q7", "flowkv", WINDOW)
        interval = max(1, baseline.input_records // 4)
        crash_at = max(2, baseline.input_records // 2)
        plan = FaultPlan(seed=7).crash(CRASH_RUNTIME_RECORD, on_hit=crash_at)
        record = run_query(
            TINY_PROFILE, "q7", "flowkv", WINDOW,
            fault_plan=plan, checkpoint_interval=interval,
        )
        assert record.ok
        assert record.output_hash == baseline.output_hash
        assert any(e.kind == "restore" for e in record.recoveries)
        assert_axes_consistent(record.group_load)
        # Reset-on-restore, not carry-over: the final attempt replayed
        # from the last checkpoint, so it saw fewer records than the
        # crash-free run processed in total plus the replay.
        total = sum(e["records"] for e in record.group_load["groups"].values())
        crash_free = sum(
            e["records"] for e in baseline.group_load["groups"].values()
        )
        assert 0 < total <= crash_free


class TestTrackerUnit:
    def test_record_updates_all_axes(self):
        tracker = GroupLoadTracker(8)
        tracker.record(3, 1, 0, 2, 100, 0.5)
        tracker.record(3, 1, 0, 1, 50, 0.25)
        tracker.record(5, 0, 1, 4, 10, 1.0)
        assert tracker.group_records[3] == 3
        assert tracker.group_bytes[3] == 150
        assert tracker.group_busy[3] == 0.75
        assert tracker.instance_records == {1: 3, 0: 4}
        assert tracker.node_busy == {0: 0.75, 1: 1.0}

    def test_record_many_busy_shares_sum_exactly(self):
        tracker = GroupLoadTracker(8)
        busy = 0.1  # not representable: remainder logic must absorb it
        rows = [(0, 1, 10), (1, 2, 20), (2, 4, 40)]
        tracker.record_many(0, 0, rows, busy)
        assert math.fsum(tracker.group_busy) == busy
        assert tracker.instance_busy[0] == busy
        assert tracker.node_busy[0] == busy
        assert sum(tracker.group_records) == tracker.instance_records[0] == 7

    def test_summary_is_sparse(self):
        tracker = GroupLoadTracker(128)
        tracker.record(7, 0, 0, 1, 8, 0.1)
        summary = tracker.summary()
        assert list(summary["groups"]) == [7]
        assert list(summary["instances"]) == [0]
        assert list(summary["nodes"]) == [0]
