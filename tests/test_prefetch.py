"""Semantic prefetching: the subsystem's three contracts.

1. **Identity at depth 0** — ``prefetch_depth=0`` (the default) computes
   no hints, issues no charges, and produces bit-identical per-category
   ledgers, counters and output digests to a run that never mentions the
   knob.
2. **Overlap, not reordering** — with prefetching on, job output digests
   never move at any depth, total io_wait drops strictly on the
   I/O-bound AAR cell (Q7) for both disk backends, and the residual
   split never exceeds total io_wait.
3. **Fault transparency** — a prefetch read that draws an injected
   :class:`DiskIOError` is dropped and retried on the demand path; a
   bit-flipped payload reads identically through prefetch and demand.
   Faults can change *when* I/O cost is paid, never what the job emits.

Plus the S2 block-cache regression: prefetched inserts can never evict a
block a pin (issued on hint for an imminent demand read) protects.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.faults import FaultInjector, FaultPlan
from repro.kvstores.lsm.blockcache import BlockCache
from repro.kvstores.lsm.format import Entry
from repro.prefetch import WASTE_THRESHOLD, WINDOW, PrefetchExecutor
from repro.simenv import SimEnv

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))
WINDOW_SIZE = TINY_PROFILE.window_sizes[0]
DISK_BACKENDS = ("rocksdb", "faster")


def _run(query, backend, **kwargs):
    record = run_query(TINY_PROFILE, query, backend, WINDOW_SIZE, **kwargs)
    assert record.ok, record.failure
    return record


_PREFETCH_READ_ORDINALS: dict[str, int] = {}


def _first_prefetch_read(backend: str) -> int:
    """Global I/O ordinal of the first background (capture-issued) read.

    Discovered at runtime from an un-faulted depth-8 run, so the fault
    tests stay valid when store layout or hint timing shifts the I/O
    schedule.  Ordinals are deterministic for a given build — the plan's
    seed only drives data-dependent choices (which bit flips, how much
    of a write tears), never which I/O a fault lands on — so an ordinal
    found here names the same read in the faulted run below.
    """
    cached = _PREFETCH_READ_ORDINALS.get(backend)
    if cached is not None:
        return cached
    ordinals: list[int] = []
    capturing = [False]
    orig_on_read = FaultInjector.on_read
    orig_capture = PrefetchExecutor.capture

    def on_read(self, *args, **kwargs):
        result = orig_on_read(self, *args, **kwargs)
        if capturing[0]:
            ordinals.append(self.io_index)
        return result

    def capture(self, fn):
        capturing[0] = True
        try:
            return orig_capture(self, fn)
        finally:
            capturing[0] = False

    FaultInjector.on_read = on_read
    PrefetchExecutor.capture = capture
    try:
        _run("q7", backend, prefetch_depth=8,
             fault_plan=FaultPlan(seed=FAULT_SEED))
    finally:
        FaultInjector.on_read = orig_on_read
        PrefetchExecutor.capture = orig_capture
    assert ordinals, "depth-8 q7 run issued no prefetch reads"
    _PREFETCH_READ_ORDINALS[backend] = ordinals[0]
    return ordinals[0]


# ----------------------------------------------------------------------
# executor unit behaviour
# ----------------------------------------------------------------------
class TestPrefetchExecutor:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth"):
            PrefetchExecutor(SimEnv(), 0)

    def test_capture_books_background_charges_without_clock_advance(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        before = env.now
        result = ex.capture(lambda: env.charge_read(4096) or "data")
        assert result is not None
        data, completion = result
        assert data == "data"
        assert env.now == before  # background work: clock untouched
        assert completion > before  # but the device was busy for a while
        assert env.ledger.cpu_seconds["prefetch"] > 0.0
        assert env.ledger.io_wait_seconds == 0.0

    def test_device_queue_serializes_captures(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        _, first = ex.capture(lambda: env.charge_read(4096))
        _, second = ex.capture(lambda: env.charge_read(4096))
        assert second > first  # one simulated device, not infinite lanes

    def test_consume_now_pays_residual_as_late(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        _, completion = ex.capture(lambda: env.charge_read(1 << 20))
        ex.register()
        ex.consume(completion)
        assert env.ledger.counters.get("prefetch_late") == 1
        assert env.ledger.prefetch_wait_seconds == pytest.approx(completion)
        assert env.ledger.io_wait_seconds == pytest.approx(completion)
        assert env.now == pytest.approx(completion)  # waited it out

    def test_consume_after_compute_is_a_free_hit(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        _, completion = ex.capture(lambda: env.charge_read(4096))
        ex.register()
        env.charge_cpu("engine", completion + 1.0)  # overlapped compute
        before = env.now
        ex.consume(completion)
        assert env.now == before  # fully hidden: no wait at all
        assert env.ledger.counters.get("prefetch_hits") == 1
        assert env.ledger.prefetch_wait_seconds == 0.0

    def test_budget_drops_issues_beyond_depth(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 1)
        ex.capture(lambda: None)
        ex.register()
        assert not ex.has_budget()
        assert ex.capture(lambda: None) is None
        assert env.ledger.counters.get("prefetch_dropped") == 1

    def test_capture_swallows_failures_as_dropped(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)

        def boom():
            raise OSError("injected")

        assert ex.capture(boom) is None
        assert env.ledger.counters.get("prefetch_dropped") == 1
        assert env.now == 0.0  # nothing leaked into foreground time

    def test_throttle_halves_budget_on_wasted_window(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 8)
        wasted = int(WINDOW * WASTE_THRESHOLD) + 1
        ex.waste(wasted)
        for _ in range(WINDOW - wasted):
            ex.register()
            ex.consume(0.0)
        assert ex.budget == 4
        assert env.ledger.counters.get("prefetch_throttled") == 1

    def test_throttle_recovers_one_slot_per_clean_window(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 8)
        ex.budget = 4  # as if previously throttled
        for _ in range(WINDOW):
            ex.register()
            ex.consume(0.0)
        assert ex.budget == 5
        for _ in range(WINDOW):
            ex.register()
            ex.consume(0.0)
        assert ex.budget == 6


# ----------------------------------------------------------------------
# S2: the block-cache pin regression
# ----------------------------------------------------------------------
def _entries(tag: bytes) -> list[Entry]:
    return [Entry(key=tag, seq=1, kind=0, value=b"v")]


class TestBlockCachePinning:
    def test_prefetched_insert_cannot_evict_a_pinned_block(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        cache = BlockCache(env, capacity_bytes=256)
        cache.prefetcher = ex
        cache.insert("t1", 0, _entries(b"demand"), 128)
        assert cache.pin("t1", 0)
        # Two prefetched inserts overflow the capacity; the unpinned
        # prefetched block is the victim, never the pinned demand block.
        ex.register()
        cache.insert("t1", 128, _entries(b"pf1"), 128, prefetched=True, completion=1.0)
        ex.register()
        cache.insert("t1", 256, _entries(b"pf2"), 128, prefetched=True, completion=2.0)
        assert cache.get("t1", 0) is not None  # pinned block survived
        assert env.ledger.counters.get("prefetch_wasted") == 1  # the victim

    def test_pin_budget_is_bounded(self):
        env = SimEnv()
        cache = BlockCache(env, capacity_bytes=1024, max_pins=1)
        cache.insert("t", 0, _entries(b"a"), 64)
        cache.insert("t", 64, _entries(b"b"), 64)
        assert cache.pin("t", 0)
        assert not cache.pin("t", 64)  # over budget: hint goes unprotected
        assert not cache.pin("t", 999)  # absent block: nothing to pin

    def test_unpinned_newcomer_is_the_victim_not_the_pin(self):
        env = SimEnv()
        cache = BlockCache(env, capacity_bytes=100)
        cache.insert("t", 0, _entries(b"a"), 80)
        assert cache.pin("t", 0)
        # The insert that would have to evict the pinned block is itself
        # the oldest unpinned block: it bounces straight back out, the
        # pin survives, and capacity holds.
        cache.insert("t", 80, _entries(b"b"), 80)
        assert cache.used_bytes <= 100
        assert cache.get("t", 80) is None
        assert cache.get("t", 0) is not None

    def test_all_pinned_overflows_instead_of_evicting(self):
        env = SimEnv()
        cache = BlockCache(env, capacity_bytes=100)
        cache.insert("t", 0, _entries(b"a"), 80)
        assert cache.pin("t", 0)
        # Replacing the pinned block with a larger decode leaves nothing
        # evictable: bounded overflow rather than dropping the pin.
        cache.insert("t", 0, _entries(b"a"), 120)
        assert cache.used_bytes > 100  # bounded overflow, pin intact
        assert cache.get("t", 0) is not None

    def test_demand_get_unpins_and_settles_prefetched(self):
        env = SimEnv()
        ex = PrefetchExecutor(env, 4)
        cache = BlockCache(env, capacity_bytes=1024)
        cache.prefetcher = ex
        ex.register()
        cache.insert("t", 0, _entries(b"a"), 64, prefetched=True, completion=0.0)
        assert cache.get("t", 0) is not None
        assert env.ledger.counters.get("prefetch_hits") == 1
        # A second get is a plain cache hit: nothing double-settled.
        assert cache.get("t", 0) is not None
        assert env.ledger.counters.get("prefetch_hits") == 1


# ----------------------------------------------------------------------
# depth 0 is bit-identical to a run that never mentions the knob
# ----------------------------------------------------------------------
class TestDepthZeroIdentity:
    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_depth_zero_charges_and_digest_pinned(self, backend):
        implicit = _run("q7", backend)
        explicit = _run("q7", backend, prefetch_depth=0)
        assert explicit.output_hash == implicit.output_hash
        assert explicit.metrics.cpu_seconds == implicit.metrics.cpu_seconds
        assert explicit.metrics.counters == implicit.metrics.counters
        assert explicit.metrics.io_wait_seconds == implicit.metrics.io_wait_seconds
        # The subsystem leaves no trace at depth 0 (the ledger category
        # exists — all categories are pre-seeded — but never accrues).
        assert explicit.metrics.cpu_seconds.get("prefetch", 0.0) == 0.0
        assert explicit.metrics.prefetch_wait_seconds == 0.0
        assert not any(
            k.startswith("prefetch_") for k in explicit.metrics.counters
        )


# ----------------------------------------------------------------------
# overlap wins without output drift
# ----------------------------------------------------------------------
class TestPrefetchOverlap:
    @pytest.mark.parametrize("query", ("q7", "q8", "q11-median"))
    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_digest_stable_and_io_wait_never_worse(self, query, backend):
        base = _run(query, backend, prefetch_depth=0)
        for depth in (2, 8):
            record = _run(query, backend, prefetch_depth=depth)
            assert record.output_hash == base.output_hash
            assert (
                record.metrics.io_wait_seconds
                <= base.metrics.io_wait_seconds + 1e-12
            )

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_q7_io_wait_strictly_lower_with_prefetch(self, backend):
        base = _run("q7", backend, prefetch_depth=0)
        record = _run("q7", backend, prefetch_depth=8)
        assert base.metrics.io_wait_seconds > 0.0
        assert record.metrics.io_wait_seconds < base.metrics.io_wait_seconds
        counters = record.metrics.counters
        assert counters.get("prefetch_hits", 0) + counters.get("prefetch_late", 0) > 0

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_residual_split_is_a_subset_of_io_wait(self, backend):
        record = _run("q7", backend, prefetch_depth=8)
        residual = record.metrics.prefetch_wait_seconds
        assert 0.0 <= residual <= record.metrics.io_wait_seconds + 1e-12
        # Background device time was booked to the prefetch category.
        assert record.metrics.cpu_seconds.get("prefetch", 0.0) > 0.0


# ----------------------------------------------------------------------
# S3: fault transparency
# ----------------------------------------------------------------------
class TestFaultTransparency:
    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_disk_error_on_prefetch_read_is_dropped_and_retried(self, backend):
        clean = _run("q7", backend, prefetch_depth=8)
        plan = FaultPlan(seed=FAULT_SEED).fail_io(
            op="read", on_io=_first_prefetch_read(backend)
        )
        faulted = _run("q7", backend, prefetch_depth=8, fault_plan=plan)
        assert faulted.output_hash == clean.output_hash
        # The fault really landed on a background read: it was dropped,
        # not surfaced (a demand-read hit would have crashed the run).
        assert faulted.metrics.counters.get("prefetch_dropped", 0) >= 1

    @pytest.mark.parametrize("backend", DISK_BACKENDS)
    def test_bit_flip_reads_identically_through_prefetch(self, backend):
        """A flipped payload is read back the same way on both paths.

        Prefetching issues only reads, so the write sequence — and hence
        which write the flip lands on — is identical at any depth; the
        corrupted bytes then flow to the operator whether they arrived
        via a background slab/block or a demand read.
        """

        def outcome(depth):
            plan = FaultPlan(seed=FAULT_SEED).bit_flip(at_time=0.0, times=2)
            try:
                record = run_query(
                    TINY_PROFILE, "q7", backend, WINDOW_SIZE,
                    prefetch_depth=depth, fault_plan=plan,
                )
            except Exception as exc:  # deterministic decode failure
                return ("raised", type(exc).__name__)
            return ("ok", record.output_hash, record.failure)

        assert outcome(8) == outcome(0)
