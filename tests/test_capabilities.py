"""Capability discovery: typed errors instead of NotImplementedError.

Backends advertise optional features (snapshot, rescale) through a
``capabilities`` frozenset; callers that need one check it up front with
:func:`require_capability` and get a typed, actionable
:class:`UnsupportedOperationError` — never a bare ``NotImplementedError``
halfway through a checkpoint or migration.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.core import FlowKVComposite
from repro.core.patterns import StorePattern, WindowKind
from repro.engine.state import GenericKVBackend, OperatorInfo
from repro.errors import StoreError, UnsupportedOperationError
from repro.kvstores.api import (
    CAP_BATCH,
    CAP_INCREMENTAL,
    CAP_RESCALE,
    CAP_SNAPSHOT,
    KVStore,
    WindowStateBackend,
    require_capability,
)
from repro.model import GLOBAL_WINDOW
from repro.kvstores.hashkv import FasterStore
from repro.kvstores.lsm import LsmStore
from repro.kvstores.memory import HeapWindowBackend
from repro.simenv import SimEnv
from repro.storage import SimFileSystem


class BareBackend(WindowStateBackend):
    """A backend implementing only the required surface — no optionals."""

    def append(self, key, window, value, timestamp):
        pass

    def read_window(self, window):
        return iter(())

    def read_key_window(self, key, window):
        return []

    def rmw_get(self, key, window):
        return None

    def rmw_put(self, key, window, aggregate):
        pass

    def rmw_remove(self, key, window):
        return None

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def memory_bytes(self):
        return 0


class BareStore(KVStore):
    """A KV store with no optional capabilities."""

    def get(self, key):
        return None

    def put(self, key, value):
        pass

    def append(self, key, value):
        pass

    def delete(self, key):
        pass

    def scan_prefix(self, prefix):
        return iter(())

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def memory_bytes(self):
        return 0


def heap_backend():
    return HeapWindowBackend(SimEnv(), 1 << 20)


class TestAdvertisedCapabilities:
    def test_heap_backend_supports_everything(self):
        assert heap_backend().capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH,
        }

    def test_flowkv_supports_everything(self):
        env = SimEnv()
        backend = FlowKVComposite(env, SimFileSystem(env), StorePattern.AAR)
        assert backend.capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH,
        }

    def test_generic_kv_inherits_snapshot_from_store(self):
        env = SimEnv()
        for store_cls in (LsmStore, FasterStore):
            store = store_cls(env, SimFileSystem(env), "s")
            assert store.capabilities == {CAP_SNAPSHOT, CAP_BATCH}
            backend = GenericKVBackend(env, store)
            assert backend.capabilities == {
                CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH,
            }

    def test_generic_kv_over_bare_store_can_rescale_not_snapshot(self):
        # export/import (and the dirty-group bookkeeping riding on it) is
        # implemented generically on top of scan/put, but snapshotting
        # needs the store's own support.  The glue's batch surface only
        # needs the base-class loop fallback underneath, so CAP_BATCH is
        # advertised regardless of the wrapped store.
        backend = GenericKVBackend(SimEnv(), BareStore())
        assert backend.capabilities == {CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH}

    def test_base_classes_advertise_nothing(self):
        assert BareBackend().capabilities == frozenset()
        assert BareStore().capabilities == frozenset()


class TestTypedErrors:
    def test_optional_methods_raise_typed_error(self):
        backend = BareBackend()
        with pytest.raises(UnsupportedOperationError) as exc_info:
            backend.snapshot()
        err = exc_info.value
        assert err.backend == "BareBackend"
        assert err.capability == CAP_SNAPSHOT
        assert err.operation == "snapshot"
        # The typed error is still a StoreError, so existing generic
        # fault handling keeps working.
        assert isinstance(err, StoreError)
        with pytest.raises(UnsupportedOperationError):
            backend.restore(object())
        with pytest.raises(UnsupportedOperationError):
            backend.export_state({0}, lambda key: 0)
        with pytest.raises(UnsupportedOperationError):
            backend.import_state(object())

    def test_require_capability_passes_and_fails(self):
        require_capability(heap_backend(), CAP_RESCALE, "export_state")
        with pytest.raises(UnsupportedOperationError, match="does not support"):
            require_capability(BareBackend(), CAP_RESCALE, "export_state")

    def test_message_is_actionable(self):
        with pytest.raises(UnsupportedOperationError, match="capabilities"):
            require_capability(BareBackend(), CAP_SNAPSHOT)

    def test_message_lists_advertised_capabilities(self):
        # The error names what the store *does* advertise, so the caller
        # can see at a glance whether they hold the wrong backend or just
        # asked for the wrong feature.
        with pytest.raises(UnsupportedOperationError) as exc_info:
            require_capability(BareBackend(), CAP_BATCH, "multi_append")
        assert "advertises no optional capabilities" in str(exc_info.value)
        backend = GenericKVBackend(SimEnv(), BareStore())
        with pytest.raises(UnsupportedOperationError) as exc_info:
            require_capability(backend, CAP_SNAPSHOT, "snapshot")
        message = str(exc_info.value)
        assert "it advertises:" in message
        for cap in sorted(backend.capabilities):
            assert cap in message
        assert exc_info.value.advertised == backend.capabilities


class TestBatchCapability:
    """CAP_BATCH is a performance statement: every backend — advertised
    or not — answers batch calls correctly through the base-class loop."""

    def test_bare_backend_falls_back_to_per_tuple_loop(self):
        calls = []

        class RecordingBackend(BareBackend):
            def append(self, key, window, value, timestamp):
                calls.append(("append", key, value))

        backend = RecordingBackend()
        assert CAP_BATCH not in backend.capabilities
        backend.multi_append([
            (b"a", GLOBAL_WINDOW, 1, 0.0), (b"b", GLOBAL_WINDOW, 2, 1.0),
        ])
        assert calls == [("append", b"a", 1), ("append", b"b", 2)]

    def test_bare_store_write_batch_applies_on_commit(self):
        class RecordingStore(BareStore):
            def __init__(self):
                self.ops = []

            def put(self, key, value):
                self.ops.append(("put", key, value))

            def append(self, key, value):
                self.ops.append(("append", key, value))

        store = RecordingStore()
        assert CAP_BATCH not in store.capabilities
        with store.write_batch() as batch:
            batch.put(b"k", b"v")
            batch.append(b"k", b"w")
            assert store.ops == []  # nothing reaches the store pre-commit
        assert store.ops == [("put", b"k", b"v"), ("append", b"k", b"w")]

    def test_abandoned_write_batch_applies_nothing(self):
        class RecordingStore(BareStore):
            def __init__(self):
                self.ops = []

            def put(self, key, value):
                self.ops.append(("put", key, value))

        store = RecordingStore()
        with pytest.raises(RuntimeError):
            with store.write_batch() as batch:
                batch.put(b"k", b"v")
                raise RuntimeError("operator failed mid-batch")
        assert store.ops == []

    def test_requiring_batch_degrades_gracefully(self):
        # A caller that *wants* the amortized path checks up front and
        # falls back to the identical-semantics loop when refused.
        backend = BareBackend()
        try:
            require_capability(backend, CAP_BATCH, "multi_append")
            used_native = True
        except UnsupportedOperationError:
            used_native = False
        assert not used_native
        backend.multi_append([(b"k", GLOBAL_WINDOW, 1, 0.0)])  # still works


class TestCallersCheckUpFront:
    QUERY = "q11-median"
    WINDOW = TINY_PROFILE.window_sizes[0]
    # Enough heap that the in-memory backend reaches the rescale point
    # (the tiny profile's default deliberately OOMs it on this query).
    PROFILE = replace(TINY_PROFILE, heap_total_bytes=8 << 20)

    @pytest.mark.parametrize("mode", ("live", "stw"))
    def test_rescale_without_capability_fails_fast(self, monkeypatch, mode):
        # Strip the heap backend's capabilities: a scheduled rescale must
        # surface as a typed "unsupported" failure on the run record,
        # before any state has been exported.
        monkeypatch.setattr(HeapWindowBackend, "capabilities", frozenset())
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            parallelism=2, rescale_schedule={100: 4}, rescale_mode=mode,
        )
        assert not record.ok
        assert record.failure == "unsupported:export_state"

    def test_checkpointing_without_snapshot_capability(self, monkeypatch):
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities", frozenset({CAP_RESCALE})
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300,
        )
        assert not record.ok
        assert record.failure == "unsupported:snapshot"

    def test_checkpointing_degrades_without_incremental_capability(self, monkeypatch):
        # Without CAP_INCREMENTAL the checkpointer silently falls back to
        # whole-store snapshots — same answers, every epoch full.
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities",
            frozenset({CAP_SNAPSHOT, CAP_RESCALE}),
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300,
        )
        assert record.ok
        assert record.checkpoints > 0
        assert all(stat.full for stat in record.checkpoint_stats)
        base = run_query(self.PROFILE, self.QUERY, "memory", self.WINDOW)
        assert record.output_hash == base.output_hash

    def test_incremental_require_fails_fast_without_capability(self, monkeypatch):
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities",
            frozenset({CAP_SNAPSHOT, CAP_RESCALE}),
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300, incremental_checkpoints="require",
        )
        assert not record.ok
        assert record.failure == "unsupported:incremental_checkpoint"

    def test_incremental_require_passes_with_capability(self):
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300, incremental_checkpoints="require",
        )
        assert record.ok
        assert any(not stat.full for stat in record.checkpoint_stats)

    def test_operator_info_unrelated_to_capabilities(self):
        # Factories receive OperatorInfo; capabilities are a property of
        # the backend instance, independent of the operator's pattern.
        info = OperatorInfo(name="w", incremental=True,
                            window_kind=WindowKind.FIXED)
        assert info.pattern is not None
        assert heap_backend().capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH,
        }
