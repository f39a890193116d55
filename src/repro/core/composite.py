"""The FlowKV composite store facade.

One :class:`FlowKVComposite` serves one physical window operator.  At
construction (application launch) the store pattern has been determined
from the operator's function signatures (§3.1); the composite deploys
``m`` store instances of that pattern and routes every state access by key
hash, so that compaction runs independently per state partition (§3).

It implements the engine's :class:`~repro.kvstores.api.WindowStateBackend`
interface, translating objects to bytes at the boundary (serde charged).
"""

from __future__ import annotations

import pickle
from collections.abc import Iterator
from typing import Any

from repro.core.aar import AarStore
from repro.core.aur import AurStore
from repro.core.config import FlowKVConfig
from repro.core.ett import EttPredictor, KnownBoundaryPredictor
from repro.core.patterns import StorePattern
from repro.core.rmw import RmwStore
from repro.errors import PatternError
from repro.kvstores.api import (
    CAP_BATCH,
    CAP_INCREMENTAL,
    CAP_RESCALE,
    CAP_SNAPSHOT,
    KIND_AGG,
    KIND_LIST,
    KeyGroupDirtyTracker,
    KeyGroupFn,
    StateExport,
    WindowStateBackend,
)
from repro.model import PickleSerde, Serde, Window
from repro.rescale.keygroups import key_group_of
from repro.simenv import CAT_RECOVERY, CAT_SERDE, SimEnv
from repro.storage.filesystem import SimFileSystem


class FlowKVComposite(WindowStateBackend):
    """``m`` pattern-specialized store instances behind one backend."""

    capabilities = frozenset({CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL, CAP_BATCH})

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        pattern: StorePattern,
        config: FlowKVConfig | None = None,
        predictor: EttPredictor | None = None,
        serde: Serde | None = None,
        name: str = "flowkv",
    ) -> None:
        self._env = env
        self._pattern = pattern
        self._config = config or FlowKVConfig()
        self._serde = serde or PickleSerde()
        self._name = name
        cfg = self._config
        self._instances: list[Any] = []
        for i in range(cfg.num_instances):
            instance_name = f"{name}/s{i}"
            if pattern is StorePattern.AAR:
                store: Any = AarStore(
                    env, fs, instance_name,
                    write_buffer_bytes=cfg.write_buffer_bytes,
                    read_chunk_bytes=cfg.read_chunk_bytes,
                )
            elif pattern is StorePattern.AUR:
                store = AurStore(
                    env, fs,
                    predictor or KnownBoundaryPredictor(),
                    instance_name,
                    write_buffer_bytes=cfg.write_buffer_bytes,
                    read_batch_ratio=cfg.read_batch_ratio,
                    max_space_amplification=cfg.max_space_amplification,
                    data_segment_bytes=cfg.data_segment_bytes,
                    prefetch_buffer_bytes=cfg.prefetch_buffer_bytes,
                )
            elif pattern is StorePattern.RMW:
                store = RmwStore(
                    env, fs, instance_name,
                    write_buffer_bytes=cfg.write_buffer_bytes,
                    max_space_amplification=cfg.max_space_amplification,
                    data_segment_bytes=cfg.data_segment_bytes,
                )
            else:  # pragma: no cover - exhaustive enum
                raise PatternError(f"unknown store pattern: {pattern}")
            self._instances.append(store)
        self._dirty = KeyGroupDirtyTracker(self._config.max_key_groups)

    # ------------------------------------------------------------------
    @property
    def pattern(self) -> StorePattern:
        return self._pattern

    @property
    def checkpoint_key_groups(self) -> int:
        """Group-space resolution of dirty tracking and checkpoint shards
        (the composite's own routing hash — one space for both)."""
        return self._dirty.max_key_groups

    def dirty_groups(self) -> frozenset[int]:
        return self._dirty.groups()

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def attach_changelog(self, writer) -> None:
        """Route semantic mutations into a changelog writer (replication)."""
        self._dirty.changelog = writer

    @property
    def _kind(self) -> str:
        return KIND_AGG if self._pattern is StorePattern.RMW else KIND_LIST

    @property
    def instances(self) -> list[Any]:
        return list(self._instances)

    # Routing: stride the key's key-group across the m instances.  The
    # engine assigns *contiguous* key-group ranges to operator instances
    # while this takes residues modulo m, so the two levels stay
    # decorrelated (every store gets an even share of each range) — and
    # because the store index depends only on the key-group, a migrated
    # key-group lands in the same store slot on its new owner.
    def _route(self, key: bytes) -> Any:
        return self._instances[
            key_group_of(key, self._config.max_key_groups) % len(self._instances)
        ]

    def _encode(self, obj: Any) -> bytes:
        data = self._serde.serialize(obj)
        self._env.charge_cpu(CAT_SERDE, self._env.cpu.serde(len(data)))
        return data

    def _decode(self, data: bytes) -> Any:
        self._env.charge_cpu(CAT_SERDE, self._env.cpu.serde(len(data)))
        return self._serde.deserialize(data)

    def _require(self, *patterns: StorePattern) -> None:
        if self._pattern not in patterns:
            raise PatternError(
                f"operation not supported by {self._pattern.name} store"
            )

    # ------------------------------------------------------------------
    # append pattern
    # ------------------------------------------------------------------
    def append(self, key: bytes, window: Window, value: Any, timestamp: float) -> None:
        self._require(StorePattern.AAR, StorePattern.AUR)
        data = self._encode(value)
        self._dirty.log_append(key, window, self._kind, (data,))
        store = self._route(key)
        if self._pattern is StorePattern.AAR:
            store.append(key, data, window)
        else:
            store.append(key, data, window, timestamp)

    def multi_append(
        self, entries: list[tuple[bytes, Window, Any, float]]
    ) -> None:
        """Native batch append over the ``m`` routed instances.

        The loop stays strictly in entry order: the sub-stores share one
        cost environment, so regrouping entries per instance would reorder
        same-category charges and drift the clock.  Amortization is real
        Python overhead only — the routing hash is memoized per key within
        the batch and hot attributes are hoisted — while each entry's
        serde, changelog, and store charges match :meth:`append` exactly.
        """
        self._require(StorePattern.AAR, StorePattern.AUR)
        kind = self._kind
        is_aar = self._pattern is StorePattern.AAR
        encode = self._encode
        log_append = self._dirty.log_append
        instances = self._instances
        m = len(instances)
        max_groups = self._config.max_key_groups
        slot_of: dict[bytes, int] = {}
        for key, window, value, timestamp in entries:
            data = encode(value)
            log_append(key, window, kind, (data,))
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = key_group_of(key, max_groups) % m
            store = instances[slot]
            if is_aar:
                store.append(key, data, window)
            else:
                store.append(key, data, window, timestamp)

    def read_window(self, window: Window) -> Iterator[tuple[bytes, list[Any]]]:
        self._require(StorePattern.AAR)
        for store in self._instances:
            for key, values in store.get_window(window):
                self._dirty.log_remove(key, window, self._kind)
                yield key, [self._decode(v) for v in values]

    def read_key_window(self, key: bytes, window: Window) -> list[Any]:
        self._require(StorePattern.AUR)
        values = self._route(key).get(key, window)
        if values:
            self._dirty.log_remove(key, window, self._kind)
        return [self._decode(v) for v in values]

    # ------------------------------------------------------------------
    # RMW pattern
    # ------------------------------------------------------------------
    def rmw_get(self, key: bytes, window: Window) -> Any | None:
        self._require(StorePattern.RMW)
        data = self._route(key).get(key, window)
        return None if data is None else self._decode(data)

    def rmw_put(self, key: bytes, window: Window, aggregate: Any) -> None:
        self._require(StorePattern.RMW)
        data = self._encode(aggregate)
        self._dirty.log_put(key, window, self._kind, (data,))
        self._route(key).put(key, window, data)

    def rmw_remove(self, key: bytes, window: Window) -> Any | None:
        self._require(StorePattern.RMW)
        data = self._route(key).remove(key, window)
        if data is not None:
            self._dirty.log_remove(key, window, self._kind)
        return None if data is None else self._decode(data)

    # ------------------------------------------------------------------
    def on_watermark(self, timestamp: float) -> None:
        if self._pattern is StorePattern.AUR:
            for store in self._instances:
                store.on_watermark(timestamp)

    def flush(self) -> None:
        for store in self._instances:
            store.flush()

    def snapshot(self, upload_env=None):
        """Checkpoint all ``m`` instances (§8, Fault Tolerance).

        With ``upload_env`` the file transfers are charged to that
        environment (asynchronous upload) rather than the store's clock.
        """
        import zlib

        from repro.snapshot import StoreSnapshot

        parts = [store.snapshot(upload_env=upload_env) for store in self._instances]
        meta = pickle.dumps(
            [(part.kind, part.meta) for part in parts],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        files: dict[str, bytes] = {}
        # Per-file checksums are inherited from the already-sealed part
        # snapshots (no re-hash); only the combined meta blob needs a new CRC.
        checksums: dict[str, tuple[int, int]] = {}
        for part in parts:
            files.update(part.files)
            checksums.update(part.checksums or {})
        snap = StoreSnapshot(f"flowkv:{self._pattern.value}", meta, files)
        snap.checksums = checksums
        self._env.charge_cpu(CAT_RECOVERY, len(meta) * self._env.cpu.crc_per_byte)
        snap.meta_crc = zlib.crc32(meta)
        return snap

    def restore(self, snapshot) -> None:
        from repro.snapshot import StoreSnapshot, verify_snapshot

        # Verify once at the composite level; the per-instance snapshots
        # handed down are unsealed so the leaves don't re-hash.
        verify_snapshot(self._env, snapshot)
        parts_meta = pickle.loads(snapshot.meta)
        if len(parts_meta) != len(self._instances):
            raise ValueError(
                f"snapshot has {len(parts_meta)} instances, store has "
                f"{len(self._instances)} — num_instances must match"
            )
        for store, (kind, meta) in zip(self._instances, parts_meta):
            prefix = store._name + "/"  # noqa: SLF001 - same package
            files = {
                name: data for name, data in snapshot.files.items()
                if name.startswith(prefix)
            }
            store.restore(StoreSnapshot(kind, meta, files))

    # ------------------------------------------------------------------
    # elastic rescaling
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Extract the moved key-groups from all ``m`` instances.

        ``key_group_of`` must agree with the composite's own hash (same
        ``max_key_groups``); each store only ever holds key-groups with
        its own residue modulo m, so the per-instance exports are
        disjoint.
        """
        export = StateExport()
        for store in self._instances:
            export.entries.extend(store.export_state(key_groups, key_group_of).entries)
        for entry in export.entries:
            self._dirty.log_remove(entry.key, entry.window, entry.kind)
        return export

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Non-destructive per-group read of all ``m`` instances (the
        sharded checkpointer's path; stores charge it as recovery)."""
        export = StateExport()
        for store in self._instances:
            export.entries.extend(
                store.export_group_state(key_groups, key_group_of).entries
            )
        return export

    def import_state(self, export: StateExport) -> None:
        """Distribute migrated entries to their stable store slots."""
        m = len(self._instances)
        per_instance: dict[int, StateExport] = {}
        for entry in export.entries:
            self._dirty.log_merge(entry.key, entry.window, entry.kind, entry.values)
            index = key_group_of(entry.key, self._config.max_key_groups) % m
            per_instance.setdefault(index, StateExport()).entries.append(entry)
        for index, part in per_instance.items():
            self._instances[index].import_state(part)

    def close(self) -> None:
        for store in self._instances:
            store.close()

    @property
    def memory_bytes(self) -> int:
        return sum(store.memory_bytes for store in self._instances)

    @property
    def disk_bytes(self) -> int:
        return sum(store.disk_bytes for store in self._instances)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    @property
    def compaction_count(self) -> int:
        return sum(getattr(store, "compaction_count", 0) for store in self._instances)

    @property
    def prefetch_loads(self) -> int:
        if self._pattern is not StorePattern.AUR:
            return 0
        return sum(store.prefetch_stats.loads for store in self._instances)

    @property
    def prefetch_hits(self) -> int:
        if self._pattern is not StorePattern.AUR:
            return 0
        return sum(store.prefetch_stats.hits for store in self._instances)

    @property
    def prefetch_hit_ratio(self) -> float:
        """Aggregate prefetch hit ratio over AUR instances (Figure 11b)."""
        loads = self.prefetch_loads
        return self.prefetch_hits / loads if loads else 0.0
