"""Span tracing around each layer's public entry points, from outside.

:func:`traced` patches the entry points listed in :data:`ENTRY_POINTS`
with wrappers that record one span per call: name, start, end and the
span that was open when it began (its parent).  Nothing in ``src/`` is
edited.  Names bound with ``from module import f`` are rebound in every
loaded ``repro`` module that holds them, so those call sites are traced
too.  A call that returns a generator gets one span per ``next()``.

Self time is a span's duration minus the durations of its direct child
spans; it is folded per layer while the spans are recorded, so the fold
covers every span.  The spans themselves are kept in memory (up to
:data:`SPAN_CAP`) in compact arrays and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from types import GeneratorType
from typing import Any

# (module, attribute path, layer).  A dotted path names a method.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.plan", "StreamEnvironment.execute", "engine"),
    ("repro.engine.runtime", "Executor.run", "engine"),
    *(
        ("repro.core.composite", f"FlowKVComposite.{method}", "core")
        for method in ("append", "multi_append", "read_window", "read_key_window",
                       "rmw_get", "rmw_put", "rmw_remove", "on_watermark", "flush")
    ),
    *(
        ("repro.kvstores.lsm.store", f"LsmStore.{method}", "kvstores.lsm")
        for method in ("get", "put", "append", "delete", "flush", "multi_get",
                       "multi_append", "scan_prefix", "apply_write_batch")
    ),
    *(
        ("repro.serde.codec", function, "serde")
        for function in ("encode_varint", "decode_varint", "encode_bytes", "decode_bytes",
                         "encode_u32", "decode_u32", "encode_u64", "decode_u64",
                         "encode_i64", "decode_i64")
    ),
    *(
        ("repro.simenv.env", f"SimEnv.{method}", "simenv")
        for method in ("charge_cpu", "charge_read", "charge_write", "charge_network",
                       "charge_prefetch_wait")
    ),
    ("repro.storage.filesystem", "SimFileSystem.read", "storage"),
    ("repro.storage.filesystem", "SimFileSystem.append", "storage"),
    ("repro.recovery", "RecoveryManager.run", "recovery"),
    ("repro.recovery", "Checkpointer.maybe_checkpoint", "recovery"),
    *(
        ("repro.rescale.live", f"LiveMigration.{method}", "rescale")
        for method in ("__init__", "advance", "intercept", "drain_to_completion")
    ),
)

# Spans kept for writing out; the per-layer fold covers every span.
SPAN_CAP = 200_000

LAYERS = ("engine", "core", "kvstores.lsm", "serde", "simenv", "storage",
          "recovery", "rescale")


class Tracer:
    """Records spans and folds self time per span name as they close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        # Time inside a layer's outermost spans (nested same-layer spans
        # are not counted twice).
        self.layer_inclusive_s: dict[str, float] = {}
        self._layer_depth: dict[str, int] = {}
        self._stack: list[list[Any]] = []  # [name id, start, child seconds, span index]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self.origin = time.perf_counter()

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self.layer_inclusive_s.setdefault(layer, 0.0)
        self._layer_depth.setdefault(layer, 0)
        return len(self.names) - 1

    def _enter(self, nid: int) -> list[Any]:
        stack = self._stack
        index = -1
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        self._layer_depth[self.layers[nid]] += 1
        frame = [nid, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        nid, start, children, index = frame
        self._stack.pop()
        duration = end - start
        self.total_s[nid] += duration
        self.self_s[nid] += duration - children
        self.calls[nid] += 1
        self.spans_seen += 1
        if self._stack:
            self._stack[-1][2] += duration
        layer = self.layers[nid]
        depth = self._layer_depth[layer] - 1
        self._layer_depth[layer] = depth
        if depth == 0:
            self.layer_inclusive_s[layer] += duration
        if index >= 0:
            self.span_start[index] = start - self.origin
            self.span_end[index] = end - self.origin

    def wrap(self, fn: Any, name: str, layer: str) -> Any:
        nid = self.register(name, layer)
        enter, leave = self._enter, self._exit

        def spans_of(gen: Iterator[Any]) -> Iterator[Any]:
            while True:
                frame = enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                yield item

        @functools.wraps(fn)
        def traced_call(*args: Any, **kwargs: Any) -> Any:
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if isinstance(result, GeneratorType):
                return spans_of(result)
            return result

        return traced_call

    # ------------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for nid, seconds in enumerate(self.self_s):
            totals[self.layers[nid]] = totals.get(self.layers[nid], 0.0) + seconds
        return totals

    def layer_calls(self) -> dict[str, int]:
        totals = dict.fromkeys(LAYERS, 0)
        for nid, count in enumerate(self.calls):
            totals[self.layers[nid]] = totals.get(self.layers[nid], 0) + count
        return totals

    def named(self, name: str) -> int:
        return self.names.index(name)

    def dump(self, path: str) -> None:
        """Write the kept spans as TSV: index, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans kept {len(self.span_start)} of {self.spans_seen}\n")
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every entry point; restore on exit."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, f"{module_name}.{path}", layer))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, f"{module_name}.{attr}", layer)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        restore.append((loaded, name, original))
                        setattr(loaded, name, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
