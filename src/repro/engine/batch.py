"""Columnar record batches for the engine's hot path.

A :class:`RecordBatch` carries ``n`` records as four parallel arrays —
keys, values, timestamps, origins — instead of ``n`` boxed
:class:`~repro.model.StreamRecord` objects.  Stateless transforms (map,
filter, flat_map, key_by) rewrite single columns and share the rest, so
a record materializes as a ``StreamRecord`` only at a stateful operator
or a sink.  Batching is purely a real-time optimization: the simulated
cost ledger charges per record exactly as the per-tuple path does.

The runtime splits batches at two boundaries:

* **key-group boundaries** — rows are regrouped per routed physical
  instance before delivery (each instance owns its own clock/ledger);
* **watermark boundaries** — a watermark due mid-batch flushes the
  partial batch first, so timer firing order is identical to per-tuple
  execution (see ``Executor.run``).
"""

from __future__ import annotations

from typing import Any


def record_bytes(value: Any) -> int:
    """Cheap per-record payload estimate (per-key-group load accounting)."""
    if hasattr(value, "payload_bytes"):
        return int(value.payload_bytes)
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    return 64


class RecordBatch:
    """A fixed run of records in columnar form.

    ``origins[i]`` is the cluster node record ``i`` currently lives on
    (its ingest node, or the node of the instance that emitted it) —
    the same routing input the per-record router threads through its
    delivery closures (``Executor._compile_node``).
    """

    __slots__ = ("keys", "values", "timestamps", "origins")

    def __init__(
        self,
        keys: list[bytes],
        values: list[Any],
        timestamps: list[float],
        origins: list[int],
    ) -> None:
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self.origins = origins

    def __len__(self) -> int:
        return len(self.values)

    def take(self, indices: list[int]) -> "RecordBatch":
        """A new batch holding the selected rows, in ``indices`` order."""
        keys = self.keys
        values = self.values
        timestamps = self.timestamps
        origins = self.origins
        return RecordBatch(
            [keys[i] for i in indices],
            [values[i] for i in indices],
            [timestamps[i] for i in indices],
            [origins[i] for i in indices],
        )

    def with_values(self, values: list[Any]) -> "RecordBatch":
        """Same rows with the value column replaced (map)."""
        return RecordBatch(self.keys, values, self.timestamps, self.origins)

    def with_keys(self, keys: list[bytes]) -> "RecordBatch":
        """Same rows with the key column replaced (key_by)."""
        return RecordBatch(keys, self.values, self.timestamps, self.origins)
