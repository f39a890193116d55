"""Physical execution on simulated time.

Execution model (documented in DESIGN.md):

* every physical window-operator instance has its own
  :class:`~repro.simenv.SimEnv` (clock + ledger) and its own simulated
  filesystem/state store — states are never shared (§2.1);
* stages are assumed fully pipelined (the paper's workers run 16 task
  slots on 8 vCPUs): job completion time is the *maximum busy time* over
  all instances, not the sum;
* for latency runs, records arrive open-loop at a fixed rate and every
  instance is a single-server FIFO queue: a unit of work starts at
  ``max(arrival, previous completion)`` and its service time is the
  simulated time its processing charged.  Downstream work inherits the
  upstream completion time as its arrival — a queueing network driven by
  the same cost charges that produce throughput numbers;
* a sink record's latency is ``completion_wall - result_timestamp``
  (the window's end), matching the paper's event-time latency metric;
* throughput mode delivers records to the stateful operators in
  columnar batches of :data:`BATCH_RECORDS`; latency mode, runs under a
  :class:`~repro.rescale.skew.SkewController` and an in-flight live
  migration deliver one record per work unit.  The simulated ledger
  charges per record either way;
* the per-record router is compiled once per executor into one delivery
  closure per logical node, each calling its children's closures
  directly.  Closures capture only what the plan fixes; state that
  recovery or rescale replaces (sinks, latencies, the owner table, the
  instance lists, the live migration, the load tracker) is read from
  the executor at call time.

Failure modes surface as typed exceptions: :class:`StoreOOMError` (heap
backend), :class:`SimTimeoutError` (simulated-time budget exceeded) and
:class:`EngineOverloadError` (latency backlog diverged).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.topology import charge_link
from repro.engine.batch import RecordBatch, record_bytes
from repro.engine.joins import IntervalJoinOperator, JoinStateBackend
from repro.engine.operators import WindowOperator
from repro.engine.plan import LogicalNode, StreamEnvironment
from repro.errors import PlanError, ReproError, SimTimeoutError
from repro.faults import CRASH_RUNTIME_RECORD, CRASH_RUNTIME_WATERMARK
from repro.model import StreamRecord
from repro.rescale.controller import LoadObservation
from repro.rescale.keygroups import contiguous_owner_table, key_group_of
from repro.rescale.live import LiveMigration
from repro.rescale.migration import RescaleEvent, migrate
from repro.rescale.skew import GroupLoadTracker, SkewController, SplitDecision
from repro.simenv import MetricsLedger, MetricsSnapshot, SimEnv
from repro.storage.filesystem import SimFileSystem


# Records per columnar RecordBatch in throughput mode; 1 is exact
# per-tuple delivery (the reference the batch-parity tests compare to).
BATCH_RECORDS = 64


class EngineOverloadError(ReproError):
    """The arrival rate exceeds sustainable throughput (backlog diverged)."""


def _fan_out(targets: list):
    """One delivery callable that feeds every closure in ``targets``."""
    if len(targets) == 1:
        return targets[0]

    def fan_out(key, value, timestamp, arrival, origin):
        for deliver in targets:
            deliver(key, value, timestamp, arrival, origin)

    return fan_out


@dataclass
class PhysicalInstance:
    """One parallel instance of a window operator."""

    name: str
    env: SimEnv
    operator: WindowOperator
    wall_available: float = 0.0
    outbox: list[StreamRecord] = field(default_factory=list)
    cluster_node: int = 0  # hosting node id (0 when no cluster is configured)


@dataclass
class JobResult:
    """Everything the benchmark harness needs from one run."""

    sink_outputs: dict[str, list[Any]]
    latencies: list[float]
    job_seconds: float
    input_records: int
    metrics: MetricsSnapshot
    per_operator: dict[str, MetricsSnapshot]
    operator_stats: dict[str, dict[str, Any]]
    failure: str | None = None
    rescales: list[RescaleEvent] = field(default_factory=list)
    recoveries: list[Any] = field(default_factory=list)  # RecoveryEvent
    checkpoints: int = 0
    checkpoint_stats: list[Any] = field(default_factory=list)  # CheckpointStat
    # Cluster runs only: per-node utilization/traffic breakdown, keyed by
    # node name (empty for legacy single-machine runs).
    node_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    # Always-on keyed-work accounting (GroupLoadTracker.summary()):
    # records/bytes/busy seconds per key-group, per instance, per node.
    group_load: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Input records per simulated second."""
        return self.input_records / self.job_seconds if self.job_seconds > 0 else 0.0

    def p95_latency(self) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


class Executor:
    """Compiles a logical plan and pushes records through it."""

    def __init__(self, plan_env: StreamEnvironment) -> None:
        self._plan = plan_env
        self._children: dict[int, list[LogicalNode]] = {}
        for node in plan_env.nodes():
            for parent in node.parents:
                self._children.setdefault(parent.node_id, []).append(node)
        self._stateful_nodes = [
            n for n in plan_env.nodes() if n.kind in ("window", "interval_join")
        ]
        self._instances: dict[int, list[PhysicalInstance]] = {}
        self._sinks: dict[str, list[Any]] = {
            n.name: [] for n in plan_env.nodes() if n.kind == "sink"
        }
        self._latencies: list[float] = []
        # Ledgers/stats of instances retired by a scale-down, per node id.
        self._retired: dict[int, list[tuple[MetricsSnapshot, float, int]]] = {}
        self._rescales: list[RescaleEvent] = []
        self.current_parallelism = plan_env.parallelism * plan_env.workers
        self.records_ingested = 0
        # Authoritative per-key-group routing table (per-group epochs): a
        # live rescale flips entries one group at a time; an aborted live
        # rescale may leave a mixed assignment.
        self.group_owner: list[int] = contiguous_owner_table(
            plan_env.max_key_groups, self.current_parallelism
        )
        # Always-on per-key-group load accounting (records / state bytes
        # / busy seconds).  Pure-Python bookkeeping on the keyed routing
        # path: no simulated charges, so runs stay charge-identical.
        # Counters are global per group — they travel with the group
        # across live migrations; recovery builds a fresh executor (and
        # a fresh tracker) per restore.
        self.load_tracker = GroupLoadTracker(plan_env.max_key_groups)
        self._live: LiveMigration | None = None
        self._rescale_mode = "live"
        self._transfer_chunk_bytes: int | None = None
        self._transfer_queue_limit: int | None = None
        self._checkpointer: Any = None
        self._seed_rescale = True
        self._first_ts: float | None = None
        # Failover repointing: instance index -> hosting node, overriding
        # the cluster's static placement (a promoted standby serves its
        # dead owner's instances from the peer node).
        self.node_override: dict[int, int] = {}
        # Set by ChangelogReplication.bind(); feeds promote-mode rescales.
        self._replication: Any = None
        self._build_instances()
        self._compile_router()

    @property
    def migration_active(self) -> bool:
        """Whether a live state migration is currently in flight."""
        return self._live is not None and not self._live.done

    def cluster_node_of(self, index: int) -> int | None:
        """Hosting node id of instance ``index`` (None without a cluster).

        Consults :attr:`node_override` first, so a standby promotion can
        repoint a dead node's instances at the surviving peer without
        touching the placement of any other instance.
        """
        cluster = self._plan.cluster
        if cluster is None:
            return None
        override = self.node_override.get(index)
        return override if override is not None else cluster.place(index)

    def _new_instance(self, node: LogicalNode, index: int) -> PhysicalInstance:
        """Deploy one physical instance of a stateful node (fresh state)."""
        factory = self._plan.backend_factory
        env = SimEnv(cpu=self._plan.cpu, ssd=self._plan.ssd, faults=self._plan.faults)
        fs = SimFileSystem(env)
        name = f"{node.name}/p{index}"
        if node.kind == "interval_join":
            # Engine-managed buffers (MapState analogue) — held in a
            # JoinStateBackend so the key-group machinery (migrate,
            # LiveMigration, sharded checkpoints) moves them like any
            # other keyed state.
            backend = JoinStateBackend(env, max_key_groups=self._plan.max_key_groups)
            operator: Any = IntervalJoinOperator(
                lower=node.params["lower"],
                upper=node.params["upper"],
                join_fn=node.params["fn"],
                name=name,
            )
        else:
            backend = factory(env, fs, name, node.params["info"])
            operator = WindowOperator(
                assigner=node.params["assigner"],
                function=node.params["fn"],
                name=name,
                with_window=node.params.get("with_window", False),
            )
        instance = PhysicalInstance(
            name=name, env=env, operator=operator,
            cluster_node=self.cluster_node_of(index) or 0,
        )
        operator.open(env, backend, instance.outbox.append)
        return instance

    def _build_instances(self) -> None:
        # Join state is engine-managed; only window nodes need a KV
        # backend, so a join-only plan may run (and checkpoint) without
        # a backend_factory.
        if self._plan.backend_factory is None and any(
            node.kind == "window" for node in self._stateful_nodes
        ):
            raise PlanError("StreamEnvironment has no backend_factory")
        for node in self._stateful_nodes:
            self._instances[node.node_id] = [
                self._new_instance(node, i) for i in range(self.current_parallelism)
            ]

    # ------------------------------------------------------------------
    def run(
        self,
        arrival_rate: float | None = None,
        watermark_interval: int = 50,
        sim_timeout: float | None = None,
        overload_backlog: float = 600.0,
        watermark_delay: float = 0.0,
        rescale_policy: Any = None,
        records: list | None = None,
        start_count: int = 0,
        start_max_ts: float = float("-inf"),
        checkpointer: Any = None,
        rescale_mode: str = "live",
        transfer_chunk_bytes: int | None = None,
        transfer_queue_limit: int | None = None,
        seed_rescale_from_checkpoint: bool = True,
    ) -> JobResult:
        """Execute the job.

        Args:
            arrival_rate: records/second open-loop arrival rate; None runs
                in throughput mode (all records available at time 0).
            watermark_interval: records between watermark broadcasts.
            sim_timeout: abort with :class:`SimTimeoutError` once any
                instance's busy time exceeds this many simulated seconds
                (the paper kills jobs at 7200 s).
            overload_backlog: in latency mode, abort with
                :class:`EngineOverloadError` when any instance's queue
                backlog exceeds this many seconds.
            watermark_delay: bounded out-of-orderness — watermarks trail
                the maximum seen timestamp by this much, so records up to
                ``delay`` late are still on time.
            rescale_policy: an object with ``decide(LoadObservation) ->
                int | None`` (e.g. :class:`~repro.rescale.controller.
                ScheduledRescale` or ``RescaleController``), consulted at
                every watermark boundary; a non-None decision triggers a
                stop-the-world rescale to that parallelism.
            records: pre-materialized ``(source_node, value, timestamp)``
                list to run from instead of the plan's sources.  The
                recovery manager materializes sources once so replays see
                the identical record sequence.
            start_count: resume position into ``records`` (a checkpoint's
                record count); arrival times stay on the absolute grid.
            start_max_ts: the watermark state at the checkpoint.
            checkpointer: optional :class:`repro.recovery.Checkpointer`
                consulted at every watermark boundary.
            rescale_mode: ``"live"`` (default) migrates state per
                key-group while un-moved groups keep serving
                (:class:`~repro.rescale.live.LiveMigration`); ``"stw"``
                uses the stop-the-world path; ``"promote"`` runs the
                live path but seeds clean moved groups from warm standby
                replicas (requires changelog replication to be active).
            transfer_chunk_bytes: live-mode per-chunk byte budget.
            transfer_queue_limit: live-mode bound on records buffered per
                in-transit key-group before backpressure forces its
                cutover.
            seed_rescale_from_checkpoint: live-mode only — seed moved
                key-groups that are *clean* since the last checkpoint
                from that checkpoint's shards (checkpoint-read I/O)
                instead of streaming them live; requires a sharding
                ``checkpointer``.
        """
        if rescale_mode not in ("live", "stw", "promote"):
            raise PlanError(f"unknown rescale_mode {rescale_mode!r}")
        self._rescale_mode = rescale_mode
        self._transfer_chunk_bytes = transfer_chunk_bytes
        self._transfer_queue_limit = transfer_queue_limit
        self._checkpointer = checkpointer
        self._seed_rescale = seed_rescale_from_checkpoint
        faults = self._plan.faults
        if records is not None:
            merged = iter(records[start_count:])
        else:
            merged = self._merged_sources()
        count = start_count
        max_ts = start_max_ts
        arrival = 0.0
        failure: str | None = None
        self._last_busy = self._busy_sum()
        self._last_arrival = 0.0
        cluster = self._plan.cluster
        # Throughput mode delivers columnar batches; latency mode keeps
        # the per-record arrival axis (one-record batches there cut the
        # open-loop wall rate by about a third).  A SkewController places
        # key-groups by their measured busy time, which only per-record
        # units attribute exactly: a batch unit splits its time across
        # its groups by record count.  A limit of 1 is exact per-tuple
        # delivery.
        per_record = arrival_rate or isinstance(rescale_policy, SkewController)
        batch_limit = 1 if per_record else BATCH_RECORDS
        pending: list[tuple[LogicalNode, Any, float, int]] = []
        boundary_args = (
            arrival_rate, watermark_delay, sim_timeout, overload_backlog,
            rescale_policy, checkpointer, faults,
        )
        try:
            for source_node, value, timestamp in merged:
                if faults is not None:
                    faults.crash_point(CRASH_RUNTIME_RECORD, now_fn=self._busiest_clock)
                if arrival_rate:
                    arrival = count / arrival_rate
                if self._first_ts is None:
                    self._first_ts = timestamp
                # Source tasks are sharded round-robin over cluster nodes;
                # the record's first shuffle hop starts from its ingest node.
                origin = 0 if cluster is None else cluster.ingest_node(count)
                if batch_limit == 1 or self._live is not None:
                    # The live migration's intercept and advance hooks are
                    # per-record by contract.  Migrations start only at a
                    # watermark boundary, after the flush, so nothing is
                    # pending while one is in flight.
                    self._push(
                        source_node, StreamRecord(b"", value, timestamp), arrival, origin
                    )
                else:
                    pending.append((source_node, value, timestamp, origin))
                count += 1
                self.records_ingested = count
                if timestamp > max_ts:
                    max_ts = timestamp
                if self._live is not None:
                    # One chunk per transfer channel per ingested record:
                    # the migration interleaves with processing.
                    self._live.advance(arrival)
                    if self._live.done:
                        self._live = None
                if len(pending) >= batch_limit:
                    self._flush_pending(pending, arrival)
                if count % watermark_interval == 0:
                    # Deliver the partial batch first so triggers see every
                    # record before the watermark, as in per-tuple order.
                    if pending:
                        self._flush_pending(pending, arrival)
                    self._watermark_boundary(count, max_ts, arrival, *boundary_args)
            if pending:
                self._flush_pending(pending, arrival)
            self._finish(arrival)
        except SimTimeoutError:
            failure = "timeout"
        except EngineOverloadError:
            failure = "overload"
        finally:
            # The router's closures refer back to the executor: dropping
            # them once the run ends (or crashes) lets reference counting
            # free the executor and its stores, not the cycle collector.
            self._emit.clear()
        return self._result(count, failure)

    def _flush_pending(
        self, pending: list[tuple[LogicalNode, Any, float, int]], arrival: float
    ) -> None:
        """Deliver buffered source rows as per-source-node record runs."""
        start = 0
        n = len(pending)
        while start < n:
            node = pending[start][0]
            end = start + 1
            while end < n and pending[end][0] is node:
                end += 1
            rows = pending[start:end]
            batch = RecordBatch(
                [b""] * len(rows),
                [row[1] for row in rows],
                [row[2] for row in rows],
                [row[3] for row in rows],
            )
            self._push_batch(node, batch, arrival)
            start = end
        pending.clear()

    def _watermark_boundary(
        self,
        count: int,
        max_ts: float,
        arrival: float,
        arrival_rate: float | None,
        watermark_delay: float,
        sim_timeout: float | None,
        overload_backlog: float,
        rescale_policy,
        checkpointer,
        faults,
    ) -> None:
        self._broadcast_watermark(max_ts - watermark_delay, arrival)
        if faults is not None:
            faults.crash_point(CRASH_RUNTIME_WATERMARK, now_fn=self._busiest_clock)
        self._check_limits(sim_timeout, arrival_rate, arrival, overload_backlog)
        # Policy and checkpoints wait for an in-flight migration to
        # settle: decide() is not even consulted, so scheduled thresholds
        # are not consumed mid-flight.
        if rescale_policy is not None and self._live is None:
            busy = self._busy_sum()
            utilization = None
            if arrival_rate and arrival > self._last_arrival:
                n = max(1, self.current_parallelism)
                utilization = (busy - self._last_busy) / n / (arrival - self._last_arrival)
            # One signal path: the per-instance backlog breakdown feeds
            # the SkewController, its max is the aggregate the
            # RescaleController has always seen.
            backlogs = self._instance_backlogs(arrival, arrival_rate, max_ts)
            observation = LoadObservation(
                record_count=count,
                parallelism=self.current_parallelism,
                utilization=utilization,
                backlog_seconds=max(backlogs) if backlogs else 0.0,
                per_instance_backlog=tuple(backlogs),
                owner_table=tuple(self.group_owner),
                group_busy=tuple(self.load_tracker.group_busy),
            )
            self._last_busy, self._last_arrival = busy, arrival
            target = rescale_policy.decide(observation)
            if isinstance(target, SplitDecision):
                table = list(target.table)
                if table != self.group_owner:
                    self.rebalance_to(
                        table, arrival=arrival, at_record=count,
                        hot_groups=list(target.hot_groups),
                    )
            elif target is not None and target != self.current_parallelism:
                self.rescale_to(target, arrival=arrival, at_record=count)
        if checkpointer is not None and self._live is None:
            checkpointer.maybe_checkpoint(self, count, max_ts, rescale_policy)

    # ------------------------------------------------------------------
    def rescale_to(
        self, new_parallelism: int, arrival: float = 0.0, at_record: int = 0
    ) -> RescaleEvent:
        """Rescale to ``new_parallelism``; the event is recorded on the
        job result.

        In ``"live"`` mode (the default) this *starts* an asynchronous
        per-key-group migration (:mod:`repro.rescale.live`) that the run
        loop drives forward one chunk batch per record; ``"stw"`` runs
        the whole stop-the-world migration before returning
        (:mod:`repro.rescale.migration`).
        """
        if self._rescale_mode in ("live", "promote"):
            live = LiveMigration(
                self, new_parallelism, arrival=arrival, at_record=at_record,
                chunk_bytes=self._transfer_chunk_bytes,
                queue_limit=self._transfer_queue_limit,
                seed_source=self._live_seed_source(),
            )
            self._rescales.append(live.event)
            if not live.done:
                self._live = live
            return live.event
        event = migrate(self, new_parallelism, arrival=arrival, at_record=at_record)
        self._rescales.append(event)
        return event

    def rebalance_to(
        self,
        table: list[int],
        arrival: float = 0.0,
        at_record: int = 0,
        hot_groups: list[int] | None = None,
    ) -> RescaleEvent:
        """Re-place key-groups onto an explicit owner table (skew split).

        Parallelism is unchanged; only key-groups whose owner differs
        between the current routing table and ``table`` move, via the
        same live per-group machinery as a rescale (drain once, bounded
        buffer-and-replay, per-group cutover, partial rollback on
        faults).  Used by the
        :class:`~repro.rescale.skew.SkewController`; works under any
        ``rescale_mode`` (a split is inherently per-group, so there is
        no stop-the-world variant)."""
        live = LiveMigration(
            self, self.current_parallelism, arrival=arrival, at_record=at_record,
            chunk_bytes=self._transfer_chunk_bytes,
            queue_limit=self._transfer_queue_limit,
            seed_source=(
                self._live_seed_source()
                if self._rescale_mode in ("live", "promote")
                else None
            ),
            target_table=table,
            reason="skew-split",
            hot_groups=hot_groups,
        )
        self._rescales.append(live.event)
        if not live.done:
            self._live = live
        return live.event

    def _live_seed_source(self) -> Any:
        """Where a live migration may seed clean moved groups from."""
        if self._rescale_mode == "promote":
            # Rescale-by-replica-promotion: clean moved groups land
            # from the peer's warm standby copy instead of the
            # checkpoint store or the owner's hot path.
            if self._replication is not None:
                return self._replication.seed_source()
            return None
        if self._seed_rescale and self._checkpointer is not None:
            seed_fn = getattr(self._checkpointer, "seed_source", None)
            if seed_fn is not None:
                return seed_fn()
        return None

    def rebuild_for_restore(self, parallelism: int) -> None:
        """Redeploy all stateful nodes at ``parallelism`` with fresh state.

        Recovery builds the post-crash executor with this before loading
        checkpointed snapshots into the (empty) instances: the checkpoint
        dictates the parallelism, not the plan's default.
        """
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                backend = instance.operator.backend
                if backend is not None:
                    backend.close()
            self._instances[node.node_id] = [
                self._new_instance(node, i) for i in range(parallelism)
            ]
        self.current_parallelism = parallelism
        self.group_owner = contiguous_owner_table(
            self._plan.max_key_groups, parallelism
        )

    def _busiest_clock(self) -> float:
        return max(
            (inst.env.clock.now for insts in self._instances.values() for inst in insts),
            default=0.0,
        )

    def _busy_sum(self) -> float:
        """Total busy time over live and retired instances (monotonic)."""
        live = sum(
            inst.env.clock.now
            for insts in self._instances.values()
            for inst in insts
        )
        retired = sum(
            busy for reports in self._retired.values() for _s, busy, _r in reports
        )
        return live + retired

    def _instance_backlogs(
        self, arrival: float, arrival_rate: float | None, max_ts: float
    ) -> list[float]:
        """Source-queue backlog estimate, per physical instance index.

        Latency mode has a real arrival axis: an instance's backlog is
        how far its completion horizon trails the current arrival (max
        over the stateful operators sharing the index).  Throughput mode
        has no arrival clock, so the event-time span ingested so far
        serves as the wall-time proxy: busy time beyond that span means
        the instance cannot keep up with its sources in real time.  The
        aggregate the :class:`~repro.rescale.controller.RescaleController`
        watches is exactly ``max`` of this list; the per-index breakdown
        lets the :class:`~repro.rescale.skew.SkewController` see *which*
        instance is pinned — one signal path for both.
        """
        width = max((len(insts) for insts in self._instances.values()), default=0)
        if width == 0:
            return []
        if arrival_rate:
            per_index = [float("-inf")] * width
            for insts in self._instances.values():
                for index, inst in enumerate(insts):
                    value = inst.wall_available - arrival
                    if value > per_index[index]:
                        per_index[index] = value
            return per_index
        if self._first_ts is None or max_ts == float("-inf"):
            return []
        span = max(0.0, max_ts - self._first_ts)
        per_index = [0.0] * width
        for insts in self._instances.values():
            for index, inst in enumerate(insts):
                if inst.env.clock.now > per_index[index]:
                    per_index[index] = inst.env.clock.now
        return [max(0.0, value - span) for value in per_index]

    def _merged_sources(self):
        """Merge all sources in timestamp order."""
        streams = []
        for idx, (node, records) in enumerate(self._plan.sources()):
            iterator = iter(records)
            streams.append((idx, node, iterator))
        heap = []
        for idx, node, iterator in streams:
            first = next(iterator, None)
            if first is not None:
                value, ts = first
                heap.append((ts, idx, value, node, iterator))
        heapq.heapify(heap)
        while heap:
            ts, idx, value, node, iterator = heapq.heappop(heap)
            yield node, value, ts
            nxt = next(iterator, None)
            if nxt is not None:
                nvalue, nts = nxt
                heapq.heappush(heap, (nts, idx, nvalue, node, iterator))

    # ------------------------------------------------------------------
    # per-record router: one delivery closure per logical node taking
    # ``(key, value, timestamp, arrival, origin)``.  Closures read what
    # recovery or rescale replaces from ``self`` at call time.
    # ------------------------------------------------------------------
    def _compile_router(self) -> None:
        # Plan nodes are created parents first, so reversed order compiles
        # every child before its parents.
        deliver: dict[int, Any] = {}
        self._emit: dict[int, Any] = {}  # node id -> delivery to its children
        for node in reversed(self._plan.nodes()):
            children = self._children.get(node.node_id, [])
            emit = _fan_out([deliver[child.node_id] for child in children])
            self._emit[node.node_id] = emit
            if node.kind != "source":
                deliver[node.node_id] = self._compile_node(node, emit)

    def _compile_node(self, node: LogicalNode, emit):
        """The delivery closure of one node; ``emit`` feeds its children.

        ``origin`` is the cluster node the record currently lives on (its
        ingest node, or the node of the instance that emitted it);
        stateless transforms run where the record already is, so only the
        keyed hand-off to a stateful instance can cross the network.
        """
        kind = node.kind
        fn = node.params.get("fn")
        if kind == "map":
            def deliver(key, value, timestamp, arrival, origin):
                emit(key, fn(value), timestamp, arrival, origin)
        elif kind == "filter":
            def deliver(key, value, timestamp, arrival, origin):
                if fn(value):
                    emit(key, value, timestamp, arrival, origin)
        elif kind == "flat_map":
            def deliver(key, value, timestamp, arrival, origin):
                for out in fn(value):
                    emit(key, out, timestamp, arrival, origin)
        elif kind == "key_by":
            def deliver(_key, value, timestamp, arrival, origin):
                key = fn(value)
                if not isinstance(key, bytes):
                    raise PlanError(f"key_by {node.name} must return bytes, got {type(key)}")
                emit(key, value, timestamp, arrival, origin)
        elif kind == "union":
            deliver = emit
        elif kind == "sink":
            name = node.name

            def deliver(key, value, timestamp, arrival, origin):
                self._sinks[name].append(value)
                self._latencies.append(max(0.0, arrival - timestamp))
        elif kind in ("window", "interval_join"):
            deliver = self._compile_keyed(node, emit)
        else:  # pragma: no cover - sources have no inbound records
            raise PlanError(f"cannot handle node kind {kind}")
        return deliver

    def _compile_keyed(self, node: LogicalNode, emit):
        """Route one record to its owning instance as one work unit.

        The unit accounting is :meth:`_run_unit`'s, inline: the same float
        operations in the same order, so the simulated results match.
        """
        node_id = node.node_id
        max_groups = self._plan.max_key_groups
        cluster = self._plan.cluster
        label = f"net/shuffle/{node.name}"

        def deliver(key, value, timestamp, arrival, origin):
            record = StreamRecord(key, value, timestamp)
            live = self._live
            if live is not None and live.intercept(node, record, arrival):
                return  # buffered: replays at the new owner on cutover
            group = key_group_of(key, max_groups)
            inst_index = self.group_owner[group]
            instance = self._instances[node_id][inst_index]
            host = instance.cluster_node
            clock = instance.env.clock
            start = clock.now
            if cluster is not None and origin != host:
                # Cross-node shuffle hop: the receive wait occupies the
                # destination instance (charged inside its service time).
                # Shuffle channels stay open and pipelined, so a record
                # pays wire bandwidth only (n_requests=0): per-record
                # round-trip latency would serialize throughput in a way
                # no streaming shuffle does.
                charge_link(
                    instance.env, cluster.network, origin, host,
                    cluster.network.record_overhead_bytes + len(key),
                    label, self._plan.faults, n_requests=0,
                )
            instance.operator.process(record)
            service = clock.now - start
            completion = max(arrival, instance.wall_available) + service
            instance.wall_available = completion
            outbox = instance.outbox
            if outbox:
                emitted = list(outbox)
                outbox.clear()
                for out in emitted:
                    emit(out.key, out.value, out.timestamp, completion, host)
            self.load_tracker.record(
                group, inst_index, host, 1, len(key) + record_bytes(value), service,
            )

        return deliver

    def _push(
        self, node: LogicalNode, record: StreamRecord, arrival: float, origin: int = 0
    ) -> None:
        """Deliver one record emitted by ``node`` to its children."""
        self._emit[node.node_id](
            record.key, record.value, record.timestamp, arrival, origin
        )

    # ------------------------------------------------------------------
    # batched hot path: columnar batches flow through stateless
    # transforms without boxing records; rows materialize only at the
    # keyed hand-off to a stateful instance (split per key-group there)
    # or at a sink.
    # ------------------------------------------------------------------
    def _push_batch(self, node: LogicalNode, batch: RecordBatch, arrival: float) -> None:
        for child in self._children.get(node.node_id, []):
            self._handle_batch(child, batch, arrival)

    def _handle_batch(self, node: LogicalNode, batch: RecordBatch, arrival: float) -> None:
        kind = node.kind
        if kind == "map":
            fn = node.params["fn"]
            self._push_batch(
                node, batch.with_values([fn(v) for v in batch.values]), arrival
            )
        elif kind == "filter":
            fn = node.params["fn"]
            kept = [i for i, v in enumerate(batch.values) if fn(v)]
            if kept:
                if len(kept) == len(batch):
                    self._push_batch(node, batch, arrival)
                else:
                    self._push_batch(node, batch.take(kept), arrival)
        elif kind == "flat_map":
            fn = node.params["fn"]
            keys: list[bytes] = []
            values: list[Any] = []
            timestamps: list[float] = []
            origins: list[int] = []
            in_keys = batch.keys
            in_ts = batch.timestamps
            in_origins = batch.origins
            for i, v in enumerate(batch.values):
                for out in fn(v):
                    keys.append(in_keys[i])
                    values.append(out)
                    timestamps.append(in_ts[i])
                    origins.append(in_origins[i])
            if values:
                self._push_batch(
                    node, RecordBatch(keys, values, timestamps, origins), arrival
                )
        elif kind == "key_by":
            fn = node.params["fn"]
            keys = []
            for v in batch.values:
                key = fn(v)
                if not isinstance(key, bytes):
                    raise PlanError(
                        f"key_by {node.name} must return bytes, got {type(key)}"
                    )
                keys.append(key)
            self._push_batch(node, batch.with_keys(keys), arrival)
        elif kind == "union":
            self._push_batch(node, batch, arrival)
        elif kind in ("window", "interval_join"):
            self._deliver_batch(node, batch, arrival)
        elif kind == "sink":
            self._sinks[node.name].extend(batch.values)
            latencies = self._latencies
            for ts in batch.timestamps:
                latencies.append(max(0.0, arrival - ts))
        else:  # pragma: no cover - source has no inbound records
            raise PlanError(f"cannot handle node kind {kind}")

    def _deliver_batch(self, node: LogicalNode, batch: RecordBatch, arrival: float) -> None:
        """Split a batch at key-group boundaries and hand each routed
        instance its rows (arrival order preserved within an instance).

        One work unit per (batch, instance): remote rows pay their wire
        charge first — all charges land on the instance's own env, so
        per-category charge order matches per-tuple delivery.
        """
        instances = self._instances[node.node_id]
        owner = self.group_owner
        max_groups = self._plan.max_key_groups
        keys = batch.keys
        order: list[int] = []
        grouped: dict[int, list[int]] = {}
        row_group: list[int] = []
        for i, key in enumerate(keys):
            group = key_group_of(key, max_groups)
            row_group.append(group)
            inst_index = owner[group]
            rows = grouped.get(inst_index)
            if rows is None:
                grouped[inst_index] = rows = []
                order.append(inst_index)
            rows.append(i)
        values = batch.values
        timestamps = batch.timestamps
        origins = batch.origins
        cluster = self._plan.cluster
        for inst_index in order:
            instance = instances[inst_index]
            rows = grouped[inst_index]
            records = [
                StreamRecord(keys[i], values[i], timestamps[i]) for i in rows
            ]
            if cluster is not None:
                overhead = cluster.network.record_overhead_bytes
                remote = [
                    (origins[i], overhead + len(keys[i]))
                    for i in rows
                    if origins[i] != instance.cluster_node
                ]
            else:
                remote = ()

            def thunk(inst=instance, recs=records, hops=remote):
                for org, wire in hops:
                    charge_link(
                        inst.env, cluster.network, org, inst.cluster_node, wire,
                        f"net/shuffle/{node.name}", self._plan.faults,
                        n_requests=0,
                    )
                inst.operator.process_batch(recs)

            service = self._run_unit(node, instance, arrival, thunk)
            per_group: dict[int, list[int]] = {}
            for i in rows:
                tally = per_group.get(row_group[i])
                if tally is None:
                    per_group[row_group[i]] = tally = [0, 0]
                tally[0] += 1
                tally[1] += len(keys[i]) + record_bytes(values[i])
            self.load_tracker.record_many(
                inst_index, instance.cluster_node,
                [(g, n, b) for g, (n, b) in sorted(per_group.items())], service,
            )

    def _run_unit(
        self, node: LogicalNode, instance: PhysicalInstance, arrival: float, thunk
    ) -> float:
        start = instance.env.clock.now
        thunk()
        service = instance.env.clock.now - start
        instance.wall_available = max(arrival, instance.wall_available) + service
        completion = instance.wall_available
        if instance.outbox:
            emitted = list(instance.outbox)
            instance.outbox.clear()
            for out in emitted:
                self._push(node, out, completion, origin=instance.cluster_node)
        return service

    def _broadcast_watermark(self, watermark: float, arrival: float) -> None:
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                self._run_unit(
                    node, instance, arrival,
                    lambda inst=instance: inst.operator.on_watermark(watermark),
                )

    def _finish(self, arrival: float) -> None:
        # End of input: an in-flight migration must settle before the
        # final triggers fire, or buffered records would be lost.
        if self._live is not None:
            self._live.drain_to_completion(arrival)
            self._live = None
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                self._run_unit(
                    node, instance, arrival,
                    lambda inst=instance: inst.operator.finish(),
                )

    def _check_limits(
        self,
        sim_timeout: float | None,
        arrival_rate: float | None,
        arrival: float,
        overload_backlog: float,
    ) -> None:
        if sim_timeout is not None:
            busiest = max(
                (inst.env.clock.now for insts in self._instances.values() for inst in insts),
                default=0.0,
            )
            if busiest > sim_timeout:
                raise SimTimeoutError(f"busy time {busiest:.0f}s exceeds {sim_timeout:.0f}s")
        if arrival_rate:
            backlog = max(
                (inst.wall_available - arrival
                 for insts in self._instances.values() for inst in insts),
                default=0.0,
            )
            if backlog > overload_backlog:
                raise EngineOverloadError(f"backlog {backlog:.0f}s at rate {arrival_rate}")

    # ------------------------------------------------------------------
    def _result(self, count: int, failure: str | None) -> JobResult:
        total = MetricsLedger()
        per_operator: dict[str, MetricsSnapshot] = {}
        operator_stats: dict[str, dict[str, Any]] = {}
        cluster = self._plan.cluster
        # Per cluster node: summed busy time, busiest instance, instance
        # count, and network traffic — feeds the node-capacity job model.
        node_busy: dict[int, float] = {}
        node_peak: dict[int, float] = {}
        node_count: dict[int, int] = {}
        node_net: dict[int, tuple[float, int]] = {}
        job_seconds = 0.0
        for node in self._stateful_nodes:
            node_ledger = MetricsLedger()
            stats: dict[str, Any] = {"results": 0, "memory_bytes": 0}
            for instance in self._instances[node.node_id]:
                snapshot = instance.env.ledger.snapshot()
                node_ledger.merge(snapshot)
                total.merge(snapshot)
                job_seconds = max(job_seconds, instance.env.clock.now)
                if cluster is not None:
                    host = instance.cluster_node
                    busy = instance.env.clock.now
                    node_busy[host] = node_busy.get(host, 0.0) + busy
                    node_peak[host] = max(node_peak.get(host, 0.0), busy)
                    node_count[host] = node_count.get(host, 0) + 1
                    secs, nbytes = node_net.get(host, (0.0, 0))
                    node_net[host] = (
                        secs + snapshot.network_seconds,
                        nbytes + snapshot.network_bytes,
                    )
                stats["results"] += instance.operator.results_emitted
                backend = instance.operator.backend
                stats["memory_bytes"] += getattr(backend, "memory_bytes", 0)
                for attr in ("compaction_count", "disk_bytes", "prefetch_loads", "prefetch_hits"):
                    value = getattr(backend, attr, None)
                    if value is not None:
                        stats[attr] = stats.get(attr, 0) + value
            # Instances retired by a scale-down still contributed work.
            for snapshot, busy, results in self._retired.get(node.node_id, []):
                node_ledger.merge(snapshot)
                total.merge(snapshot)
                job_seconds = max(job_seconds, busy)
                stats["results"] += results
            loads = stats.get("prefetch_loads", 0)
            if loads:
                stats["prefetch_hit_ratio"] = stats.get("prefetch_hits", 0) / loads
            per_operator[node.name] = node_ledger.snapshot()
            operator_stats[node.name] = stats
        node_stats: dict[str, dict[str, Any]] = {}
        if cluster is not None:
            # Node-capacity job time: a node with more runnable instances
            # than cores cannot overlap them all, so it finishes no sooner
            # than its total work divided by its cores — and never sooner
            # than its busiest single (sequential) instance.  Job time is
            # the slowest node, not a bare max-over-instances.
            for host, machine in enumerate(cluster.nodes):
                busy = node_busy.get(host, 0.0)
                peak = node_peak.get(host, 0.0)
                node_seconds = max(peak, busy / machine.cores)
                job_seconds = max(job_seconds, node_seconds)
                secs, nbytes = node_net.get(host, (0.0, 0))
                node_stats[machine.name] = {
                    "instances": node_count.get(host, 0),
                    "cores": machine.cores,
                    "busy_seconds": busy,
                    "node_seconds": node_seconds,
                    "network_seconds": secs,
                    "network_bytes": nbytes,
                    "keyed_records": self.load_tracker.node_records.get(host, 0),
                    "keyed_busy_seconds": self.load_tracker.node_busy.get(host, 0.0),
                }
            for entry in node_stats.values():
                entry["utilization"] = (
                    entry["busy_seconds"] / (entry["cores"] * job_seconds)
                    if job_seconds > 0 else 0.0
                )
        return JobResult(
            sink_outputs=dict(self._sinks),
            latencies=self._latencies,
            job_seconds=job_seconds,
            input_records=count,
            metrics=total.snapshot(),
            per_operator=per_operator,
            operator_stats=operator_stats,
            failure=failure,
            rescales=list(self._rescales),
            node_stats=node_stats,
            group_load=self.load_tracker.summary(),
        )
