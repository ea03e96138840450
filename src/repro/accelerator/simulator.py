"""Full NOC-DNA simulation: DNN inference as real NoC traffic (Fig. 7).

For every weighted layer, the memory controllers ship each sampled
neuron task to its PE as one packet per k*k-sized chunk (half-half
flitised, ordered by the MC's ordering unit); the PE decodes the
delivered payload bits, accumulates the partial MACs, and returns a
single-flit response to its serving MC once the final chunk has
arrived.  Layers run back-to-back with a barrier in between — the
paper's layer-level interval (Sec. IV-C-3).

The run verifies functional correctness end-to-end: every MAC computed
from *transmitted bits* must equal the reference computed from the
originally encoded words, which proves affiliated-ordering needs no
recovery and separated-ordering's index recovery works.

Schedule once, score many
-------------------------

NoC timing is payload-independent: routing, arbitration and credits
look at a packet's source, destination and flit count, never at its
bits.  Ordering (O0/O1/O2) and data format change only the bits, so
the variants of a Fig. 12 mesh all move the same flits over the same
links in the same cycles.  Inside a :func:`schedule_sharing` block —
:class:`repro.experiments.CampaignRunner` opens one around its inline
(``workers=1``) run — a run that simulates the network records a
:class:`LinkSchedule`: per link, its flits in traversal order, plus the
run's cycles, hops, latencies, per-window totals and network counters.
A later run in the block whose *timing key* is equal skips the network
entirely.  It still encodes, decodes and MAC-verifies its own tasks and
builds its own responses, then scores its payloads over the recorded
schedule (gather, XOR, popcount).  Its result is identical to a full
simulation's, field for field.

The key is computed on every run from the packets it is about to
inject (per window, the release-ordered source, destination, flit
count, release offset, task and chunk of every request), together with
the NoC structure except the link width, the core, and the response
and drain settings.  A run always simulates when:

* it is outside a :func:`schedule_sharing` block (direct
  :func:`run_model_on_noc` calls, the process-per-job supervisor, the
  socket service);
* a trace collector is attached, the weight cache is on, or the NoC
  records header bits or injection links;
* a method of :class:`~repro.noc.network.Network`, its routers or its
  interfaces has been replaced at run time (an instrumenting profiler,
  a test double), since a shared run would bypass the replacement;
* no earlier run in the block left a schedule with an equal key.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

import repro.bits as bits
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.flitize import EncodedInputs, EncodedTask, TaskCodec
from repro.accelerator.mapping import Placement, make_placement
from repro.accelerator.orderer import OrderingUnit
from repro.accelerator.tasks import (
    LayerTasks,
    NeuronTask,
    extract_tasks,
    split_task,
)
from repro.bits.formats import DataFormat, Float32Format
from repro.bits.lanes import lane_fast_path
from repro.bits.popcount import POPCOUNT_LUT
from repro.obs.metrics import active_registry
from repro.dnn.models import ModelSpec
from repro.dnn.quantize import tensor_format
from repro.noc.flit import Flit, Packet, make_packet
from repro.noc.interface import NetworkInterface
from repro.noc.network import (
    Network,
    NoCConfig,
    SimulationTimeout,
    default_core,
)
from repro.noc.router import Router

__all__ = [
    "LayerSummary",
    "RunResult",
    "LinkSchedule",
    "ScheduleScope",
    "schedule_sharing",
    "AcceleratorSimulator",
    "run_model_on_noc",
]


@dataclass(frozen=True)
class LayerSummary:
    """Per-layer traffic and BT accounting.

    Attributes:
        layer_name: e.g. "conv1".
        n_tasks: neuron tasks simulated (after sampling).
        total_neurons: tasks the full layer would have.
        packets: packets carried (request chunks + responses).
        flits: flits injected for this layer.
        bit_transitions: NoC-wide BT delta attributed to this layer.
        cycles: cycles the layer's barrier window took.
    """

    layer_name: str
    n_tasks: int
    total_neurons: int
    packets: int
    flits: int
    bit_transitions: int
    cycles: int

    def to_dict(self) -> dict:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LayerSummary":
        return cls(**data)


@dataclass
class RunResult:
    """Outcome of one accelerator simulation.

    Attributes:
        config: the experiment configuration.
        total_bit_transitions: Fig. 8 NoC-wide sum over the whole run.
        total_cycles: inference latency in cycles.
        flit_hops: total link traversals.
        layers: per-layer summaries.
        tasks_verified: tasks whose NoC-computed MAC matched reference.
        tasks_total: tasks simulated.
        mean_packet_latency: average packet latency in cycles.
        ordering_latency_cycles: total cycles spent in ordering units
            (informational; hidden from the critical path by default).
        per_link: link-name -> accumulated BTs on that link (the
            Fig. 8 per-recorder breakdown; feeds the campaign engine's
            per-link pivots).
        steps_executed: cycles the network actually stepped (on the
            event core ``steps_executed <= total_cycles`` because idle
            cycles are fast-forwarded over).
        idle_cycles_skipped: idle cycles the event core jumped without
            stepping (0 on the stepped reference core).
        metrics: flat observability counter snapshot (``event.*``,
            ``router.*``, ``codec.*`` families — see
            :mod:`repro.obs.metrics`).  Deterministic simulation facts,
            filled unconditionally: identical whether or not a metrics
            registry is enabled and however many sweep workers ran.
    """

    config: AcceleratorConfig
    total_bit_transitions: int
    total_cycles: int
    flit_hops: int
    layers: list[LayerSummary]
    tasks_verified: int
    tasks_total: int
    mean_packet_latency: float
    ordering_latency_cycles: int
    per_link: dict[str, int] = field(default_factory=dict)
    steps_executed: int = 0
    idle_cycles_skipped: int = 0
    metrics: dict[str, int] = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        return self.tasks_verified == self.tasks_total

    @property
    def transitions_per_flit_hop(self) -> float:
        if self.flit_hops == 0:
            return 0.0
        return self.total_bit_transitions / self.flit_hops

    def to_dict(self) -> dict:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`.

        The campaign result store persists run results as JSONL, so
        the dict form nests the config and per-layer summaries as
        plain dicts.
        """
        return {
            "config": self.config.to_dict(),
            "total_bit_transitions": self.total_bit_transitions,
            "total_cycles": self.total_cycles,
            "flit_hops": self.flit_hops,
            "layers": [layer.to_dict() for layer in self.layers],
            "tasks_verified": self.tasks_verified,
            "tasks_total": self.tasks_total,
            "mean_packet_latency": self.mean_packet_latency,
            "ordering_latency_cycles": self.ordering_latency_cycles,
            "per_link": dict(self.per_link),
            "steps_executed": self.steps_executed,
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        kwargs = dict(data)
        kwargs["config"] = AcceleratorConfig.from_dict(kwargs["config"])
        kwargs["layers"] = [
            LayerSummary.from_dict(layer) for layer in kwargs["layers"]
        ]
        # Records persisted before per-link recording default to empty.
        kwargs.setdefault("per_link", {})
        # Records persisted before the observability layer default to
        # "nothing measured".
        kwargs.setdefault("steps_executed", 0)
        kwargs.setdefault("idle_cycles_skipped", 0)
        kwargs.setdefault("metrics", {})
        return cls(**kwargs)


class _PendingQueue:
    """Packets waiting for their release cycle (ordering/compute delay).

    A min-heap keyed by ``(release_cycle, sequence)``: the drain loop
    peeks the earliest release in O(1) instead of re-scanning every
    pending packet each cycle.  The monotonic sequence preserves push
    order among equal release cycles.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Packet]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, release_cycle: int, packet: Packet) -> None:
        heappush(self._heap, (release_cycle, next(self._seq), packet))

    def next_release(self) -> int:
        """Earliest release cycle; only valid when non-empty."""
        return self._heap[0][0]

    def pop(self) -> Packet:
        """Remove and return the earliest-release packet."""
        return heappop(self._heap)[2]


@dataclass
class _TaskRecord:
    """Simulator-side bookkeeping for one in-flight neuron task."""

    task: NeuronTask
    reference: float
    pe: int
    mc: int
    n_chunks: int
    encoded: dict[int, EncodedTask | EncodedInputs] = field(
        default_factory=dict
    )
    # Arrival-plane fast path: original-order words recovered from the
    # encoded payloads in layer-batched decode passes at encode time
    # (decode is a pure function of the encoded object, so pre-decoding
    # is bit-identical to decoding at arrival).  Keyed by chunk index:
    # full chunks map to (input_words, weight_words, bias), input-only
    # chunks to the input word row.  Consumed (popped) by ``_deliver``.
    decoded: dict[int, object] = field(default_factory=dict)
    partials: dict[int, float] = field(default_factory=dict)
    computed: float | None = None
    response_received: bool = False
    # Position in the run: barrier window index and task order within
    # it (a response's send ordinal is derived from these).
    window: int = 0
    ordinal: int = 0
    # Wire payload of the single-flit response, once computed.
    response: int | None = None


@dataclass
class _ChunkJob:
    """One chunk's encode work order inside ``_encode_window``.

    Phase 1 fills everything but ``encoded`` in task/chunk order;
    phase 2 (the codec pass) fills ``encoded`` — batched across the
    layer or chunk by chunk; phase 3 assigns release offsets in the
    original order.  After that the job is the chunk's request packet
    in waiting: :meth:`AcceleratorSimulator._simulate` turns it into a
    real packet, the shared-schedule path only reads its payloads.
    """

    record: _TaskRecord
    chunk_index: int
    mc: int
    pe: int
    cache_key: tuple
    inputs: np.ndarray
    weights: np.ndarray
    bias: int
    input_only: bool
    encoded: EncodedTask | EncodedInputs | None = None
    # Filled by the batch codec's grouped decode pass (None under the
    # scalar oracle, which decodes per packet at arrival).
    decoded: object | None = None
    # Release cycle relative to the start of the chunk's window.
    release: int = 0


@dataclass
class _Window:
    """One barrier window: a layer, or the whole run when pipelined.

    Attributes:
        name: the layer summary's name.
        total_neurons: tasks the full window would have.
        records: the window's tasks, in task order.
        sends: its request chunks in release order (the order the MCs
            inject them).
    """

    name: str
    total_neurons: int
    records: list[_TaskRecord]
    sends: list[_ChunkJob]


@dataclass(frozen=True)
class LinkSchedule:
    """The payload-independent outcome of one simulated run.

    Which flit crosses which link in which order, and every timing
    fact, depend only on the packets' geometry — source, destination,
    flit count, release cycle, and which chunks make up which task —
    never on their bits.  A run whose geometry matches can therefore
    score its own payloads over this schedule instead of simulating.

    Attributes:
        hops: link name -> the flits that crossed it, in traversal
            order, as captured (dict order is the ledger's link order;
            empty when hops were not captured).  :attr:`links` turns
            them into int arrays on first use, so a schedule nobody
            shares costs only the capture.
        sends: packet id -> (send ordinal, window) of every packet the
            run sent.  A send ordinal indexes the window's packets: its
            request chunks in release order, then one response per
            task in task order.
        windows: per barrier window, (packets, flits, cycles).
        total_cycles / flit_hops / steps_executed /
            idle_cycles_skipped: the run's network totals.
        packet_latencies: every delivered packet's latency in cycles,
            in delivery order.
        metrics: the network's ``event.*`` / ``router.*`` counters.
    """

    hops: dict[str, list[Flit]]
    sends: dict[int, tuple[int, int]]
    windows: tuple[tuple[int, int, int], ...]
    total_cycles: int
    flit_hops: int
    steps_executed: int
    idle_cycles_skipped: int
    packet_latencies: np.ndarray
    metrics: dict[str, int]

    @cached_property
    def links(self) -> dict[str, np.ndarray]:
        """Link name -> ``(n, 3)`` int32 array, one row per flit that
        crossed it in traversal order: (send ordinal, flit index,
        window)."""
        row_of = {packet_id: row for row, packet_id in enumerate(self.sends)}
        sends = np.array(list(self.sends.values()), dtype=np.int32)
        links = {}
        for name, flits in self.hops.items():
            rows = np.fromiter(
                (row_of[f.packet_id] for f in flits), np.intp, len(flits)
            )
            index = np.fromiter((f.index for f in flits), np.int32, len(flits))
            links[name] = np.column_stack(
                (sends[rows, 0], index, sends[rows, 1])
            )
        return links

    @property
    def mean_packet_latency(self) -> float:
        if not len(self.packet_latencies):
            return 0.0
        return int(self.packet_latencies.sum()) / len(self.packet_latencies)


@dataclass
class ScheduleScope:
    """The schedules recorded inside one :func:`schedule_sharing` block.

    Attributes:
        schedules: timing key -> schedule of the run that recorded it.
        simulated: runs that stepped the network.
        shared: runs scored from an earlier run's schedule.
    """

    schedules: dict[tuple, LinkSchedule] = field(default_factory=dict)
    simulated: int = 0
    shared: int = 0


_SCOPE: ScheduleScope | None = None


def _network_code() -> list[dict]:
    """The attributes of the classes a simulated run steps through."""
    return [dict(vars(cls)) for cls in (Network, Router, NetworkInterface)]


# As defined; a run compares against this to see a patched network.
_NETWORK_CODE = _network_code()


@contextmanager
def schedule_sharing() -> Iterator[ScheduleScope]:
    """Let the simulator runs inside the block share link schedules.

    Schedules live only as long as the block (like the metrics
    registry of :func:`repro.obs.metrics.active_registry`); a nested
    block starts empty and the outer scope resumes on exit.
    """
    global _SCOPE
    previous, _SCOPE = _SCOPE, ScheduleScope()
    try:
        yield _SCOPE
    finally:
        _SCOPE = previous


class AcceleratorSimulator:
    """Drives one model + configuration through the NoC."""

    def __init__(
        self,
        config: AcceleratorConfig,
        model: ModelSpec,
        sample_image: np.ndarray,
        placement: Placement | None = None,
    ) -> None:
        self.config = config
        self.model = model
        if placement is None:
            placement = make_placement(
                config.width, config.height, config.n_mcs
            )
        elif (placement.width, placement.height) != (
            config.width,
            config.height,
        ):
            raise ValueError(
                "placement mesh "
                f"{placement.width}x{placement.height} does not match "
                f"config mesh {config.width}x{config.height}"
            )
        self.placement: Placement = placement
        self.layer_tasks: list[LayerTasks] = extract_tasks(
            model,
            sample_image,
            max_tasks_per_layer=config.max_tasks_per_layer,
            seed=config.seed,
        )
        self.codec = TaskCodec(
            values_per_flit=config.values_per_flit,
            word_width=config.word_width,
            include_index_payload=config.include_index_payload,
        )
        self._formats = self._build_formats()
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run state, so every :meth:`run` starts clean."""
        self.orderers = {
            mc: OrderingUnit(
                self.codec,
                self.config.ordering,
                self.config.fill_order,
                model_latency=bool(
                    self.config.extra.get("model_ordering_latency")
                ),
            )
            for mc in self.placement.mc_nodes
        }
        # Weight blocks already shipped to each PE (MC-side knowledge
        # used by the weight-stationary dataflow), and the PE side:
        # decoded weight blocks per PE, and input-only chunks that
        # arrived before their weights.
        self._mc_sent_keys: dict[int, set[tuple]] = {
            pe: set() for pe in self.placement.pe_nodes
        }
        self._pe_cache: dict[int, dict[tuple, tuple[Sequence[int], int]]] = {}
        self._parked: dict[
            tuple[int, tuple], list[tuple[_TaskRecord, int, Sequence[int]]]
        ] = {}
        # The most recent run's network, exposed for the perf harness
        # (steps_executed vs stats.cycles — the fast-forward invariant);
        # None after a run scored from a shared schedule.
        self.last_network: Network | None = None
        # Codec observability: chunks encoded per path.  fallback
        # counts batch-API chunks that degraded to the per-row scalar
        # reference because the lane width has no numpy fast path.
        self.codec_batch_groups = 0
        self.codec_batch_chunks = 0
        self.codec_scalar_chunks = 0
        self.codec_fallback_chunks = 0
        # Arrival-plane observability: chunks whose words came from a
        # grouped decode pass vs per-packet scalar decode at the sink.
        self.codec_decode_batch_chunks = 0
        self.codec_decode_scalar_chunks = 0

    def _build_formats(self) -> dict[int, tuple[DataFormat, DataFormat]]:
        """Per-layer (input, weight) wire formats."""
        formats: dict[int, tuple[DataFormat, DataFormat]] = {}
        for lt in self.layer_tasks:
            if self.config.data_format == "float32":
                formats[lt.layer_index] = (Float32Format(), Float32Format())
                continue
            all_inputs = np.concatenate([t.inputs for t in lt.tasks])
            all_weights = np.concatenate(
                [t.weights for t in lt.tasks]
                + [np.array([t.bias for t in lt.tasks])]
            )
            formats[lt.layer_index] = (
                tensor_format(all_inputs),
                tensor_format(all_weights),
            )
        return formats

    # -- running ---------------------------------------------------------

    def run(
        self,
        max_cycles_per_layer: int = 2_000_000,
        trace_collector=None,
    ) -> RunResult:
        """Simulate every layer and return the run result.

        Inside a :func:`schedule_sharing` block the network is skipped
        when an earlier run left a schedule with an equal timing key
        (see the module docstring); the result is identical either way.

        Args:
            max_cycles_per_layer: drain budget per barrier window.
            trace_collector: optional
                :class:`repro.workloads.traces.TraceCollector` that
                receives every recorded wire image (Fig. 7's packet
                traffic trace output).
        """
        self._reset_run_state()
        windows = self._encode_windows()
        noc = self.config.noc_config()
        scope = _SCOPE
        # Fallbacks: what a schedule cannot carry — a wire-image trace,
        # header bits or injection links in the recorded image, and the
        # weight cache's arrival-order-dependent PE state — and a
        # network whose methods were replaced at run time (a profiler's
        # wrappers, a test double): skipping it would hide hops from
        # the patch, and the schedule need not match what it does.
        shareable = (
            scope is not None
            and trace_collector is None
            and not self.config.weight_cache
            and not noc.include_header_bits
            and not noc.record_injection
            and _network_code() == _NETWORK_CODE
        )
        key = schedule = None
        if shareable:
            key = self._timing_key(windows, noc, max_cycles_per_layer)
            schedule = scope.schedules.get(key)
        if schedule is None:
            schedule, per_link, window_bts = self._simulate(
                windows, noc, max_cycles_per_layer, trace_collector, shareable
            )
            if shareable:
                scope.schedules[key] = schedule
            if scope is not None:
                scope.simulated += 1
        else:
            # The PE side without the network: every chunk arrives (in
            # release order — MACs sum in chunk order regardless).
            for window in windows:
                for job in window.sends:
                    self._deliver(job)
            per_link, window_bts = self._score(windows, schedule)
            scope.shared += 1
        return self._result(windows, schedule, per_link, window_bts)

    def _encode_windows(self) -> list[_Window]:
        """Encode every window's tasks: one window per layer, or a
        single window when layers are pipelined."""
        if self.config.layer_barrier:
            groups = [
                (lt.layer_name, lt.tasks, lt.total_neurons)
                for lt in self.layer_tasks
            ]
        else:
            groups = [
                (
                    "(pipelined)",
                    [t for lt in self.layer_tasks for t in lt.tasks],
                    sum(lt.total_neurons for lt in self.layer_tasks),
                )
            ]
        return [
            self._encode_window(index, name, tasks, total_neurons)
            for index, (name, tasks, total_neurons) in enumerate(groups)
        ]

    def _timing_key(
        self, windows: list[_Window], noc: NoCConfig, max_cycles: int
    ) -> tuple:
        """Everything the network's timing depends on, and only that.

        The NoC structure minus the link width (wider flits take the
        same cycles), the core the network will actually run on, the
        PE-side response behaviour and drain budget, and per window
        the release-ordered request geometry.  Payloads are excluded:
        that is the invariant the key exists to exploit.
        """
        structure = {**noc.to_dict(), "core": noc.core or default_core()}
        del structure["link_width"]
        geometry = tuple(
            tuple(
                (j.mc, j.pe, len(j.encoded.payloads), j.release,
                 j.record.ordinal, j.chunk_index, j.input_only)
                for j in window.sends
            )
            for window in windows
        )
        config = self.config
        return (
            tuple(structure.items()),
            config.include_responses,
            config.compute_delay,
            config.layer_barrier,
            max_cycles,
            geometry,
        )

    def _simulate(
        self,
        windows: list[_Window],
        noc: NoCConfig,
        max_cycles_per_layer: int,
        trace_collector,
        capture: bool,
    ) -> tuple[LinkSchedule, dict[str, int], list[int]]:
        """Run every window through the network.

        Returns the run's schedule (with per-link hops only when
        ``capture`` is set), its per-link BTs and per-window BTs.
        """
        network = Network(noc, capture_hops=capture)
        network.trace_collector = trace_collector
        self.last_network = network
        pending = _PendingQueue()
        # packet id -> (send ordinal, window), for the captured hops.
        sends: dict[int, tuple[int, int]] = {}
        # Outstanding-task counter for the drain loop: O(1) per-cycle
        # termination check instead of re-scanning every task record.
        counters = {"outstanding": 0}
        config = self.config

        def complete_task(record: _TaskRecord) -> None:
            if not record.response_received:
                record.response_received = True
                counters["outstanding"] -= 1

        def pe_sink(packet: Packet, cycle: int) -> None:
            job = packet.metadata.get("job")
            if job is None:
                return
            for record in self._deliver(job):
                if not config.include_responses:
                    complete_task(record)
                    continue
                response = make_packet(
                    src=record.pe,
                    dst=record.mc,
                    payloads=[record.response],
                    width=config.link_width,
                    metadata={"kind": "response", "record": record},
                )
                sends[response.packet_id] = (
                    len(windows[record.window].sends) + record.ordinal,
                    record.window,
                )
                pending.push(cycle + config.compute_delay, response)

        def mc_sink(packet: Packet, cycle: int) -> None:
            record = packet.metadata.get("record")
            if record is not None:
                complete_task(record)

        for pe in self.placement.pe_nodes:
            network.attach_sink(pe, pe_sink)
        for mc in self.placement.mc_nodes:
            network.attach_sink(mc, mc_sink)

        stats = network.stats
        facts: list[tuple[int, int, int]] = []
        window_bts: list[int] = []
        try:
            for index, window in enumerate(windows):
                bt_before = stats.total_bit_transitions
                packets_before = stats.packets_injected
                start = network.cycle
                for ordinal, job in enumerate(window.sends):
                    packet = make_packet(
                        src=job.mc,
                        dst=job.pe,
                        payloads=list(job.encoded.payloads),
                        width=config.link_width,
                        metadata={
                            "kind": "task_inputs" if job.input_only else "task",
                            "job": job,
                        },
                    )
                    sends[packet.packet_id] = (ordinal, index)
                    pending.push(start + job.release, packet)
                flits = self._drain(
                    network, pending, counters, window.records,
                    max_cycles_per_layer,
                )
                facts.append(
                    (
                        stats.packets_injected - packets_before,
                        flits,
                        network.cycle - start,
                    )
                )
                window_bts.append(stats.total_bit_transitions - bt_before)
        finally:
            # The sinks close over this simulator, which keeps the
            # network as last_network: detached, the finished network
            # is in no reference cycle and is freed with the simulator.
            for ni in network.nis:
                ni.sink = None
        schedule = LinkSchedule(
            hops={
                name: rec.hops
                for name, rec in network.ledger.recorders.items()
                if capture
            },
            sends=sends,
            windows=tuple(facts),
            total_cycles=network.cycle,
            flit_hops=stats.flit_hops,
            steps_executed=network.steps_executed,
            idle_cycles_skipped=network.idle_cycles_skipped,
            packet_latencies=np.array(stats.packet_latencies, dtype=np.int64),
            metrics=network.metrics_snapshot(),
        )
        return schedule, network.ledger.per_link(), window_bts

    def _score(
        self, windows: list[_Window], schedule: LinkSchedule
    ) -> tuple[dict[str, int], list[int]]:
        """Per-link and per-window BTs of this run's payloads when sent
        over ``schedule``: gather each link's flits in traversal order,
        XOR neighbours, popcount.  Each link's first flit meets an empty
        ``Flit_pre`` register and costs nothing (Fig. 8)."""
        payloads: list[int] = []
        heads: list[int] = []  # first payload row of every packet
        window_base: list[int] = []  # first packet of every window
        for window in windows:
            window_base.append(len(heads))
            for job in window.sends:
                heads.append(len(payloads))
                payloads.extend(job.encoded.payloads)
            if self.config.include_responses:
                for record in window.records:
                    heads.append(len(payloads))
                    payloads.append(record.response)
        wire = bits.payloads_to_bytes(
            payloads, -(-self.config.link_width // 8)
        )
        hops = np.concatenate(list(schedule.links.values()))
        ordinal, flit, window_of = hops.T
        rows = np.array(heads)[np.array(window_base)[window_of] + ordinal]
        images = wire[rows + flit]
        caused = np.zeros(len(hops), dtype=np.int64)
        caused[1:] = POPCOUNT_LUT[images[1:] ^ images[:-1]].sum(
            axis=1, dtype=np.int64
        )
        starts = np.cumsum(
            [0] + [len(link) for link in schedule.links.values()][:-1]
        )
        caused[starts] = 0
        per_link = dict(
            zip(schedule.links, np.add.reduceat(caused, starts).tolist())
        )
        window_bts = np.bincount(
            window_of, weights=caused, minlength=len(windows)
        )
        return per_link, window_bts.astype(np.int64).tolist()

    def _result(
        self,
        windows: list[_Window],
        schedule: LinkSchedule,
        per_link: dict[str, int],
        window_bts: list[int],
    ) -> RunResult:
        """Assemble the run result from its timing facts and BTs."""
        summaries = [
            LayerSummary(
                layer_name=window.name,
                n_tasks=len(window.records),
                total_neurons=window.total_neurons,
                packets=packets,
                flits=flits,
                bit_transitions=bt,
                cycles=cycles,
            )
            for window, (packets, flits, cycles), bt in zip(
                windows, schedule.windows, window_bts
            )
        ]
        records = [r for w in windows for r in w.records]
        verified = sum(
            1
            for r in records
            if r.computed is not None
            and abs(r.computed - r.reference)
            <= 1e-9 * max(1.0, abs(r.reference))
        )
        metrics = dict(schedule.metrics)
        metrics["codec.batch_groups"] = self.codec_batch_groups
        metrics["codec.batch_chunks"] = self.codec_batch_chunks
        metrics["codec.scalar_chunks"] = self.codec_scalar_chunks
        metrics["codec.fallback_chunks"] = self.codec_fallback_chunks
        metrics["codec.decode_batch_chunks"] = self.codec_decode_batch_chunks
        metrics["codec.decode_scalar_chunks"] = (
            self.codec_decode_scalar_chunks
        )
        registry = active_registry()
        if registry is not None:
            registry.merge(metrics)
        return RunResult(
            config=self.config,
            total_bit_transitions=sum(per_link.values()),
            total_cycles=schedule.total_cycles,
            flit_hops=schedule.flit_hops,
            layers=summaries,
            tasks_verified=verified,
            tasks_total=len(records),
            mean_packet_latency=schedule.mean_packet_latency,
            ordering_latency_cycles=sum(
                unit.total_latency_cycles for unit in self.orderers.values()
            ),
            per_link=per_link,
            steps_executed=schedule.steps_executed,
            idle_cycles_skipped=schedule.idle_cycles_skipped,
            metrics=metrics,
        )

    def _deliver(self, job: _ChunkJob) -> list[_TaskRecord]:
        """The PE side of one delivered request chunk.

        Decodes the chunk's words, accumulates its partial MAC and,
        under the weight cache, serves input-only chunks parked for
        its weight block.  Returns the tasks it completed, in
        completion order.
        """
        record, chunk_index = job.record, job.chunk_index
        pe, key = job.pe, job.cache_key
        pre = record.decoded.pop(chunk_index, None)
        if not job.input_only:
            if pre is not None:
                # Arrival-plane fast path: the words were recovered
                # from this chunk's payload bits in a layer-batched
                # decode pass (see _encode_jobs).
                input_words, weight_words, bias_word = pre
                self.codec_decode_batch_chunks += 1
            else:
                encoded = record.encoded[chunk_index]
                assert isinstance(encoded, EncodedTask)
                decoded = self.codec.decode(encoded)
                pairs = decoded.original_pairs()
                input_words = [p[0] for p in pairs]
                weight_words = [p[1] for p in pairs]
                bias_word = decoded.bias
                self.codec_decode_scalar_chunks += 1
            done = self._finish_chunk(
                record, chunk_index, input_words, weight_words, bias_word
            )
            if self.config.weight_cache:
                self._pe_cache.setdefault(pe, {})[key] = (
                    weight_words,
                    bias_word,
                )
                for rec, ci, inputs in self._parked.pop((pe, key), []):
                    done += self._finish_chunk(
                        rec, ci, inputs, weight_words, bias_word
                    )
            return done
        # Input-only chunk: needs the cached weight block.
        if pre is not None:
            input_words = pre
            self.codec_decode_batch_chunks += 1
        else:
            encoded_in = record.encoded[chunk_index]
            assert isinstance(encoded_in, EncodedInputs)
            input_words = self.codec.decode_inputs_only(encoded_in)
            self.codec_decode_scalar_chunks += 1
        cached = self._pe_cache.get(pe, {}).get(key)
        if cached is None:
            self._parked.setdefault((pe, key), []).append(
                (record, chunk_index, input_words)
            )
            return []
        weight_words, bias_word = cached
        return self._finish_chunk(
            record, chunk_index, input_words, weight_words, bias_word
        )

    def _finish_chunk(
        self,
        record: _TaskRecord,
        chunk_index: int,
        input_words: Sequence[int] | np.ndarray,
        weight_words: Sequence[int] | np.ndarray,
        bias_word: int,
    ) -> list[_TaskRecord]:
        """Accumulate one chunk's partial MAC; ``[record]`` once the
        task is complete (its response payload encoded), else ``[]``."""
        in_fmt, w_fmt = self._formats[record.task.layer_index]
        record.partials[chunk_index] = _mac(
            input_words, weight_words, bias_word, in_fmt, w_fmt
        )
        if len(record.partials) < record.n_chunks:
            return []
        # All chunks arrived: sum partials in chunk order so the
        # result is deterministic regardless of arrival order.
        record.computed = sum(
            record.partials[c] for c in range(record.n_chunks)
        )
        if self.config.include_responses:
            record.response = int(
                Float32Format().encode(
                    np.array([record.computed], dtype=np.float32)
                )[0]
            )
        return [record]

    def _encode_window(
        self,
        index: int,
        name: str,
        tasks: list[NeuronTask],
        total_neurons: int,
    ) -> _Window:
        """Encode one window's tasks into release-ordered request chunks.

        Three phases so the batch codec can order and flitise every
        same-shaped chunk of the window in single numpy passes:

        1. wire-format word conversion and weight-cache decisions, in
           task/chunk order (the cache decisions are order-dependent);
        2. the codec pass (:meth:`_encode_jobs`) — batched under
           ``codec="batch"``, chunk by chunk under the scalar oracle;
        3. ordering-unit latency accounting and release offsets in
           exactly the task/chunk order of phase 1, so ordering-unit
           stats and release cycles are identical across codecs.

        The chunks are then stably sorted into injection order: by
        release offset, and under ``count_desc`` scheduling by
        descending payload '1' count within a release offset.
        """
        jobs: list[_ChunkJob] = []
        records: list[_TaskRecord] = []
        for task in tasks:
            if self.config.mapping_policy == "group_affine":
                pe = self.placement.pe_for_group(
                    task.layer_index, task.group
                )
            else:
                pe = self.placement.pe_for_task(task.task_id)
            mc = self.placement.serving_mc[pe]
            in_fmt, w_fmt = self._formats[task.layer_index]
            chunks = split_task(task, self.config.chunk_pairs)
            record = _TaskRecord(
                task=task,
                reference=0.0,
                pe=pe,
                mc=mc,
                n_chunks=len(chunks),
                window=index,
                ordinal=len(records),
            )
            records.append(record)
            reference = 0.0
            for chunk in chunks:
                input_words = in_fmt.encode(chunk.inputs)
                weight_words = w_fmt.encode(chunk.weights)
                bias_word = int(w_fmt.encode(np.array([chunk.bias]))[0])
                key = (chunk.layer_index, chunk.group, chunk.chunk_index)
                cached = (
                    self.config.weight_cache
                    and key in self._mc_sent_keys[pe]
                )
                if not cached and self.config.weight_cache:
                    self._mc_sent_keys[pe].add(key)
                jobs.append(
                    _ChunkJob(
                        record=record,
                        chunk_index=chunk.chunk_index,
                        mc=mc,
                        pe=pe,
                        cache_key=key,
                        inputs=input_words,
                        weights=weight_words,
                        bias=bias_word,
                        input_only=cached,
                    )
                )
                # The cached weight block is bit-identical to this
                # chunk's own words (same filter, same per-layer
                # scale), so the reference uses the chunk's words in
                # both paths.
                reference += _mac(
                    input_words, weight_words, bias_word, in_fmt, w_fmt
                )
            record.reference = reference
        self._encode_jobs(jobs)
        current: _TaskRecord | None = None
        release = 0
        for job in jobs:
            if job.record is not current:
                current = job.record
                release = 0
            assert job.encoded is not None
            job.record.encoded[job.chunk_index] = job.encoded
            if job.decoded is not None:
                job.record.decoded[job.chunk_index] = job.decoded
            if not job.input_only:
                release += self.orderers[job.mc].account(
                    job.inputs.shape[0]
                )
            job.release = release
        if self.config.packet_scheduling == "count_desc":
            # Extends the ordering idea across packet boundaries: each
            # MC streams its packets in descending total payload '1'
            # count, so consecutive packets on shared links carry
            # similar bit densities.  Release offsets keep priority so
            # modelled ordering latency is respected.
            jobs.sort(
                key=lambda job: (
                    job.release,
                    -sum(p.bit_count() for p in job.encoded.payloads),
                )
            )
        else:
            jobs.sort(key=lambda job: job.release)
        return _Window(name, total_neurons, records, jobs)

    def _encode_jobs(self, jobs: list[_ChunkJob]) -> None:
        """Run the configured codec over the collected chunk jobs.

        The batch path groups jobs by pair count (a layer's chunks all
        share one width; ragged tail chunks form their own group) and
        encodes each group in one :meth:`TaskCodec.encode_batch` /
        :meth:`TaskCodec.encode_inputs_only_batch` call.  The scalar
        oracle encodes chunk by chunk exactly as the pre-batch
        simulator did.
        """
        if not jobs:
            return
        # Every MC's unit shares the config's method and effective fill
        # (the baseline's row-major override included).
        unit = self.orderers[jobs[0].mc]
        if self.config.codec == "scalar":
            self.codec_scalar_chunks += len(jobs)
            for job in jobs:
                if job.input_only:
                    job.encoded = self.codec.encode_inputs_only(
                        job.inputs.tolist(),
                        self.config.ordering,
                        self.config.fill_order,
                    )
                else:
                    job.encoded = self.codec.encode(
                        job.inputs.tolist(),
                        job.weights.tolist(),
                        job.bias,
                        unit.method,
                        unit.fill,
                    )
            return
        full: dict[int, list[_ChunkJob]] = {}
        inputs_only: dict[int, list[_ChunkJob]] = {}
        for job in jobs:
            group = inputs_only if job.input_only else full
            group.setdefault(job.inputs.shape[0], []).append(job)
        self.codec_batch_groups += len(full) + len(inputs_only)
        self.codec_batch_chunks += len(jobs)
        if not lane_fast_path(self.codec.word_width):
            # encode_batch degrades to the per-row scalar reference for
            # exotic lane widths; surface how many chunks took that hit.
            self.codec_fallback_chunks += len(jobs)
        for group_jobs in full.values():
            encoded = self.codec.encode_batch(
                np.stack([job.inputs for job in group_jobs]),
                np.stack([job.weights for job in group_jobs]),
                [job.bias for job in group_jobs],
                unit.method,
                unit.fill,
            )
            # Arrival plane: recover each chunk's original-order words
            # from the transmitted payload bits in one grouped decode
            # pass.  Decode is pure in the encoded object, so this is
            # bit-identical to the scalar oracle's decode-at-arrival.
            decoded = self.codec.decode_batch_words(encoded)
            for job, enc, dec in zip(group_jobs, encoded, decoded):
                job.encoded = enc
                job.decoded = dec
        for group_jobs in inputs_only.values():
            encoded = self.codec.encode_inputs_only_batch(
                np.stack([job.inputs for job in group_jobs]),
                self.config.ordering,
                self.config.fill_order,
            )
            decoded_rows = self.codec.decode_inputs_only_batch(encoded)
            for job, enc, row in zip(group_jobs, encoded, decoded_rows):
                job.encoded = enc
                job.decoded = row

    def _drain(
        self,
        network: Network,
        pending: _PendingQueue,
        counters: dict[str, int],
        records: list[_TaskRecord],
        max_cycles: int,
    ) -> int:
        """Run the network until the given tasks complete."""
        flits_before = network.stats.flits_injected
        deadline = network.cycle + max_cycles
        counters["outstanding"] = sum(
            1 for r in records if not r.response_received
        )
        event = network.event_core

        while counters["outstanding"] > 0:
            if event and network.is_idle:
                # Nothing can act this cycle: jump straight to the next
                # packet release or link arrival (clamped so timeout
                # semantics match the stepped run exactly).  With
                # neither queued the run is wedged — jumping to the
                # deadline raises the same timeout the stepped core
                # would reach by spinning.
                target = deadline
                if pending:
                    target = min(target, pending.next_release())
                arrival = network.next_internal_event()
                if arrival is not None:
                    target = min(target, arrival)
                network.fast_forward(target)
            if network.cycle >= deadline:
                raise SimulationTimeout(
                    f"{len(records)} tasks did not complete within "
                    f"{max_cycles} cycles"
                )
            # Release matured packets into their source NI.
            while pending and pending.next_release() <= network.cycle:
                network.send_packet(pending.pop())
            network.step()
        return network.stats.flits_injected - flits_before


def _dtype(fmt: DataFormat) -> type:
    """Numpy unsigned dtype matching a format's word width."""
    return {8: np.uint8, 16: np.uint16, 32: np.uint32}[fmt.width]


def _mac(
    input_words: list[int] | np.ndarray,
    weight_words: list[int] | np.ndarray,
    bias_word: int,
    in_fmt: DataFormat,
    w_fmt: DataFormat,
) -> float:
    """Dot product + bias over decoded wire words (float64 accumulate).

    Both the PE-side computation and the reference use this helper with
    the pairs in *original* order, so a correct recovery yields
    bit-identical results.
    """
    in_vals = in_fmt.decode(
        np.array(input_words, dtype=_dtype(in_fmt))
    ).astype(np.float64)
    w_vals = w_fmt.decode(
        np.array(weight_words, dtype=_dtype(w_fmt))
    ).astype(np.float64)
    bias = float(w_fmt.decode(np.array([bias_word], dtype=_dtype(w_fmt)))[0])
    return float(in_vals @ w_vals) + bias


def run_model_on_noc(
    config: AcceleratorConfig,
    model: ModelSpec,
    sample_image: np.ndarray,
    max_cycles_per_layer: int = 2_000_000,
    trace_collector=None,
) -> RunResult:
    """One-call convenience wrapper used by examples and benches."""
    sim = AcceleratorSimulator(config, model, sample_image)
    return sim.run(
        max_cycles_per_layer=max_cycles_per_layer,
        trace_collector=trace_collector,
    )


def run_batch_on_noc(
    config: AcceleratorConfig,
    model: ModelSpec,
    images: np.ndarray,
    max_cycles_per_layer: int = 2_000_000,
) -> list[RunResult]:
    """Run several inference passes (one per image) back to back.

    Each image's activations produce different task payloads, so the
    batch exercises the ordering method across input statistics.  The
    images run as independent inferences on fresh networks; aggregate
    with :func:`aggregate_results`.
    """
    if images.ndim != 4:
        raise ValueError("images must be a (N, C, H, W) batch")
    results = []
    for image in images:
        results.append(
            run_model_on_noc(
                config, model, image, max_cycles_per_layer
            )
        )
    return results


def aggregate_results(results: list[RunResult]) -> dict[str, float]:
    """Batch-level totals and means over per-image run results."""
    if not results:
        raise ValueError("no results to aggregate")
    total_bt = sum(r.total_bit_transitions for r in results)
    total_cycles = sum(r.total_cycles for r in results)
    total_hops = sum(r.flit_hops for r in results)
    return {
        "images": float(len(results)),
        "total_bit_transitions": float(total_bt),
        "total_cycles": float(total_cycles),
        "total_flit_hops": float(total_hops),
        "mean_bt_per_image": total_bt / len(results),
        "transitions_per_flit_hop": (
            total_bt / total_hops if total_hops else 0.0
        ),
        "all_verified": float(all(r.all_verified for r in results)),
    }
