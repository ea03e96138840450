"""Per-outport BT recording, exactly the Fig. 8 scheme.

Every recorded link keeps a ``Flit_pre`` register holding the bits of
the previous flit that crossed it; each traversal XORs the new flit
against the register and accumulates the popcount on that link.
Recording is measurement-only — the paper stresses that the flit
storage and summation are not part of the design overhead.

The per-link counts are the single source of BT accounting: the
ledger's NoC-wide totals (and :attr:`repro.noc.network.NoCStats.
total_bit_transitions`) are summed from them when read, which the
simulators do once per barrier window, never per hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only (layer inversion)
    from repro.noc.flit import Flit, Packet
    from repro.workloads.traces import TrafficTrace

__all__ = ["LinkRecorder", "TransitionLedger", "TraceRecorder"]


@dataclass
class LinkRecorder:
    """BT recorder for one physical link (one router outport).

    Attributes:
        name: link label, e.g. "R5.EAST" or "R3.LOCAL".
        previous: bits of the last flit that crossed ("Flit_pre");
            None before the first traversal.
        transitions: accumulated BT count on this link.
        flits: number of flits that crossed.
        ledger: owning ledger, if any (set by
            :meth:`TransitionLedger.recorder_for` / :meth:`adopt`).
        hops: when capturing, every flit that crossed, in traversal
            order (the raw material of a link schedule); None when
            not capturing.
    """

    name: str
    previous: int | None = None
    transitions: int = 0
    flits: int = 0
    ledger: "TransitionLedger | None" = field(
        default=None, repr=False, compare=False
    )
    hops: "list[Flit] | None" = field(default=None, repr=False, compare=False)

    def record(self, bits: int, flit: "Flit | None" = None) -> int:
        """Account one flit traversal; returns the BTs it caused."""
        previous = self.previous
        # Inline popcount: bits are validated non-negative at flit
        # construction, and this runs once per flit hop.
        caused = 0 if previous is None else (previous ^ bits).bit_count()
        self.transitions += caused
        self.flits += 1
        self.previous = bits
        if self.hops is not None:
            self.hops.append(flit)
        return caused


@dataclass
class TransitionLedger:
    """NoC-wide aggregation over all link recorders.

    Attributes:
        recorders: link-name -> recorder, in first-traversal order.
        capture_hops: recorders created by :meth:`recorder_for` keep
            every crossing flit in ``hops``.
    """

    recorders: dict[str, LinkRecorder] = field(default_factory=dict)
    capture_hops: bool = False

    def __post_init__(self) -> None:
        for rec in self.recorders.values():
            self.adopt(rec)

    def adopt(self, rec: LinkRecorder) -> LinkRecorder:
        """Register an existing recorder, history included."""
        if rec.ledger is self:
            return rec
        if rec.ledger is not None:
            raise ValueError(
                f"recorder {rec.name!r} already belongs to another ledger"
            )
        rec.ledger = self
        self.recorders[rec.name] = rec
        return rec

    def recorder_for(self, name: str) -> LinkRecorder:
        """Get (or lazily create) the recorder for a link."""
        rec = self.recorders.get(name)
        if rec is None:
            rec = LinkRecorder(
                name=name,
                ledger=self,
                hops=[] if self.capture_hops else None,
            )
            self.recorders[name] = rec
        return rec

    @property
    def total_transitions(self) -> int:
        """The "NoC Bit Transition Sum" of Fig. 8, over every link."""
        return sum(rec.transitions for rec in self.recorders.values())

    @property
    def total_flit_traversals(self) -> int:
        """Total flit-hops across all recorded links."""
        return sum(rec.flits for rec in self.recorders.values())

    def per_link(self) -> dict[str, int]:
        """Snapshot of per-link BT counts."""
        return {name: rec.transitions for name, rec in self.recorders.items()}


class TraceRecorder:
    """Full-fidelity capture hook for trace record & replay.

    Attach one to :attr:`Network.trace_collector` before a run::

        network.trace_collector = TraceRecorder()
        ... run ...
        trace = network.trace_collector.finish(network.config)
        trace.save("run.trace.gz")

    Two event streams are captured:

    * per-link *hop* events — the wire image, traversal cycle, output
      VC, and owning packet of every flit that crossed a recorded link
      (the Fig. 8 measurement surface, in exact traversal order);
    * packet *injection* events — (cycle, src, dst, per-flit payloads)
      for every :meth:`Network.send_packet` call, which is precisely
      the schedule trace replay re-injects through a fresh network.

    Unlike the lighter :class:`repro.workloads.traces.TraceCollector`
    (wire images + cycles only), a finished TraceRecorder trace can be
    replayed *through* either network core, not just re-scored offline.
    """

    def __init__(self) -> None:
        # Parallel per-link lists, appended in traversal order.
        self._links: dict[str, list[int]] = {}
        self._cycles: dict[str, list[int]] = {}
        self._vcs: dict[str, list[int]] = {}
        self._packet_ids: dict[str, list[int]] = {}
        # (cycle, src, dst, payloads) injection events in send order.
        self._sends: list[tuple[int, int, int, tuple[int, ...]]] = []

    def record(
        self,
        link_name: str,
        bits: int,
        cycle: int,
        vc: int = 0,
        flit: "Flit | None" = None,
    ) -> None:
        """Network hook: one flit crossed ``link_name``."""
        links = self._links.get(link_name)
        if links is None:
            links = self._links[link_name] = []
            self._cycles[link_name] = []
            self._vcs[link_name] = []
            self._packet_ids[link_name] = []
        links.append(bits)
        self._cycles[link_name].append(cycle)
        self._vcs[link_name].append(vc)
        self._packet_ids[link_name].append(
            -1 if flit is None else flit.packet_id
        )

    def record_send(self, cycle: int, packet: "Packet") -> None:
        """Network hook: one packet was queued for injection."""
        self._sends.append(
            (
                cycle,
                packet.src,
                packet.dst,
                tuple(flit.payload for flit in packet.flits),
            )
        )

    def finish(self, config: Any) -> "TrafficTrace":
        """Freeze the capture into a replayable trace.

        Args:
            config: the network's :class:`NoCConfig` (recorded into the
                trace so replay can rebuild an identical mesh), or a
                plain link width in bits for config-less captures.
        """
        # Imported here: repro.noc must stay importable without the
        # workloads layer (which imports bits/ordering on top of it).
        from repro.workloads.traces import PacketEvent, TrafficTrace

        if isinstance(config, int):
            link_width, noc = config, None
        else:
            link_width, noc = config.link_width, config.to_dict()
        # Lists go straight to TrafficTrace.__post_init__, which wraps
        # each column in an array-backed WordArray — no tuple detour.
        return TrafficTrace(
            link_width=link_width,
            links=dict(self._links),
            cycles=dict(self._cycles),
            vcs=dict(self._vcs),
            packet_ids=dict(self._packet_ids),
            packets=tuple(
                PacketEvent(cycle=c, src=s, dst=d, payloads=p)
                for c, s, d, p in self._sends
            ),
            noc=noc,
        )
