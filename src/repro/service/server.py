"""The sweep job server: the socket transport of the job book.

A :class:`SweepServer` runs one campaign as a
:class:`~repro.experiments.book.JobBook` — the same book, and so the
same triage, retry, quarantine, first-completion-wins and grid-order
result, as an inline or supervised ``repro sweep``; ``--resume``
behaves identically too.  The server executes nothing.  It adds the
transport:

* **Sockets** — workers speak the :mod:`repro.service.protocol`
  framing and claim the book's dispatches.  In-worker faults of the
  :class:`~repro.experiments.faults.FaultPlan` ride the payload;
  network faults ship with the grant for the worker to fire.
* **Leases** — a claim holds its job under a
  :class:`~repro.service.leases.LeaseTable` lease, renewed by
  heartbeats.  A lapsed lease (a dead or stalled worker) settles its
  attempt as a ``lease_expired`` failure, which the book re-queues
  for another worker ("work stealing") or quarantines.
* **Reconciliation** — a late result for a settled job is a
  duplicate, an error from a superseded attempt is stale; both are
  acknowledged and discarded, leaving the live attempt's lease alone.
* **Drain** — :meth:`SweepServer.shutdown` checkpoints on
  SIGINT/SIGTERM.

Served records carry no worker identity, no ok-record attempt counts
and no timing, so they are byte-identical to an inline run's (the
chaos determinism gate relies on it); the metrics add ``service.*``
to the shared ``cache.*``/``runner.*`` family.  Threads: an acceptor,
one handler per connection and a lease sweeper, all daemonic; one
lock guards the book and the counters.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.experiments.book import DUPLICATE, STALE, CampaignResult, JobBook
from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultPlan
from repro.experiments.spec import SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore
from repro.service.leases import LeaseTable
from repro.service.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
)

__all__ = ["SweepServer"]


class SweepServer:
    """Serve one campaign's jobs to socket-connected workers.

    Attributes:
        spec: the campaign grid being served.
        campaign_id: :func:`~repro.experiments.spec.campaign_id` of
            the spec — the resume token, verified against worker
            hellos that carry one (the cross-wire spec-drift guard).
        host / port: bound address after :meth:`start` (``port=0``
            picks an ephemeral port).
        lease_seconds / heartbeat_seconds: lease budget and the beat
            interval advertised to workers.
        max_retries: transient-failure re-queues per job (lease
            expiries included) before quarantine.
        result: the final :class:`CampaignResult` once finished.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        journal: CampaignJournal | None = None,
        lease_seconds: float = 30.0,
        heartbeat_seconds: float | None = None,
        max_retries: int = 2,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.spec = spec
        self.name = spec.name
        self.campaign_id = campaign_id(spec)
        self.host = host
        self.port = port
        self.cache = cache
        self.store = store
        self.journal = journal
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.leases = LeaseTable(lease_seconds, heartbeat_seconds)
        self.lease_seconds = self.leases.lease_seconds
        self.heartbeat_seconds = self.leases.heartbeat_seconds
        self.result: CampaignResult | None = None

        self._book: JobBook | None = None  # opened by start()
        self._lock = threading.RLock()
        self._workers_seen: set[str] = set()
        self._reconnects = 0
        self._duplicates = 0
        self._protocol_errors = 0
        self._done = threading.Event()
        self._started_at = 0.0
        self._sock: socket.socket | None = None
        self._conns: list[socket.socket] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Triage cache/journal, bind, and start serving; returns addr.

        Raises :class:`SpecDriftError` when an existing journal's
        ``start`` entry records a different campaign than this spec
        derives — resuming would silently mix results otherwise.
        """
        self._started_at = time.perf_counter()
        self._book = JobBook(
            self.spec,
            cache=self.cache,
            store=self.store,
            journal=self.journal,
            max_retries=self.max_retries,
            backoff_seed=self.spec.seed,
            fault_plan=self.fault_plan,
        )
        self._sock = socket.create_server((self.host, self.port))
        self.host, self.port = self._sock.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, daemon=True, name="sweep-accept"
        ).start()
        threading.Thread(
            target=self._sweep_loop, daemon=True, name="sweep-leases"
        ).start()
        self._maybe_finish()  # a fully cached/resumed campaign is done
        return self.host, self.port

    def wait(self, timeout: float | None = None) -> CampaignResult | None:
        """Block until the campaign finishes; None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self.result

    def shutdown(self) -> CampaignResult:
        """Graceful drain: stop granting, checkpoint, finish partial.

        The journal already holds every completed job (they are
        appended as they land), so the checkpoint written here makes
        ``--resume`` behave exactly as after a SIGINT'd inline sweep.
        In-flight leased jobs are counted as remaining; an ok result
        that still arrives is journaled, so the resume serves it.
        """
        with self._lock:
            if self.result is None:
                self._finish(interrupted=True)
        return self.result  # type: ignore[return-value]

    def linger(self, timeout: float = 5.0) -> bool:
        """Wait for attached workers to pick up their drain replies.

        The connection handlers are daemon threads, so a server
        process that exits the instant the result lands would strand
        still-connected workers mid-claim — they would burn their
        reconnect budget against a dead address and misreport a
        completed campaign as a lost server.  Returns True when every
        connection closed within the timeout.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._conns:
                    return True
            time.sleep(0.05)
        return False

    def close(self) -> None:
        """Stop accepting and tear down every connection."""
        if self._sock is not None:
            # shutdown() before close(): the acceptor thread blocked
            # in accept() pins the open file description, so a bare
            # close() leaves the port listening (and serving!) until
            # that thread wakes.  shutdown wakes it immediately.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- socket plumbing -------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                daemon=True,
                name="sweep-conn",
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                reply, fatal = self._dispatch(message)
                send_frame(conn, reply)
                if fatal:
                    return
        except ProtocolError:
            with self._lock:
                self._protocol_errors += 1
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _sweep_loop(self) -> None:
        interval = min(1.0, max(0.05, self.lease_seconds / 4.0))
        while not self._done.wait(interval):
            self._reap_expired()

    def _reap_expired(self) -> None:
        for lease in self.leases.expire():
            with self._lock:
                book = self._book
                book.fail(
                    book.index_of[lease.job_id],
                    lease.attempt,
                    f"LeaseExpired: worker {lease.worker!r} stopped "
                    f"heartbeating and its lease lapsed (attempt "
                    f"{lease.attempt})",
                    "lease_expired",
                    time.monotonic(),
                )
        self._maybe_finish()

    # -- message dispatch ------------------------------------------------

    def _dispatch(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bool]:
        """Handle one frame; returns (reply, close_after_reply)."""
        kind = message.get("type")
        worker = str(message.get("worker", "?"))
        if kind == "hello":
            return self._on_hello(message, worker)
        if kind == "claim":
            return self._on_claim(worker), False
        if kind == "heartbeat":
            renewed = self.leases.renew(
                str(message.get("job_id", "")), worker
            )
            return {"type": "ack", "renewed": renewed}, False
        if kind == "result":
            return self._on_result(message, worker), False
        if kind == "status":
            return self._on_status(), False
        if kind == "goodbye":
            return {"type": "ack"}, True
        return (
            {"type": "error", "reason": f"unknown message type {kind!r}"},
            False,
        )

    def _on_hello(
        self, message: dict[str, Any], worker: str
    ) -> tuple[dict[str, Any], bool]:
        claimed_id = message.get("campaign_id")
        if claimed_id is not None and claimed_id != self.campaign_id:
            return (
                {
                    "type": "error",
                    "reason": (
                        f"campaign mismatch: this server serves "
                        f"{self.campaign_id!r} ({self.name!r}), you "
                        f"asked for {claimed_id!r} — the sweep spec "
                        f"has drifted from the served campaign"
                    ),
                },
                True,
            )
        with self._lock:
            if worker in self._workers_seen:
                self._reconnects += 1
            else:
                self._workers_seen.add(worker)
        return (
            {
                "type": "welcome",
                "campaign": self.name,
                "campaign_id": self.campaign_id,
                "n_jobs": len(self._book.jobs),
                "lease_seconds": self.lease_seconds,
                "heartbeat_seconds": self.heartbeat_seconds,
            },
            False,
        )

    def _on_claim(self, worker: str) -> dict[str, Any]:
        with self._lock:
            result = self.result
            if result is not None:
                return {
                    "type": "drain",
                    "reason": (
                        "draining" if result.interrupted else "complete"
                    ),
                    "interrupted": result.interrupted,
                    "records": result.records,
                    "summary": result.summary(),
                }
            now = time.monotonic()
            task = self._book.next(now)
            if task is None:
                seconds = min(1.0, max(0.05, self.lease_seconds / 2.0))
                ready = self._book.ready_at()
                if ready is not None:
                    seconds = min(seconds, max(0.05, ready - now))
                return {"type": "wait", "seconds": seconds}
        lease = self.leases.grant(task.job_id, worker, task.attempt)
        return {
            "type": "job",
            "index": task.index,
            "job_id": task.job_id,
            "attempt": task.attempt,
            "payload": task.payload,
            "network_faults": task.network_faults,
            "lease_seconds": self.lease_seconds,
            "deadline_seconds": lease.deadline - lease.granted_at,
        }

    def _on_result(
        self, message: dict[str, Any], worker: str
    ) -> dict[str, Any]:
        job_id = str(message.get("job_id", ""))
        record = message.get("record")
        with self._lock:
            index = self._book.index_of.get(job_id)
            if index is None or not isinstance(record, dict):
                return {
                    "type": "ack",
                    "accepted": False,
                    "duplicate": False,
                    "reason": "unknown job or malformed record",
                }
            outcome = self._book.settle(
                index, message.get("attempt"), record, time.monotonic()
            )
            if outcome == DUPLICATE:
                # Late result from a presumed-dead worker for a job
                # someone else already finished: idempotent discard.
                self._duplicates += 1
                if self.leases.holder(job_id) == worker:
                    self.leases.release(job_id)
                return {"type": "ack", "accepted": True, "duplicate": True}
            if outcome == STALE:
                # An error from an attempt the lease table already
                # gave up on: the live attempt keeps its lease.
                return {
                    "type": "ack",
                    "accepted": True,
                    "duplicate": False,
                    "stale": True,
                }
            self.leases.release(job_id)
        self._maybe_finish()
        return {"type": "ack", "accepted": True, "duplicate": False}

    def _on_status(self) -> dict[str, Any]:
        with self._lock:
            book = self._book
            return {
                "type": "status",
                "campaign": self.name,
                "campaign_id": self.campaign_id,
                "total": len(book.jobs),
                "done": len(book.records),
                "pending": book.pending,
                "leased": len(self.leases),
                "workers": sorted(self._workers_seen),
                "finished": self.result is not None,
            }

    # -- completion ------------------------------------------------------

    def _maybe_finish(self) -> None:
        with self._lock:
            if self.result is None and self._book.finished:
                self._finish(interrupted=False)

    def _finish(self, interrupted: bool) -> None:
        """Assemble the CampaignResult and persist; called under lock."""
        workers = len(self._workers_seen)
        self.result = self._book.result(
            workers=max(1, workers),
            elapsed_seconds=time.perf_counter() - self._started_at,
            interrupted=interrupted,
            extras={
                **self.leases.counters(),
                "service.heartbeats": self.leases.renewed,
                "service.reconnects": self._reconnects,
                "service.results.duplicate": self._duplicates,
                "service.protocol.errors": self._protocol_errors,
                "service.workers.peak": workers,
            },
        )
        self._done.set()
