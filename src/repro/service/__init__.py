"""repro.service — the distributed sweep job service.

One :class:`SweepServer` process serves a campaign's
:class:`~repro.experiments.book.JobBook` (the job rules every sweep
engine shares) over a small length-prefixed socket protocol
(:mod:`repro.service.protocol`); any number of :class:`SweepWorker`
processes, on this host or others, claim jobs under time-bounded
leases (:mod:`repro.service.leases`), execute them through the
ordinary job-kind registry, and stream results back.

Execution is at-least-once and effectively-once: jobs are
deterministic, a lapsed lease re-queues its job for another worker,
the first completion wins, and a shared
:class:`~repro.experiments.cache.ResultCache` root dedups work across
workers.  Workers that lose the server reconnect with backoff, then
exit with a resume hint.  Network faults of a
:class:`~repro.experiments.faults.FaultPlan` (connection drop,
heartbeat stall, torn frame, duplicate result) fire through the real
socket path, and the chaos gate pins a faulted served campaign's rows
to a fault-free inline run's.

CLI: ``repro serve`` starts a server, ``repro work`` attaches a
worker, ``repro sweep --server HOST:PORT`` runs a sweep as a
worker-plus-reporter against a running server.
"""

from repro.service.leases import Lease, LeaseTable
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    FrameChannel,
    ProtocolError,
    connect,
    encode_frame,
    recv_frame,
    send_frame,
    torn_frame_bytes,
)
from repro.service.server import SweepServer
from repro.service.worker import ServerLostError, SweepWorker, run_worker

__all__ = [
    "FrameChannel",
    "Lease",
    "LeaseTable",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerLostError",
    "SweepServer",
    "SweepWorker",
    "connect",
    "encode_frame",
    "recv_frame",
    "run_worker",
    "send_frame",
    "torn_frame_bytes",
]
