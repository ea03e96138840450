"""The campaign job book: every job rule, written once.

Campaign jobs run inline or in supervised child processes
(:class:`~repro.experiments.runner.CampaignRunner`) or on socket
workers (:class:`~repro.service.server.SweepServer`).  Those three
transports only move jobs; a :class:`JobBook` decides what happens to
them:

* **Triage** — recover the journal, refuse a drifted spec, journal the
  ``resume``, consult the cache: each job starts resumed, cached or
  pending.
* **Dispatch** — :meth:`JobBook.next` hands out a pending job with its
  attempt number and fault-injected payload, never before a re-queued
  job's backoff ends.
* **Settle** — :meth:`JobBook.settle`: the first completion wins, a
  later one is a duplicate, and an error from a superseded attempt is
  stale.  A failure is classified once: a transient one re-queues
  after a seeded backoff until ``max_retries`` runs out (then the job
  is quarantined), a permanent one is final.  Ok records are journaled
  and cached as they settle.  :meth:`JobBook.fail` settles the
  failures nobody reports: timeouts, crashes, expired leases.
* **Result** — :meth:`JobBook.result` builds the grid-order
  :class:`CampaignResult` and its metrics, writes the store, and
  journals the ``end`` (or ``checkpoint``).

The book has no threads, sockets or processes and reads no clock:
time-dependent calls take ``now`` (any monotonic reading), so tests
drive it with a fake clock.  A threaded transport locks around it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultPlan, backoff_seconds, classify_error
from repro.experiments.kinds import job_kind
from repro.experiments.spec import JobSpec, SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore
from repro.obs.metrics import merge_metrics

__all__ = [
    "DUPLICATE",
    "FINAL",
    "RETRY",
    "STALE",
    "CampaignResult",
    "Dispatch",
    "JobBook",
    "SpecDriftError",
    "error_record",
]

#: :meth:`JobBook.settle` outcomes.  FINAL: the job's final record
#: landed.  RETRY: the failure re-queued the job.  STALE: an error from
#: a superseded attempt, ignored.  DUPLICATE: the job had already
#: settled, so the record is discarded.
FINAL = "final"
RETRY = "retry"
STALE = "stale"
DUPLICATE = "duplicate"


class SpecDriftError(RuntimeError):
    """A resume was attempted with a spec that no longer matches the
    journaled campaign.

    :func:`~repro.experiments.spec.campaign_id` hashes the full
    canonical spec, so any drift — an edited grid, a changed seed, a
    renamed campaign — changes the id.  Resuming anyway would silently
    mix two different campaigns' results in one store; failing loudly
    is the only safe behaviour.
    """


@dataclass
class CampaignResult:
    """Outcome of one campaign run.

    Attributes:
        name: campaign name.
        records: one record per completed job, in grid order (on an
            interrupted run, jobs never dispatched have no record).
        hits / misses: cache accounting for this run.
        errors: jobs whose final record failed (status="error").
        elapsed_seconds: wall-clock time of the run.
        workers: pool size used for the misses.
        resumed: jobs served from the campaign journal (a `--resume`).
        retries: re-dispatches after transient-class failures.
        timeouts: attempts killed for exceeding the job timeout.
        worker_crashes: attempts whose worker died without a result.
        quarantined: job_ids that exhausted retries on transient-class
            failures (the poison jobs).
        interrupted: True when SIGINT checkpointed the run early.
        remaining: job_ids never run (interrupted before dispatch).
        failures: structured per-failure dicts (job_id, label, error,
            error_class, attempts, quarantined).
        metrics: campaign-wide observability aggregate — every
            record's ``result["metrics"]`` merged (``.peak`` names by
            max, the rest summed) plus the ``cache.*`` / ``runner.*``
            counters (and a served campaign's ``service.*``).
        schedules_simulated / schedules_shared: inline-run jobs that
            stepped the NoC vs jobs scored entirely from a link
            schedule an earlier job recorded (see
            :func:`repro.accelerator.simulator.schedule_sharing`).
            Both stay 0 for supervised runs, which simulate every job.
    """

    name: str
    records: list[dict[str, Any]] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    workers: int = 1
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    quarantined: list[str] = field(default_factory=list)
    interrupted: bool = False
    remaining: list[str] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    schedules_simulated: int = 0
    schedules_shared: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from cache, in [0, 1]."""
        if not self.records:
            return 0.0
        return self.hits / len(self.records)

    def ok_records(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("status") == "ok"]

    def summary(self) -> str:
        """The printed cache-hit summary line."""
        line = (
            f"campaign {self.name!r}: {self.n_jobs} jobs, "
            f"{self.hits} cache hits / {self.misses} simulated "
            f"({100.0 * self.hit_rate:.1f}% hit rate), "
            f"{self.errors} errors, {self.workers} workers, "
            f"{self.elapsed_seconds:.2f}s"
        )
        if self.schedules_simulated or self.schedules_shared:
            line += (
                f"; schedules: {self.schedules_simulated} simulated, "
                f"{self.schedules_shared} shared"
            )
        extras = []
        if self.resumed:
            extras.append(f"{self.resumed} resumed")
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.worker_crashes:
            extras.append(f"{self.worker_crashes} worker crashes")
        if self.quarantined:
            extras.append(f"{len(self.quarantined)} quarantined")
        if extras:
            line += f" [{', '.join(extras)}]"
        if self.interrupted:
            line += (
                f" — INTERRUPTED with {len(self.remaining)} job(s) left"
            )
        return line

    def failure_report(self) -> dict[str, Any]:
        """Structured account of everything that went wrong (or not).

        Always well-formed — an all-green campaign reports zero counts
        — so report plumbing and the journal ``end``/``checkpoint``
        entries can carry it unconditionally.
        """
        by_class: dict[str, int] = {}
        for failure in self.failures:
            cls = failure.get("error_class", "permanent")
            by_class[cls] = by_class.get(cls, 0) + 1
        return {
            "campaign": self.name,
            "completed": len(self.ok_records()),
            "failed": len(self.failures),
            "by_class": by_class,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "quarantined": list(self.quarantined),
            "interrupted": self.interrupted,
            "remaining": list(self.remaining),
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class Dispatch:
    """One (job, attempt) from :meth:`JobBook.next`: the ``execute_job``
    payload (with the attempt's in-worker faults under ``"_fault"``)
    and the socket-path faults only the service transport fires."""

    index: int
    job_id: str
    attempt: int
    payload: dict[str, Any]
    network_faults: list[dict[str, Any]]


def error_record(
    payload: dict[str, Any], job_id: str, error: str, **extra: Any
) -> dict[str, Any]:
    """The failed-job record for a job payload, in every transport's
    shape: ``execute_job``'s captured exceptions and the book's
    synthetic timeouts, crashes and lease expiries alike."""
    return {
        "job_id": job_id,
        "kind": payload.get("kind", "model"),
        "model": payload.get("model", "?"),
        "model_seed": payload.get("model_seed"),
        "image_seed": payload.get("image_seed"),
        "n_images": payload.get("n_images"),
        "config": payload.get("config", {}),
        "status": "error",
        "result": None,
        "error": error,
        **extra,
    }


class JobBook:
    """One campaign's jobs from triage to the final result.

    Constructing a book triages the campaign (journal, then cache), so
    it raises :class:`SpecDriftError` when the journal belongs to a
    different spec.

    Attributes:
        name: campaign name ("jobs" for a plain job list).
        jobs / job_ids: the campaign's jobs in grid order.
        index_of: job_id -> grid index.
        records: grid index -> final record, for every settled job
            (resumed and cached ones included).
        cached / resumed: grid indices served by triage.
        misses: jobs triage left to execute.
        done / failed: fresh jobs settled, and those that settled as
            errors.
        retries: re-queues after transient-class failures.
        quarantined: job_ids whose transient retries ran out.
        synthetic: :meth:`fail` calls that settled, by error class.

    ``on_final(book, record)`` is called as each fresh job's final
    record lands.  It receives the book rather than closing over it,
    so a finished book is freed by reference counting.
    """

    def __init__(
        self,
        sweep: SweepSpec | list[JobSpec],
        *,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        journal: CampaignJournal | None = None,
        max_retries: int = 0,
        backoff_seed: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        fault_plan: FaultPlan | None = None,
        on_final: Callable[["JobBook", dict[str, Any]], None] | None = None,
    ) -> None:
        spec = sweep if isinstance(sweep, SweepSpec) else None
        self.name = spec.name if spec is not None else "jobs"
        self.jobs = spec.expand() if spec is not None else list(sweep)
        self.job_ids = [job.job_id for job in self.jobs]
        self.index_of = {job_id: i for i, job_id in enumerate(self.job_ids)}
        self.cache = cache
        self.store = store
        self.journal = journal
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.on_final = on_final
        self._backoff = lambda job_id, attempt: backoff_seconds(
            backoff_seed, job_id, attempt, backoff_base, backoff_cap
        )
        self.records: dict[int, dict[str, Any]] = {}
        self.cached: set[int] = set()
        self.resumed: set[int] = set()
        self.done = self.failed = self.retries = 0
        self.quarantined: list[str] = []
        self.synthetic: Counter[str] = Counter()
        self._attempt = [0] * len(self.jobs)
        self._live: dict[int, int] = {}  # index -> the attempt out
        # (not_before, seq, index) of queued jobs; an entry whose job
        # settled meanwhile is dropped when it surfaces.
        self._queue: list[tuple[float, int, int]] = []
        self._seq = 0
        self._corrupt_before = 0 if cache is None else cache.corrupt_dropped

        journaled = self._open_journal(spec)
        for index, job in enumerate(self.jobs):
            record = journaled.get(self.job_ids[index])
            if record is not None:
                self.resumed.add(index)
            else:
                record = None if cache is None else cache.get_job(job)
                if record is None:
                    self._enqueue(index, float("-inf"))
                    continue
                self.cached.add(index)
            self.records[index] = record
        self.misses = len(self._queue)

    def _open_journal(
        self, spec: SweepSpec | None
    ) -> dict[str, dict[str, Any]]:
        """Start or resume the journal; returns its completed jobs."""
        journal = self.journal
        if journal is None:
            return {}
        if not journal.exists():
            journal.start(
                campaign_id(spec) if spec is not None else self.name,
                self.name,
                spec.to_dict() if spec is not None else None,
                None if self.store is None else str(self.store.path),
            )
            return {}
        journal.recover()
        if spec is not None:
            entry = journal.start_entry() or {}
            journaled = entry.get("campaign_id")
            expected = campaign_id(spec)
            if journaled is not None and journaled != expected:
                raise SpecDriftError(
                    f"journal {journal.path} records campaign "
                    f"{journaled!r} ({entry.get('campaign')!r}), but "
                    f"this spec derives {expected!r} ({spec.name!r}); "
                    f"the grid, seed, or name has drifted since the "
                    f"journal was written — resume with the original "
                    f"spec, or start a fresh campaign (delete the "
                    f"journal or change --journal)"
                )
        done = journal.completed()
        journal.append({"event": "resume"})
        return done

    # -- dispatch --------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every job has a final record."""
        return len(self.records) == len(self.jobs)

    @property
    def pending(self) -> int:
        """Jobs queued for dispatch (backing-off ones included)."""
        return sum(entry[2] not in self.records for entry in self._queue)

    def _enqueue(self, index: int, not_before: float) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (not_before, self._seq, index))

    def ready_at(self) -> float | None:
        """When the next queued job becomes dispatchable, or None."""
        queue = self._queue
        while queue and queue[0][2] in self.records:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def next(self, now: float) -> Dispatch | None:
        """Dispatch the next job whose backoff has passed, or None.

        Fresh jobs go first in grid order; re-queued ones follow in
        the order their backoff ends.
        """
        ready = self.ready_at()
        if ready is None or ready > now:
            return None
        index = heapq.heappop(self._queue)[2]
        job_id = self.job_ids[index]
        self._attempt[index] += 1
        attempt = self._live[index] = self._attempt[index]
        payload = self.jobs[index].to_dict()
        actions = (
            self.fault_plan.actions_for(job_id, index, attempt)
            if self.fault_plan is not None
            else []
        )
        in_worker = [a.to_dict() for a in actions if not a.is_network]
        if in_worker:
            payload["_fault"] = in_worker
        network = [a.to_dict() for a in actions if a.is_network]
        return Dispatch(index, job_id, attempt, payload, network)

    # -- settle ----------------------------------------------------------

    def settle(
        self,
        index: int,
        attempt: int | None,
        record: dict[str, Any],
        now: float,
    ) -> str:
        """Take one attempt's record; returns the outcome constant.

        ``attempt=None`` means the job's current attempt.  An ok record
        settles the job whichever attempt produced it (execution is
        deterministic, so every attempt would produce it); an error
        settles or re-queues only the attempt still out.
        """
        if index in self.records:
            return DUPLICATE
        if record.get("status") == "ok":
            self._finalize(index, record)
            return FINAL
        if attempt is None:
            attempt = self._attempt[index]
        if self._live.get(index) != attempt:
            return STALE
        del self._live[index]
        error_class = record.get("error_class") or self._classify(
            index, record
        )
        transient = error_class != "permanent"
        job_id = self.job_ids[index]
        if transient and attempt <= self.max_retries:
            self.retries += 1
            self._enqueue(index, now + self._backoff(job_id, attempt))
            return RETRY
        if transient:
            self.quarantined.append(job_id)
        self._finalize(
            index,
            {
                **record,
                "error_class": error_class,
                "attempts": attempt,
                "quarantined": transient,
            },
        )
        return FINAL

    def fail(
        self,
        index: int,
        attempt: int,
        error: str,
        error_class: str,
        now: float,
    ) -> str:
        """Settle a failure no worker reported (timeout, crash, lease).

        The synthetic record has the shape of ``execute_job``'s error
        records, so reports treat a dead worker like a failed job.
        """
        record = error_record(
            self.jobs[index].to_dict(),
            self.job_ids[index],
            error,
            error_class=error_class,
        )
        outcome = self.settle(index, attempt, record, now)
        if outcome in (FINAL, RETRY):
            self.synthetic[error_class] += 1
        return outcome

    def _classify(self, index: int, record: dict[str, Any]) -> str:
        try:
            transients = job_kind(self.jobs[index].kind).transient_errors
        except Exception:  # an unregistered kind has no extras
            transients = ()
        return classify_error(record.get("error"), transients)

    def _finalize(self, index: int, record: dict[str, Any]) -> None:
        self.records[index] = record
        self._live.pop(index, None)
        self.done += 1
        if record.get("status") == "ok":
            if self.journal is not None:
                # Journal completions the moment they happen — the
                # crash-safety contract — in their final store form.
                self.journal.record_job(
                    {**record, "cached": False, "campaign": self.name}
                )
            if self.cache is not None:
                self.cache.put_job(self.jobs[index], record)
        else:
            self.failed += 1
        if self.on_final is not None:
            self.on_final(self, record)

    # -- result ----------------------------------------------------------

    def result(
        self,
        *,
        workers: int,
        elapsed_seconds: float,
        interrupted: bool = False,
        extras: dict[str, Any] | None = None,
    ) -> CampaignResult:
        """Assemble, store and journal the campaign's result.

        Jobs without a final record (an interrupted run) are listed as
        ``remaining``.  ``extras`` are a transport's own counters,
        merged into the metrics next to the ``cache.*`` / ``runner.*``
        family every transport shares.  Cached records contribute their
        stored metrics too: they describe the same deterministic
        simulations, so a fully cached campaign reports the same
        simulator counter families as a cold one.
        """
        out = CampaignResult(
            name=self.name,
            hits=len(self.cached),
            misses=self.misses,
            workers=workers,
            resumed=len(self.resumed),
            retries=self.retries,
            timeouts=self.synthetic["timeout"],
            worker_crashes=self.synthetic["worker_crash"],
            quarantined=list(self.quarantined),
            interrupted=interrupted,
            elapsed_seconds=elapsed_seconds,
        )
        metrics: dict[str, Any] = {}
        for index, job in enumerate(self.jobs):
            if index not in self.records:
                out.remaining.append(self.job_ids[index])
                continue
            record = dict(self.records[index])
            record["cached"] = index in self.cached
            record["campaign"] = self.name
            if index in self.resumed:
                record["resumed"] = True
            if record.get("status") == "error":
                out.errors += 1
                out.failures.append(
                    {
                        "job_id": record["job_id"],
                        "kind": record.get("kind", "model"),
                        "label": job.label(),
                        "error": record.get("error"),
                        "error_class": record["error_class"],
                        "attempts": record["attempts"],
                        "quarantined": record["quarantined"],
                    }
                )
            snapshot = (record.get("result") or {}).get("metrics")
            if snapshot:
                merge_metrics(metrics, snapshot)
            out.records.append(record)
        merge_metrics(
            metrics,
            {
                "cache.hits": out.hits,
                "cache.misses": out.misses,
                "cache.errors": out.errors,
                "cache.corrupt_entries": (
                    self.cache.corrupt_dropped - self._corrupt_before
                    if self.cache is not None
                    else 0
                ),
                "runner.jobs": out.n_jobs,
                "runner.workers.peak": min(workers, out.misses),
                "runner.resumed": out.resumed,
                "runner.retries": out.retries,
                "runner.timeouts": out.timeouts,
                "runner.worker_crashes": out.worker_crashes,
                "runner.quarantined": len(out.quarantined),
                **(extras or {}),
            },
        )
        out.metrics = metrics
        if self.store is not None:
            self.store.extend(out.records)
        if self.journal is not None:
            event = "checkpoint" if interrupted else "end"
            self.journal.append(
                {"event": event, "report": out.failure_report()}
            )
        return out
