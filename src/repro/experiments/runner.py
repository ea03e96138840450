"""Campaign execution: one job book, three transports.

A :class:`CampaignRunner` runs a sweep (or a job list) as a
:class:`~repro.experiments.book.JobBook`, which holds every job rule:
journal and cache triage, attempts, retry with seeded backoff,
quarantine, first-completion-wins and the grid-order result.  The
runner only executes the book's dispatches, over one of two
transports (the third is the socket service,
:class:`~repro.service.server.SweepServer`):

* **Inline** (``workers=1``, no timeout, no fault plan) — jobs run in
  this process, and variants of one mesh share one simulated NoC link
  schedule (:func:`~repro.accelerator.simulator.schedule_sharing`).
* **Supervised** — one child process per in-flight job.  A child past
  ``job_timeout`` is killed and settles as a ``JobTimeout``; one that
  dies without a result (``os._exit``, SIGKILL, OOM) settles as a
  ``WorkerCrash``.  Both are transient, so they retry.

Job records are deterministic (no timestamps, no host state), so one
worker and eight store byte-identical records — the property the
cache, the journal and the chaos tests rely on.  ``run`` never raises
for a failed job: the campaign completes (or checkpoints on
SIGINT/SIGTERM) with a structured :meth:`CampaignResult.
failure_report`, and failed jobs land in the store uncached, so they
retry next run.  Injected faults (:mod:`repro.experiments.faults`)
ride the payload into the real worker path they test.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterator

from repro.accelerator.simulator import schedule_sharing
from repro.experiments.book import (
    CampaignResult,
    Dispatch,
    JobBook,
    SpecDriftError,
    error_record,
)
from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultPlan, apply_fault_actions
from repro.experiments.kinds import job_kind
from repro.experiments.spec import JobSpec, SweepSpec
from repro.experiments.store import CampaignJournal, ResultStore
from repro.obs.metrics import active_registry, metrics_suspended

__all__ = [
    "execute_job",
    "CampaignResult",
    "CampaignRunner",
    "SpecDriftError",
    "sigterm_as_interrupt",
]


@contextlib.contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Route SIGTERM through the KeyboardInterrupt graceful path.

    Container orchestrators and batch schedulers stop jobs with
    SIGTERM; without this, a terminated campaign dies mid-write
    instead of checkpointing its journal the way Ctrl-C does.  Only
    the main thread may install signal handlers — elsewhere (a server
    thread running a campaign) this is a no-op and the process-level
    handler owns termination.  The previous handler is restored on
    exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def execute_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one serialized job; never raises (though it may be killed).

    Module-level (not a method) so worker processes can import it, and
    dict-in/dict-out so every transport — inline call, fork, spawn —
    carries the same picklable payload.  A ``"_fault"`` key smuggles
    injected :mod:`~repro.experiments.faults` actions into the worker;
    they fire between payload decode and kind dispatch, inside the
    exception net (except for kills, which bypass it by design).
    """
    payload = dict(payload)
    fault_actions = payload.pop("_fault", None)
    try:
        job = JobSpec.from_dict(payload)
        if fault_actions:
            apply_fault_actions(fault_actions)
        result = job_kind(job.kind).execute(job)
        return {
            "job_id": job.job_id,
            "kind": job.kind,
            "model": job.model,
            "model_seed": job.model_seed,
            "image_seed": job.image_seed,
            "n_images": job.n_images,
            "config": job.config.to_dict(),
            "status": "ok",
            "result": result,
            "error": None,
        }
    except Exception as exc:
        try:
            job_id = JobSpec.from_dict(payload).job_id
        except Exception:
            job_id = "?"
        return error_record(
            payload,
            job_id,
            f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def _worker_main(conn, payload: dict[str, Any]) -> None:
    """Child-process entry: run the job, pipe the record back, exit.

    SIGINT is ignored in workers — a Ctrl-C belongs to the supervisor,
    which checkpoints the journal and kills children deliberately
    instead of letting the process group race to die.  SIGTERM gets its
    default action back: a forked child inherits the parent's
    :func:`sigterm_as_interrupt` handler, and the supervisor's kill
    must end the child, not raise KeyboardInterrupt inside it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    record = execute_job(payload)
    try:
        conn.send(record)
        conn.close()
    except Exception:  # pragma: no cover - parent died mid-send
        os._exit(1)


def _run_supervised(
    book: JobBook, workers: int, job_timeout: float | None
) -> bool:
    """Process transport: one daemonic child per in-flight job.

    Unlike a ``multiprocessing.Pool``, it can kill a hung child at its
    deadline and see a dead one's exit code; the :class:`JobBook`
    decides what each outcome means.  The per-job fork is noise at
    simulation-scale job costs (see the bench regression gate).
    Returns True when a KeyboardInterrupt stopped the run: in-flight
    children are killed and their jobs stay unsettled.
    """
    ctx = multiprocessing.get_context()
    running: dict[Any, tuple[Dispatch, Any, float | None]] = {}

    def launch(task: Dispatch) -> None:
        # A child has no socket to fault: only the payload's in-worker
        # faults fire here, never the task's network faults.
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, task.payload), daemon=True
        )
        proc.start()
        child_conn.close()  # keep one write end, so EOF means death
        deadline = (
            None if job_timeout is None else time.monotonic() + job_timeout
        )
        running[parent_conn] = (task, proc, deadline)

    def collect(conn) -> None:
        task, proc, _ = running.pop(conn)
        try:
            record = conn.recv()
        except (EOFError, OSError):
            record = None
        finally:
            conn.close()
        proc.join(timeout=5.0)
        if isinstance(record, dict):
            book.settle(task.index, task.attempt, record, time.monotonic())
            return
        book.fail(
            task.index,
            task.attempt,
            f"WorkerCrash: worker exited with code {proc.exitcode} "
            f"before returning a result (attempt {task.attempt})",
            "worker_crash",
            time.monotonic(),
        )

    def reap_timeouts() -> None:
        now = time.monotonic()
        for conn, (task, proc, deadline) in list(running.items()):
            if deadline is None or now < deadline:
                continue
            del running[conn]
            _kill(proc)
            conn.close()
            book.fail(
                task.index,
                task.attempt,
                f"JobTimeout: exceeded the {job_timeout:g}s wall-clock "
                f"budget (attempt {task.attempt})",
                "timeout",
                time.monotonic(),
            )

    try:
        while not book.finished:
            while len(running) < workers:
                task = book.next(time.monotonic())
                if task is None:
                    break
                launch(task)
            marks = [d for _, _, d in running.values() if d is not None]
            ready = book.ready_at()
            if ready is not None:
                marks.append(ready)
            wake = (
                max(0.0, min(marks) - time.monotonic()) if marks else None
            )
            if not running:
                # Everything is sitting out a backoff window.
                time.sleep(wake or 0.0)
                continue
            for conn in mp_connection.wait(list(running), wake):
                collect(conn)
            reap_timeouts()
    except KeyboardInterrupt:
        for conn, (_, proc, _) in running.items():
            _kill(proc)
            conn.close()
        return True
    return False


def _kill(proc) -> None:
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM blocked
        proc.kill()
        proc.join(timeout=5.0)


class CampaignRunner:
    """Executes campaigns against a cache, store, journal, and workers.

    Attributes:
        cache: result cache, or None to always simulate.
        store: JSONL store every record is appended to, or None.
        workers: concurrent in-flight jobs; 1 executes inline (no
            subprocesses) unless a timeout or fault plan forces the
            supervised path.
        job_timeout: per-attempt wall-clock budget in seconds; None
            disables (requires the supervised path to enforce).
        max_retries: transient-failure retries per job (0 = fail on
            first error, the historical behaviour).
        backoff_base / backoff_cap / backoff_seed: seeded exponential
            backoff shape (see :func:`~repro.experiments.faults.
            backoff_seconds`).
        fault_plan: deterministic fault injection for chaos testing.
        journal: campaign journal for crash-safe resume, or None.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        workers: int = 1,
        job_timeout: float | None = None,
        max_retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_seed: int = 0,
        fault_plan: FaultPlan | None = None,
        journal: CampaignJournal | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.cache = cache
        self.store = store
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_seed = backoff_seed
        self.fault_plan = fault_plan
        self.journal = journal

    def run(
        self,
        sweep: SweepSpec | list[JobSpec],
        progress: Callable[[str], None] | None = None,
        telemetry: Callable[[dict[str, Any]], None] | None = None,
    ) -> CampaignResult:
        """Execute every job of a sweep; returns the campaign result.

        Records come back in grid order regardless of which points hit
        the cache or which worker finished first.  ``telemetry``, if
        given, receives one sample dict per *freshly executed* job as
        its final outcome settles (keys: ``job_id``, ``status``,
        ``done``, ``total``, ``cached``, ``failed``, ``running``,
        ``elapsed_seconds``, ``eta_seconds``) — the live feed behind
        ``repro sweep --progress``.  ``progress`` keeps its historical
        meaning: one formatted line per record, in grid order, after
        execution finishes.

        Job failures of any class never raise: the campaign completes
        with partial results and a structured
        :meth:`CampaignResult.failure_report`.  A KeyboardInterrupt —
        or a SIGTERM, routed through the same path when running on the
        main thread — checkpoints the journal and returns the partial
        result with ``interrupted`` set instead of propagating.

        Raises :class:`SpecDriftError` when resuming against a journal
        whose recorded campaign_id no longer matches the spec.
        """
        with sigterm_as_interrupt():
            return self._run(sweep, progress, telemetry)

    def _run(
        self,
        sweep: SweepSpec | list[JobSpec],
        progress: Callable[[str], None] | None,
        telemetry: Callable[[dict[str, Any]], None] | None,
    ) -> CampaignResult:
        started = time.perf_counter()

        def on_final(book: JobBook, record: dict[str, Any]) -> None:
            if telemetry is None:
                return
            done, n_fresh = book.done, book.misses
            elapsed = time.perf_counter() - started
            telemetry(
                {
                    "job_id": record.get("job_id"),
                    "status": record.get("status"),
                    "done": done,
                    "total": n_fresh,
                    "cached": len(book.cached) + len(book.resumed),
                    "failed": book.failed,
                    "running": min(self.workers, n_fresh - done),
                    "elapsed_seconds": elapsed,
                    "eta_seconds": (
                        elapsed / done * (n_fresh - done) if done else None
                    ),
                }
            )

        book = JobBook(
            sweep,
            cache=self.cache,
            store=self.store,
            journal=self.journal,
            max_retries=self.max_retries,
            backoff_seed=self.backoff_seed,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            fault_plan=self.fault_plan,
            on_final=on_final,
        )
        supervised = (
            self.workers > 1
            or self.job_timeout is not None
            or self.fault_plan is not None
        )
        if supervised:
            interrupted = _run_supervised(
                book, self.workers, self.job_timeout
            )
            schedules = (0, 0)
        else:
            interrupted, schedules = self._execute_inline(book)
        out = book.result(
            workers=self.workers,
            elapsed_seconds=time.perf_counter() - started,
            interrupted=interrupted,
        )
        out.schedules_simulated, out.schedules_shared = schedules
        registry = active_registry()
        if registry is not None:
            registry.merge(out.metrics)
        if progress is not None:
            for record in out.records:
                progress(_progress_line(record))
        return out

    def _execute_inline(self, book: JobBook) -> tuple[bool, tuple[int, int]]:
        """Inline transport: run each dispatch in this process.

        Returns ``(interrupted, (schedules simulated, shared))``.  Any
        active registry is suspended meanwhile: the post-run aggregate
        is the one publication path, as for supervised children.  Jobs
        share NoC link schedules (:func:`~repro.accelerator.simulator.
        schedule_sharing`), so the variants of one mesh simulate the
        network once.
        """
        simulated = shared = 0
        try:
            with metrics_suspended(), schedule_sharing() as scope:
                while not book.finished:
                    task = book.next(time.monotonic())
                    if task is None:
                        time.sleep(
                            max(0.0, book.ready_at() - time.monotonic())
                        )
                        continue
                    before = scope.simulated, scope.shared
                    record = execute_job(task.payload)
                    if scope.simulated > before[0]:
                        simulated += 1
                    elif scope.shared > before[1]:
                        shared += 1
                    book.settle(
                        task.index, task.attempt, record, time.monotonic()
                    )
        except KeyboardInterrupt:
            return True, (simulated, shared)
        return False, (simulated, shared)


def _progress_line(record: dict[str, Any]) -> str:
    handler = job_kind(record.get("kind", "model"))
    label = handler.record_label(record)
    origin = (
        "journal"
        if record.get("resumed")
        else "cache" if record.get("cached") else "sim"
    )
    if record.get("status") != "ok":
        return f"  {label}: ERROR ({record.get('error')})"
    return f"  {label} [{origin}]: {handler.result_summary(record['result'])}"
