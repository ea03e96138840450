"""The campaign job book against a small reference model.

A ``hypothesis.stateful`` machine drives one :class:`JobBook` with a
fake clock the way the three transports do — claims, ok results,
transient and permanent errors, lease/timeout expiries, stale and
duplicate results, interrupts — and checks each outcome against a
plain-dict model of the rules.  No job executes: records are built by
hand, so thousands of steps run in seconds.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.experiments.book import (
    DUPLICATE,
    FINAL,
    RETRY,
    STALE,
    JobBook,
    SpecDriftError,
)
from repro.experiments.cache import ResultCache
from repro.experiments.faults import backoff_seconds
from repro.experiments.spec import SweepSpec
from repro.experiments.store import CampaignJournal, ResultStore

SPEC = SweepSpec(
    name="book",
    model="lenet",
    base={"max_tasks_per_layer": 1},
    axes={"mesh": ["2x2:1", "3x3:1"], "ordering": ["O0", "O2"]},
)
JOBS = SPEC.expand()
IDS = [job.job_id for job in JOBS]


def ok(index: int, attempt: int) -> dict:
    return {"job_id": IDS[index], "status": "ok", "result": {"by": attempt}}


def error(index: int, message: str) -> dict:
    return {"job_id": IDS[index], "status": "error", "error": message}


class BookMachine(RuleBasedStateMachine):
    @initialize(max_retries=st.integers(0, 2), seed=st.integers(0, 3))
    def start(self, max_retries: int, seed: int) -> None:
        self.max_retries = max_retries
        self.seed = seed
        self.now = 0.0
        self.finals: Counter[str] = Counter()
        self.book = JobBook(
            JOBS,
            max_retries=max_retries,
            backoff_seed=seed,
            on_final=lambda book, record: self.finals.update(
                [record["job_id"]]
            ),
        )
        # The reference model.
        self.seq = 0
        self.queued = {}  # index -> (not_before, enqueue order)
        for index in range(len(JOBS)):
            self.enqueue(index, float("-inf"))
        self.attempt = [0] * len(JOBS)
        self.live = {}  # index -> the attempt still out
        self.out = []  # (index, attempt) dispatched, not yet reported
        self.settled = {}  # index -> expected final record
        self.quarantined = []
        self.retries = 0

    def enqueue(self, index: int, not_before: float) -> None:
        self.seq += 1
        self.queued[index] = (not_before, self.seq)

    def expect_error(
        self, index: int, attempt: int, record: dict, outcome: str
    ) -> dict | None:
        """Check the book's verdict on an error for ``(index,
        attempt)``; returns the expected final record, if it settled."""
        if index in self.settled:
            assert outcome == DUPLICATE
            return None
        if self.live.get(index) != attempt:
            assert outcome == STALE
            return None
        del self.live[index]
        error_class = record.get("error_class") or (
            "transient"
            if record["error"].startswith("TransientFaultError")
            else "permanent"
        )
        transient = error_class != "permanent"
        if transient and attempt <= self.max_retries:
            assert outcome == RETRY
            self.retries += 1
            delay = backoff_seconds(self.seed, IDS[index], attempt)
            self.enqueue(index, self.now + delay)
            return None
        assert outcome == FINAL
        if transient:
            self.quarantined.append(IDS[index])
        self.settled[index] = {
            **record,
            "error_class": error_class,
            "attempts": attempt,
            "quarantined": transient,
        }
        return self.settled[index]

    # -- rules -----------------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]))
    def tick(self, dt: float) -> None:
        self.now += dt

    @rule()
    def claim(self) -> None:
        task = self.book.next(self.now)
        ready = {i: k for i, k in self.queued.items() if k[0] <= self.now}
        if task is None:
            assert not ready, "a ready job was not dispatched"
            return
        assert task.index in ready, "dispatched before its backoff"
        assert task.index == min(ready, key=ready.get)
        del self.queued[task.index]
        self.attempt[task.index] += 1
        assert task.attempt == self.attempt[task.index]
        assert task.attempt <= self.max_retries + 1
        assert task.job_id == IDS[task.index]
        assert task.payload == JOBS[task.index].to_dict()
        self.live[task.index] = task.attempt
        self.out.append((task.index, task.attempt))

    @precondition(lambda self: self.out)
    @rule(data=st.data())
    def ok_result(self, data) -> None:
        index, attempt = data.draw(st.sampled_from(self.out))
        self.out.remove((index, attempt))
        record = ok(index, attempt)
        outcome = self.book.settle(index, attempt, record, self.now)
        if index in self.settled:
            assert outcome == DUPLICATE
            return
        # First completion wins, whichever attempt produced it.
        assert outcome == FINAL
        self.settled[index] = record
        self.live.pop(index, None)
        self.queued.pop(index, None)

    @precondition(lambda self: self.out)
    @rule(data=st.data(), transient=st.booleans(), tagged=st.booleans())
    def error_result(self, data, transient: bool, tagged: bool) -> None:
        index, attempt = data.draw(st.sampled_from(self.out))
        self.out.remove((index, attempt))
        record = error(
            index,
            "TransientFaultError: blip" if transient else "ValueError: bug",
        )
        # A result without an attempt number counts as the current one.
        current = attempt == self.attempt[index]
        sent = attempt if tagged or not current else None
        outcome = self.book.settle(index, sent, record, self.now)
        self.expect_error(index, attempt, record, outcome)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def expire(self, data) -> None:
        """A lease lapses (or a timeout fires) on the live attempt; its
        worker may still report later, as a stale or late result."""
        index = data.draw(st.sampled_from(sorted(self.live)))
        attempt = self.live[index]
        message = f"LeaseExpired: attempt {attempt}"
        outcome = self.book.fail(
            index, attempt, message, "lease_expired", self.now
        )
        expected = self.expect_error(
            index,
            attempt,
            {"error": message, "error_class": "lease_expired"},
            outcome,
        )
        if expected is not None:
            # The synthetic record also carries the job's own fields.
            actual = self.book.records[index]
            assert {k: actual[k] for k in expected} == expected
            assert (actual["job_id"], actual["status"]) == (
                IDS[index],
                "error",
            )
            self.settled[index] = actual

    @precondition(
        lambda self: any(
            i not in self.settled and self.live.get(i) != a
            for i, a in self.out
        )
    )
    @rule(data=st.data())
    def stale_result(self, data) -> None:
        index, attempt = data.draw(
            st.sampled_from(
                [
                    (i, a)
                    for i, a in self.out
                    if i not in self.settled and self.live.get(i) != a
                ]
            )
        )
        pending, retries = self.book.pending, self.book.retries
        record = error(index, "TransientFaultError: late")
        assert self.book.settle(index, attempt, record, self.now) == STALE
        assert (self.book.pending, self.book.retries) == (pending, retries)

    @precondition(lambda self: self.settled)
    @rule(data=st.data(), as_ok=st.booleans())
    def duplicate_result(self, data, as_ok: bool) -> None:
        index = data.draw(st.sampled_from(sorted(self.settled)))
        attempt = self.attempt[index]
        if as_ok:
            outcome = self.book.settle(
                index, None, ok(index, attempt), self.now
            )
        else:
            outcome = self.book.fail(
                index, attempt, "WorkerCrash: late", "worker_crash", self.now
            )
        assert outcome == DUPLICATE

    @rule()
    def interrupt(self) -> None:
        result = self.book.result(
            workers=2, elapsed_seconds=0.0, interrupted=True
        )
        done = sorted(self.settled)
        assert [r["job_id"] for r in result.records] == [IDS[i] for i in done]
        assert result.remaining == [
            IDS[i] for i in range(len(JOBS)) if i not in self.settled
        ]
        assert result.interrupted
        assert result.errors == sum(
            r["status"] == "error" for r in self.settled.values()
        )
        assert result.retries == self.retries
        assert result.quarantined == self.quarantined
        assert set(result.metrics) >= {
            "runner.timeouts",
            "runner.worker_crashes",
            "cache.hits",
        }

    # -- invariants ------------------------------------------------------

    @invariant()
    def settles_at_most_once(self) -> None:
        assert all(count == 1 for count in self.finals.values())
        assert set(self.finals) == {IDS[i] for i in self.settled}
        assert self.book.records == self.settled
        assert self.book.finished == (len(self.settled) == len(JOBS))

    @invariant()
    def quarantine_iff_retries_ran_out(self) -> None:
        assert self.book.quarantined == self.quarantined
        for record in self.book.records.values():
            if record["status"] != "error":
                continue
            transient = record["error_class"] != "permanent"
            assert record["quarantined"] == transient
            if transient:
                assert record["attempts"] == self.max_retries + 1
            assert record["attempts"] <= self.max_retries + 1


TestJobBookModel = BookMachine.TestCase
TestJobBookModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


class TestTriage:
    def test_journal_then_cache_then_pending(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put_job(JOBS[0], ok(0, 1))
        journal = CampaignJournal(tmp_path / "c.journal")
        JobBook(SPEC, journal=journal)  # writes the start entry
        journal.record_job(ok(1, 1))
        store = ResultStore(tmp_path / "c.jsonl")

        book = JobBook(SPEC, cache=cache, journal=journal, store=store)
        assert (book.resumed, book.cached) == ({1}, {0})
        assert (book.misses, book.pending) == (2, 2)
        assert journal.entries()[-1] == {"event": "resume"}

        while (task := book.next(0.0)) is not None:
            book.settle(task.index, task.attempt, ok(task.index, 1), 0.0)
        result = book.result(workers=1, elapsed_seconds=0.0)
        assert [r["job_id"] for r in result.records] == IDS
        assert [r["cached"] for r in result.records] == [
            True, False, False, False,
        ]
        assert result.records[1]["resumed"] is True
        assert len(store.load()) == 4
        assert journal.entries()[-1]["event"] == "end"
        # Fresh ok records were cached as they settled.
        assert all(cache.contains(job) for job in JOBS[2:])

    def test_drifted_spec_is_refused(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.journal")
        JobBook(SPEC, journal=journal)
        drifted = SweepSpec(**{**SPEC.to_dict(), "seed": SPEC.seed + 1})
        with pytest.raises(SpecDriftError, match="drifted"):
            JobBook(drifted, journal=journal)
