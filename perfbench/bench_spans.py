"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` records one span per call of every wrapped function:
its name, start, end, parent span and the job it ran under.  Spans
live in flat ``array`` columns (about 28 bytes each), so a traced
Fig. 12 pass of some 650k spans stays small, and :meth:`Tracer.save`
writes them out once the benchmark ends.

Wrapping happens from the benchmark's side only: :func:`instrument`
swaps the public functions of each layer for span-recording wrappers
and puts the originals back when the ``with`` block ends.  Nothing in
``src/`` knows about the tracer.

Spans of a single-threaded run nest like the call stack, so a span's
self time is its duration minus the summed durations of its children.
:func:`self_times` checks that nesting before it relies on it.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["Tracer", "NO_SPANS", "instrument", "self_times", "SPAN_METRICS"]


# Span name -> the per-layer self-time metric it feeds.  Spans named
# "bench.*" are the benchmark's own code: they feed no layer metric
# and make up the remainder in the accounting check.
SPAN_METRICS = {
    "noc.step": "noc.step_self_s",
    "noc.alloc_traverse": "noc.alloc_traverse_s",
    "noc.transmit": "noc.transmit_s",
    "noc.inject": "noc.inject_s",
    "noc.eject": "noc.eject_s",
    "noc.send": "noc.send_s",
    "accelerator.extract_tasks": "accelerator.extract_tasks_s",
    "accelerator.run": "accelerator.run_self_s",
    "accelerator.pe_sink": "accelerator.pe_sink_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "bits.score": "bits.score_s",
    "experiments.campaign": "experiments.runner_self_s",
    "experiments.job": "experiments.runner_self_s",
    "experiments.cache_get": "experiments.cache_get_s",
    "experiments.cache_put": "experiments.cache_put_s",
    "experiments.store_append": "experiments.store_append_s",
    "dnn.train": "dnn.train_s",
}


class Tracer:
    """Span and counter recorder for one traced pass (or set-up)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.jobs: list[str] = []
        self.counters: dict[str, int | float] = {}
        self._stack = [-1]
        self._job = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``on_result(result, args, kwargs)`` runs after the span has
        closed, so the counting it does is charged to the parent span,
        never to the layer being measured.
        """
        nid = self.name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer._job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[None]:
        """A span around a block of the benchmark's own code.

        With ``job`` set, every span opened inside the block carries
        that job id.
        """
        previous_job = self._job
        if job is not None:
            self._job = self.begin_job(job)
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._job = previous_job

    def begin_job(self, job_id: str) -> int:
        self.jobs.append(job_id)
        return len(self.jobs) - 1

    def set_job(self, index: int) -> int:
        """Make ``index`` the current job; returns the previous one."""
        previous, self._job = self._job, index
        return previous

    def count(self, name: str, value: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span_counts(self) -> dict[str, int]:
        """Number of spans recorded under each name."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        counts = np.bincount(ids, minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = self_times(
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
        )
        ids = np.frombuffer(self.name, dtype=np.int32)
        sums = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: float(s) for n, s in zip(self.names, sums)}

    def durations(self, name: str) -> list[float]:
        """Durations of every span with this name, in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        ids = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ids == nid].tolist()

    def save(self, path: Any, meta: dict[str, Any]) -> None:
        """Write every span, with the name and job tables, as ``.npz``."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            names=np.array(json.dumps(self.names)),
            jobs=np.array(json.dumps(self.jobs)),
            meta=np.array(json.dumps(meta)),
        )


class _NoSpans:
    """Stand-in for a tracer on untraced runs: spans cost nothing."""

    def span(self, name: str, job: str | None = None):
        return contextlib.nullcontext()


NO_SPANS = _NoSpans()


def self_times(
    parent: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Self time of every span: duration minus its children's.

    Args:
        parent: index of each span's parent span, -1 for a root; a
            parent is always recorded before its children.
        start / end: span bounds in seconds.

    Raises:
        ValueError: when the spans do not nest — a child outside its
            parent's interval, or two siblings that overlap — because
            then summing child durations would count time twice.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    duration = end - start
    if (duration < 0).any():
        raise ValueError("a span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    owner = parent[child]
    if (owner >= child).any():
        raise ValueError("a span's parent must be recorded before it")
    if (start[child] < start[owner]).any() or (end[child] > end[owner]).any():
        raise ValueError("a child span lies outside its parent")
    order = np.lexsort((start[child], owner))
    sib, sib_owner = child[order], owner[order]
    same = sib_owner[1:] == sib_owner[:-1]
    if (end[sib[:-1]][same] > start[sib[1:]][same]).any():
        raise ValueError("sibling spans overlap")
    covered = np.bincount(owner, weights=duration[child], minlength=len(parent))
    return duration - covered


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap each layer's public functions with ``tracer`` spans.

    The originals are restored on exit, so untraced passes run the
    program exactly as a user would.  Counters are taken at the same
    boundaries as the spans; each executed job's deterministic
    ``RunResult`` counts (``event.*``, ``router.*``, ``codec.*`` and the
    task, hop and cycle totals) are folded in under ``result.*``.
    """
    import repro.bits as bits
    from repro.accelerator import simulator
    from repro.accelerator.flitize import TaskCodec
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.experiments.store import ResultStore
    from repro.noc.interface import NetworkInterface
    from repro.noc.network import Network
    from repro.noc.router import Router
    from repro.obs.metrics import merge_metrics
    from repro.workloads import streams

    def count_tasks(layers: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("accelerator.tasks", sum(len(lt.tasks) for lt in layers))

    def count_flits(encoded: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("codec.encoded_flits", sum(len(e.payloads) for e in encoded))

    def count_scored(score: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("bits.scored_flits", len(args[0]))

    def count_campaign(result: Any, args: tuple, kwargs: dict) -> None:
        # Counted per campaign, not per cache lookup: the runner skips
        # lookups altogether while the cache is still empty.
        tracer.count("experiments.jobs", result.n_jobs)
        tracer.count("experiments.cache_hits", result.hits)

    def fold_result(record: dict, args: tuple, kwargs: dict) -> None:
        result = record.get("result") or {}
        if record.get("status") != "ok" or "metrics" not in result:
            return
        folded = {f"result.{k}": v for k, v in result["metrics"].items()}
        for key in (
            "tasks_total", "tasks_verified", "flit_hops", "total_cycles",
            "steps_executed", "idle_cycles_skipped", "total_bit_transitions",
        ):
            folded[f"result.{key}"] = result[key]
        folded["result.packets"] = sum(
            layer["packets"] for layer in result["layers"]
        )
        merge_metrics(tracer.counters, folded)

    traced_job = tracer.wrap(runner.execute_job, "experiments.job", fold_result)

    def execute_job(payload: dict) -> dict:
        index = tracer.begin_job("?")
        previous = tracer.set_job(index)
        try:
            record = traced_job(payload)
        finally:
            tracer.set_job(previous)
        tracer.jobs[index] = record.get("job_id", "?")
        return record

    attach_sink = Network.attach_sink

    def traced_attach_sink(self: Network, node: int, sink: Any) -> None:
        attach_sink(self, node, tracer.wrap(sink, "accelerator.pe_sink"))

    targets: list[tuple[Any, str, Any]] = [
        (Network, "step", "noc.step"),
        (Router, "allocate_and_traverse", "noc.alloc_traverse"),
        (Network, "transmit", "noc.transmit"),
        (NetworkInterface, "try_inject", "noc.inject"),
        (NetworkInterface, "receive_flit", "noc.eject"),
        (Network, "send_packet", "noc.send"),
        (simulator, "extract_tasks", ("accelerator.extract_tasks", count_tasks)),
        (simulator.AcceleratorSimulator, "run", "accelerator.run"),
        (TaskCodec, "encode_batch", ("codec.encode", count_flits)),
        (TaskCodec, "encode_inputs_only_batch", ("codec.encode", count_flits)),
        (TaskCodec, "decode_batch_words", "codec.decode"),
        (TaskCodec, "decode_inputs_only_batch", "codec.decode"),
        (bits, "payloads_to_bytes", "bits.score"),
        (bits, "stream_transitions_bytes", ("bits.score", count_scored)),
        (runner.CampaignRunner, "run", ("experiments.campaign", count_campaign)),
        (ResultCache, "get_job", "experiments.cache_get"),
        (ResultCache, "put_job", "experiments.cache_put"),
        (ResultStore, "extend", "experiments.store_append"),
        (streams, "train_classifier", "dnn.train"),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    originals += [
        (runner, "execute_job", runner.execute_job),
        (Network, "attach_sink", attach_sink),
    ]
    try:
        for owner, attr, how in targets:
            name, hook = how if isinstance(how, tuple) else (how, None)
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, hook))
        runner.execute_job = execute_job
        Network.attach_sink = traced_attach_sink
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
