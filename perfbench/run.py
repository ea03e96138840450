"""Benchmark entry point for the BT simulator: one workload, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig12_campaign --seed 1 \\
        --seconds 20 --trace 0

The script imports ``repro`` from ``src/`` next to this directory, sets
the workload up several times (reporting the median as ``setup_s``),
then runs timed passes until ``--seconds`` have elapsed, checking every
pass's outputs.  ``wall_s`` is the median pass time adjusted for the
host's speed at the time of each pass (see :func:`adjusted_wall`).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead
prints the per-layer metrics of a traced run.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A results file with provenance goes to ``perfbench/out/``, and a
traced run also writes its spans there.  See ``README.md``.
"""

import os
import time

_STARTED = time.perf_counter()

# One thread, so the run is the single-threaded process it claims to
# be.  This must precede the numpy import.  It also matters for the
# pinned outputs: LeNet's trained weights, and so every fixed-8 BT,
# differ in the last bits between BLAS thread counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups per run; setup_s is their median.
SETUPS = 3
# Fewest timed passes per measured phase, however short --seconds is.
MIN_PASSES = 3
# host_probe's seconds on an unloaded 2.1 GHz Xeon vCPU (Python 3.11,
# numpy 2.4): wall_s is in seconds on a host that is this fast.
REFERENCE_PROBE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "flit_hops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "noc.step_self_s": "s",
    "noc.alloc_traverse_s": "s",
    "noc.transmit_s": "s",
    "noc.inject_s": "s",
    "noc.eject_s": "s",
    "noc.send_s": "s",
    "noc.steps": "count",
    "noc.flit_hops": "count",
    "noc.packets": "count",
    "noc.idle_cycles_skipped": "count",
    "noc.host_ns_per_hop": "ns",
    "accelerator.extract_tasks_s": "s",
    "accelerator.run_self_s": "s",
    "accelerator.pe_sink_s": "s",
    "accelerator.tasks": "count",
    "accelerator.tasks_verified": "count",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.encode_calls": "count",
    "codec.encoded_flits": "count",
    "bits.score_s": "s",
    "bits.scored_flits": "count",
    "experiments.runner_self_s": "s",
    "experiments.cache_get_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.store_append_s": "s",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.warm_pass_s": "s",
    "dnn.train_s": "s",
    "trace.overhead_s": "s",
}
# Boundary counts that must equal the totals the jobs' own results
# report, once folded in (see bench_spans.instrument).
COUNT_CROSS_CHECKS = {
    "noc.flit_hops": "result.flit_hops",
    "noc.steps": "result.steps_executed",
    "noc.packets": "result.packets",
    "accelerator.tasks": "result.tasks_total",
}
# Largest gap allowed between the summed self times of a traced pass
# and its wall time, as a share of the wall time.
ACCOUNTING_TOLERANCE = 0.01


def _load_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args: argparse.Namespace, load_start: tuple) -> dict[str, Any]:
    import numpy

    return {
        "git_commit": _git_commit(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def host_probe() -> float:
    """Seconds this host takes now for a fixed interpreter and numpy job.

    The job uses no ``repro`` code, so only the host's speed moves it.
    """
    import numpy as np

    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(240_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0)
    words = np.arange(200_000, dtype=np.uint64)
    for _ in range(80):
        acc += int(np.bitwise_count(words ^ (words >> np.uint64(1))).sum())
    return time.perf_counter() - started


def adjusted_wall(walls: list[float], probes: list[float]) -> float:
    """Median pass time at the reference host speed.

    ``probes`` holds a :func:`host_probe` time before each pass and one
    after the last.  Each pass is scaled by REFERENCE_PROBE_S over the
    mean of the probes on its two sides.  A spell in which a shared host
    runs everything slower lengthens a pass and its probes alike, and
    leaves the adjusted time as it was.
    """
    if len(probes) != len(walls) + 1:
        raise ValueError("need one probe before each pass and one after")
    return statistics.median(
        wall * 2 * REFERENCE_PROBE_S / (before + after)
        for wall, before, after in zip(walls, probes, probes[1:])
    )


class PassLog:
    """Walls, flit counts and check outcomes over a run's passes."""

    def __init__(self, workload: Any, expected: dict[str, Any] | None) -> None:
        self.workload = workload
        self.expected = expected
        self.walls: list[float] = []
        self.flits: list[int] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}
        self.observed: dict[str, Any] = {}

    def record(self, wall: float, out: Any) -> None:
        self.walls.append(wall)
        self.flits.append(self.workload.flits(out))
        check = self.workload.check(out)
        self.observed = self.workload.observed(out)
        if self.expected is not None:
            check.pin(self.expected, self.observed)
        self.attempted += check.attempted
        self.failed += check.failed
        for label, problems in check.problems.items():
            self.problems.setdefault(label, problems)


def _timed_passes(
    workload: Any, seconds: float, log: PassLog, traced: bool
) -> list[tuple[float, Any]]:
    """Run passes for ``seconds``, at least MIN_PASSES of them.

    Returns each pass's wall time with its tracer (None untraced).
    """
    import bench_spans

    done = []
    deadline = time.perf_counter() + seconds
    while len(done) < MIN_PASSES or time.perf_counter() < deadline:
        log.probes.append(host_probe())
        tracer = bench_spans.Tracer() if traced else None
        with (
            bench_spans.instrument(tracer)
            if tracer is not None
            else contextlib.nullcontext()
        ):
            started = time.perf_counter()
            out = workload.run_pass(tracer if traced else bench_spans.NO_SPANS)
            wall = time.perf_counter() - started
        log.record(wall, out)
        # Free this pass's outputs now: rebinding ``out`` next time
        # would free them inside the next pass's timed region.
        del out
        done.append((wall, tracer))
    log.probes.append(host_probe())
    return done


def _layer_metrics(tracer: Any, wall: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one traced pass, its accounting and problems."""
    from bench_spans import SPAN_METRICS

    own = tracer.self_seconds()
    spans = tracer.span_counts()
    counters = tracer.counters
    metrics: dict[str, float] = {
        name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"
    }
    for name, seconds in own.items():
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] += seconds
    hops = spans.get("noc.transmit", 0)
    noc_s = sum(v for k, v in metrics.items() if k.startswith("noc."))
    jobs = counters.get("experiments.jobs", 0)
    metrics.update(
        {
            "noc.steps": spans.get("noc.step", 0),
            "noc.flit_hops": hops,
            "noc.packets": spans.get("noc.send", 0),
            "noc.idle_cycles_skipped": counters.get(
                "result.idle_cycles_skipped", 0
            ),
            "noc.host_ns_per_hop": noc_s / hops * 1e9 if hops else 0.0,
            "accelerator.tasks": counters.get("accelerator.tasks", 0),
            "accelerator.tasks_verified": counters.get(
                "result.tasks_verified", 0
            ),
            "codec.encode_calls": spans.get("codec.encode", 0),
            "codec.encoded_flits": counters.get("codec.encoded_flits", 0),
            "bits.scored_flits": counters.get("bits.scored_flits", 0),
            "experiments.cache_hit_ratio": (
                counters.get("experiments.cache_hits", 0) / jobs if jobs else 0.0
            ),
            "experiments.warm_pass_s": float(sum(tracer.durations("bench.warm"))),
        }
    )
    problems = [
        f"{name} = {metrics[name]} but the jobs report {counters.get(total, 0)}"
        for name, total in COUNT_CROSS_CHECKS.items()
        if metrics[name] != counters.get(total, 0)
    ]
    remainder = sum(v for k, v in own.items() if k.startswith("bench."))
    layers = sum(v for k, v in own.items() if k in SPAN_METRICS)
    unknown = sorted(set(own) - set(SPAN_METRICS) - {
        k for k in own if k.startswith("bench.")
    })
    if unknown:
        problems.append(f"spans with no layer: {unknown}")
    accounted = layers + remainder
    if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
        problems.append(
            f"self times sum to {accounted:.4f}s but the pass took {wall:.4f}s"
        )
    accounting = {
        "wall_s": wall,
        "layers_s": layers,
        "bench_remainder_s": remainder,
        "accounted_frac": accounted / wall,
        "spans": len(tracer.name),
    }
    return metrics, accounting, problems


def _emit(name: str, value: float, unit: str) -> None:
    print(f"{name:32s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    _load_repro()

    import bench_spans
    import bench_workloads
    from repro.workloads import streams

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"use one of {bench_workloads.WORKLOADS}"
        )
    if args.seed is None:
        args.seed = bench_workloads.DEFAULT_SEED
    expected = None
    if args.seed == bench_workloads.DEFAULT_SEED:
        pins = json.loads((HERE / "expected.json").read_text())
        expected = pins[args.workload]
    imported_s = time.perf_counter() - _STARTED
    OUT.mkdir(exist_ok=True)

    # Set-up, several times: each one retrains LeNet (the training
    # cache is cleared) and rebuilds every input.  Imports happen once,
    # so every sample carries the one import time.
    setups, trains = [], []
    for _ in range(SETUPS):
        streams._trained_lenet_cached.cache_clear()
        tracer = bench_spans.Tracer() if args.trace else None
        with (
            bench_spans.instrument(tracer)
            if tracer is not None
            else contextlib.nullcontext()
        ):
            started = time.perf_counter()
            workload = bench_workloads.build(args.workload, args.seed, OUT)
            setups.append(imported_s + time.perf_counter() - started)
        if tracer is not None:
            trains += tracer.durations("dnn.train")

    log = PassLog(workload, expected)
    results: dict[str, Any] = {"setup_samples_s": setups}
    problems: list[str] = []
    if not args.trace:
        _timed_passes(workload, args.seconds, log, traced=False)
        wall = adjusted_wall(log.walls, log.probes)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "flit_hops_per_s": statistics.median(log.flits) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END
    else:
        # Untraced passes first, for the tracing overhead; then traced
        # passes, of which the one with the median wall time reports.
        untraced = statistics.median(
            w for w, _ in _timed_passes(
                workload, args.seconds / 2, log, traced=False
            )
        )
        traced = _timed_passes(workload, args.seconds / 2, log, traced=True)
        traced.sort(key=lambda item: item[0])
        wall, tracer = traced[(len(traced) - 1) // 2]
        metrics, accounting, problems = _layer_metrics(tracer, wall)
        metrics["dnn.train_s"] = statistics.median(trains)
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced) - untraced
        )
        units = PER_LAYER
        results["accounting"] = accounting
        results["counters"] = dict(sorted(tracer.counters.items()))
        results["span_counts"] = tracer.span_counts()
        tracer.save(
            OUT / f"{args.workload}.spans.npz",
            {"workload": args.workload, "seed": args.seed, "wall_s": wall},
        )

    n_passes = len(log.walls)
    failed_frac = log.failed / log.attempted
    correct = log.failed == 0 and not problems
    for name, unit in units.items():
        _emit(name, metrics[name], unit)
    print(
        f"passes {n_passes} (median {statistics.median(log.walls):.4f}s), "
        f"operations {log.attempted}, failed {log.failed} "
        f"(failed_frac {failed_frac:.4g})"
    )
    if args.trace:
        acc = results["accounting"]
        print(
            f"traced pass {acc['wall_s']:.4f}s = layers {acc['layers_s']:.4f}s"
            f" + benchmark {acc['bench_remainder_s']:.4f}s"
            f" ({100 * acc['accounted_frac']:.2f}% accounted, "
            f"{acc['spans']} spans)"
        )
    failures = [f"{k}: {'; '.join(v)}" for k, v in log.problems.items()]
    for line in problems + failures[:20]:
        print("CHECK FAILED", line)

    reported = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    results.update(
        {
            "provenance": _provenance(args, load_start),
            "metrics": reported,
            "passes": n_passes,
            "walls_s": log.walls,
            "pass_median_s": statistics.median(log.walls),
            "probes_s": log.probes,
            "attempted": log.attempted,
            "failed": log.failed,
            "failed_frac": failed_frac,
            "problems": problems,
            "failures": log.problems,
            "observed": log.observed,
        }
    )
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
