"""Tests of the benchmark's own machinery: spans, checks and seeding.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  They use a
tiny untrained-LeNet campaign, so they take a few seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

import bench_spans
import bench_workloads
from repro.dnn.models import LeNet5
from repro.experiments import SweepSpec
from repro.workloads.figures import figure_lenet_image


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child
    # c [2, 3]; d [11, 12] is a second root.
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    own = bench_spans.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times of a tree add up to its roots' durations.
    assert own.sum() == 10.0 + 1.0


@pytest.mark.parametrize(
    "parent, start, end",
    [
        ([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 4.0, 5.0]),  # siblings overlap
        ([-1, 0], [0.0, 5.0], [10.0, 11.0]),  # child leaves its parent
        ([1, -1], [1.0, 0.0], [2.0, 3.0]),  # parent recorded later
    ],
)
def test_self_times_rejects_spans_that_do_not_nest(parent, start, end):
    with pytest.raises(ValueError):
        bench_spans.self_times(parent, start, end)


def test_tracer_spans_nest_and_carry_their_job():
    tracer = bench_spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    with tracer.span("outer", job="j1"):
        assert inner(1) == 2
    inner(2)
    assert tracer.span_counts() == {"outer": 1, "inner": 2}
    assert list(tracer.parent) == [-1, 0, -1]
    assert [tracer.jobs[j] if j >= 0 else None for j in tracer.job] == [
        "j1", "j1", None,
    ]
    own = tracer.self_seconds()
    total = sum(tracer.durations("outer")) + tracer.durations("inner")[1]
    assert own["outer"] + own["inner"] == pytest.approx(total)


def _tiny_campaign(tmp_path):
    spec = SweepSpec(
        name="tiny",
        model="lenet",
        base={"max_tasks_per_layer": 2},
        axes={"mesh": ["2x2:1", "3x3:1"], "ordering": ["O0", "O2"]},
    )
    return bench_workloads.CampaignWorkload(spec, True, tmp_path)


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    workload = _tiny_campaign(tmp_path)
    tracer = bench_spans.Tracer()
    from repro.noc.network import Network

    transmit = Network.transmit
    with bench_spans.instrument(tracer):
        out = workload.run_pass(tracer)
    assert Network.transmit is transmit  # originals restored
    (root,) = tracer.durations("bench.pass")
    assert sum(tracer.self_seconds().values()) == pytest.approx(root)
    assert tracer.span_counts()["noc.transmit"] == workload.flits(out)
    assert tracer.counters["result.flit_hops"] == workload.flits(out)
    assert tracer.counters["experiments.cache_hits"] == 4
    assert len(set(tracer.jobs)) == 4


def test_checker_flags_a_perturbed_expected_value(tmp_path):
    workload = _tiny_campaign(tmp_path)
    out = workload.run_pass(bench_spans.NO_SPANS)
    log = workload.check(out)
    assert (log.attempted, log.failed) == (8, 0)
    observed = workload.observed(out)
    log.pin(observed, observed)
    assert log.failed == 0

    expected = dict(observed)
    label = sorted(expected)[0]
    cycles, hops, bts = expected[label]
    expected[label] = [cycles, hops, bts + 1]
    log.pin(expected, observed)
    assert log.failed == 1 and label in log.problems


def test_checker_flags_a_wrong_output(tmp_path):
    workload = _tiny_campaign(tmp_path)
    cold, warm = workload.run_pass(bench_spans.NO_SPANS)
    record = cold.records[0]
    result = dict(record["result"], tasks_verified=0)
    cold.records[0] = dict(record, result=result)
    log = workload.check((cold, warm))
    # The job itself, and its warm re-run, which no longer matches.
    assert log.failed == 2


def test_seed_changes_the_sampled_tasks():
    model = LeNet5(rng=np.random.default_rng(42))
    image = figure_lenet_image()

    def neurons(seed):
        layers = bench_workloads.sample_tasks(model, image, "lenet", seed)
        return [[t.neuron_index for t in lt.tasks] for lt in layers]

    assert neurons(1) == neurons(1)
    assert neurons(1) != neurons(2)

    def job_seeds(seed):
        spec = bench_workloads.campaign_spec("fig12_campaign", seed)
        return [job.config.seed for job in spec.expand()]

    assert job_seeds(1) == job_seeds(1)
    assert set(job_seeds(1)).isdisjoint(job_seeds(2))


def test_no_noc_round_trip_check_catches_a_corrupted_decode():
    model = LeNet5(rng=np.random.default_rng(42))
    image = figure_lenet_image()
    layers = bench_workloads.sample_tasks(model, image, "lenet", 1)
    groups = bench_workloads.scoring_groups(
        {"lenet": layers}, [("lenet", "fixed8")]
    )
    workload = bench_workloads.NoNocWorkload(groups[:3])
    out = workload.run_pass(bench_spans.NO_SPANS)
    assert workload.check(out).failed == 0

    decoded, score, n = out[1]
    inputs, weights, bias = decoded[0]
    bad = np.array(inputs, copy=True)
    bad[0] ^= 1
    out[1] = ([(bad, weights, bias)] + list(decoded[1:]), score, n)
    log = workload.check(out)
    assert log.failed == 1 and groups[1].label in log.problems


def test_adjusted_wall_scales_each_pass_by_the_host_speed():
    from run import REFERENCE_PROBE_S, adjusted_wall

    ref = REFERENCE_PROBE_S
    # The host halves its speed during the second pass and stays slow:
    # the probes read twice the reference and the passes take twice
    # as long.  The second pass, half slowed, adjusts to 2 / 1.5.
    walls = [1.0, 2.0, 2.0]
    probes = [ref, ref, 2 * ref, 2 * ref]
    assert adjusted_wall(walls, probes) == pytest.approx(1.0)
    # At the reference speed, passes count as measured.
    assert adjusted_wall([1.0, 3.0, 2.0], [ref] * 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        adjusted_wall(walls, probes[:-1])
