"""Schedule once, score many: shared link schedules must be invisible.

Inside a :func:`~repro.accelerator.simulator.schedule_sharing` block a
run whose timing key matches an earlier run's scores its payloads over
the recorded link schedule instead of stepping the network.  These
tests pin that every such run returns exactly what a full simulation
returns, that each fallback really simulates, and that a simulator can
be run more than once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    run_model_on_noc,
    schedule_sharing,
)
from repro.dnn.datasets import synthetic_digits
from repro.experiments import CampaignResult, CampaignRunner, SweepSpec
from repro.noc.network import Network
from repro.ordering.strategies import OrderingMethod
from repro.workloads.streams import trained_lenet_model
from repro.workloads.traces import TraceCollector

O0, O1, O2 = (
    OrderingMethod.BASELINE,
    OrderingMethod.AFFILIATED,
    OrderingMethod.SEPARATED,
)


def tiny(**kwargs) -> AcceleratorConfig:
    defaults = dict(width=3, height=3, n_mcs=1, max_tasks_per_layer=4, seed=7)
    defaults.update(kwargs)
    return AcceleratorConfig(**defaults)


def assert_same_run(got: dict, want: dict) -> None:
    """Field-for-field equality, per-link key order included."""
    assert got == want
    assert list(got["per_link"]) == list(want["per_link"])


# -- repeated runs ------------------------------------------------------


@pytest.mark.parametrize("weight_cache", [False, True])
def test_second_run_repeats_the_first(small_lenet, digit_image, weight_cache):
    """run() resets its per-run state: no doubled codec counters, and
    no weight blocks marked as already shipped to fresh PE caches."""
    cfg = tiny(
        data_format="fixed8",
        ordering=O2,
        weight_cache=weight_cache,
        mapping_policy="group_affine" if weight_cache else "round_robin",
    )
    sim = AcceleratorSimulator(cfg, small_lenet, digit_image)
    first = sim.run().to_dict()
    assert sim.run().to_dict() == first


# -- scoped sharing -----------------------------------------------------


def run_pair(first, second, model, image, **second_kwargs):
    """Run ``first`` then ``second`` in one sharing scope."""
    with schedule_sharing() as scope:
        AcceleratorSimulator(first, model, image).run()
        sim = AcceleratorSimulator(second, model, image)
        result = sim.run(**second_kwargs)
    return scope, sim, result


class TestSharing:
    @pytest.mark.parametrize("core", ["event", "stepped"])
    @pytest.mark.parametrize("fmt", ["float32", "fixed8"])
    def test_variant_scores_from_the_schedule(
        self, small_lenet, digit_image, core, fmt
    ):
        scope, sim, result = run_pair(
            tiny(core=core),
            tiny(core=core, data_format=fmt, ordering=O2),
            small_lenet,
            digit_image,
        )
        assert (scope.simulated, scope.shared) == (1, 1)
        assert sim.last_network is None
        direct = run_model_on_noc(
            tiny(core=core, data_format=fmt, ordering=O2),
            small_lenet,
            digit_image,
        )
        assert_same_run(result.to_dict(), direct.to_dict())

    def test_pipelined_without_responses(self, small_lenet, digit_image):
        base = dict(layer_barrier=False, include_responses=False)
        scope, _, result = run_pair(
            tiny(**base),
            tiny(**base, data_format="fixed8", ordering=O1),
            small_lenet,
            digit_image,
        )
        assert scope.shared == 1
        direct = run_model_on_noc(
            tiny(**base, data_format="fixed8", ordering=O1),
            small_lenet,
            digit_image,
        )
        assert_same_run(result.to_dict(), direct.to_dict())

    def test_count_desc_with_equal_orders_shares(
        self, small_lenet, digit_image
    ):
        """Ordering permutes values inside a packet, so its '1' count,
        and hence the count_desc injection order, is unchanged."""
        scope, _, result = run_pair(
            tiny(packet_scheduling="count_desc"),
            tiny(packet_scheduling="count_desc", ordering=O2),
            small_lenet,
            digit_image,
        )
        assert scope.shared == 1
        direct = run_model_on_noc(
            tiny(packet_scheduling="count_desc", ordering=O2),
            small_lenet,
            digit_image,
        )
        assert_same_run(result.to_dict(), direct.to_dict())

    def test_scope_dies_with_the_block(self, small_lenet, digit_image):
        with schedule_sharing():
            AcceleratorSimulator(tiny(), small_lenet, digit_image).run()
        sim = AcceleratorSimulator(tiny(ordering=O2), small_lenet, digit_image)
        sim.run()
        assert sim.last_network is not None


class _HeaderBits(AcceleratorConfig):
    def noc_config(self):
        return dataclasses.replace(
            super().noc_config(), include_header_bits=True
        )


class _InjectionLinks(AcceleratorConfig):
    def noc_config(self):
        return dataclasses.replace(
            super().noc_config(), record_injection=True
        )


class TestFallbacks:
    """Configurations that always take the full simulation."""

    def check(self, first, second, model, image, **second_kwargs):
        scope, sim, result = run_pair(
            first, second, model, image, **second_kwargs
        )
        assert (scope.simulated, scope.shared) == (2, 0)
        assert sim.last_network is not None
        direct = AcceleratorSimulator(second, model, image).run()
        assert_same_run(result.to_dict(), direct.to_dict())

    def test_trace_collector(self, small_lenet, digit_image):
        self.check(
            tiny(),
            tiny(ordering=O2),
            small_lenet,
            digit_image,
            trace_collector=TraceCollector(),
        )

    def test_weight_cache(self, small_lenet, digit_image):
        cached = dict(weight_cache=True, mapping_policy="group_affine")
        self.check(
            tiny(**cached), tiny(**cached, ordering=O2),
            small_lenet, digit_image,
        )

    @pytest.mark.parametrize("config_type", [_HeaderBits, _InjectionLinks])
    def test_recorded_image_beyond_payloads(
        self, small_lenet, digit_image, config_type
    ):
        self.check(
            config_type(**dataclasses.asdict(tiny())),
            config_type(**dataclasses.asdict(tiny(ordering=O2))),
            small_lenet,
            digit_image,
        )

    def test_index_payload_changes_flit_counts(
        self, small_lenet, digit_image
    ):
        self.check(
            tiny(include_index_payload=True),
            tiny(include_index_payload=True, ordering=O2),
            small_lenet,
            digit_image,
        )

    def test_count_desc_with_different_orders(
        self, small_lenet, digit_image
    ):
        self.check(
            tiny(packet_scheduling="count_desc"),
            tiny(packet_scheduling="count_desc", data_format="fixed8"),
            small_lenet,
            digit_image,
        )

    def test_different_drain_budget(self, small_lenet, digit_image):
        self.check(
            tiny(), tiny(ordering=O2), small_lenet, digit_image,
            max_cycles_per_layer=1_000_000,
        )

    def test_patched_network_sees_every_hop(
        self, small_lenet, digit_image, monkeypatch
    ):
        transmit = Network.transmit
        hops = []

        def counting_transmit(self, *args, **kwargs):
            hops.append(1)
            return transmit(self, *args, **kwargs)

        monkeypatch.setattr(Network, "transmit", counting_transmit)
        scope, _, result = run_pair(
            tiny(), tiny(ordering=O2), small_lenet, digit_image
        )
        assert (scope.simulated, scope.shared) == (2, 0)
        assert len(hops) == 2 * result.flit_hops
        monkeypatch.undo()
        scope, _, _ = run_pair(
            tiny(), tiny(ordering=O2), small_lenet, digit_image
        )
        assert (scope.simulated, scope.shared) == (1, 1)


# -- campaign conformance -------------------------------------------------


def campaign_vs_direct(spec: SweepSpec) -> CampaignResult:
    """Run ``spec`` inline and pin every record to a direct run."""
    campaign = CampaignRunner(workers=1).run(spec)
    assert not campaign.errors, campaign.summary()
    model = trained_lenet_model(seed=spec.model_seed)
    image = synthetic_digits(1, seed=spec.image_seed).images[0]
    for job, record in zip(spec.expand(), campaign.records):
        direct = run_model_on_noc(
            job.config,
            model,
            image,
            max_cycles_per_layer=job.max_cycles_per_layer,
        )
        assert_same_run(record["result"], direct.to_dict())
    return campaign


@pytest.mark.parametrize("core", ["event", "stepped"])
@pytest.mark.parametrize("data_format", ["fixed8", "float32"])
def test_fig12_grid_matches_direct_runs(core, data_format):
    """The golden Fig. 12 grid: one simulation per mesh, the other
    orderings scored from its schedule, all equal to full runs."""
    spec = SweepSpec(
        name=f"fig12_{data_format}_{core}",
        model="trained_lenet",
        model_seed=3,
        image_seed=5,
        base={
            "data_format": data_format,
            "max_tasks_per_layer": 32,
            "seed": 2025,
            "core": core,
        },
        axes={"mesh": ["4x4:2", "8x8:4", "8x8:8"],
              "ordering": ["O0", "O1", "O2"]},
    )
    campaign = campaign_vs_direct(spec)
    assert (campaign.schedules_simulated, campaign.schedules_shared) == (
        3,
        6,
    )
    assert "schedules: 3 simulated, 6 shared" in campaign.summary()


def test_ordering_outermost_grid_matches_direct_runs():
    """Variants of a mesh need not be adjacent in the grid."""
    spec = SweepSpec(
        name="ordering_outer",
        model="trained_lenet",
        model_seed=3,
        image_seed=5,
        base={"max_tasks_per_layer": 8, "seed": 2025},
        axes={"ordering": ["O0", "O1", "O2"],
              "mesh": ["3x3:1", "4x4:2"],
              "data_format": ["float32", "fixed8"]},
    )
    campaign = campaign_vs_direct(spec)
    assert (campaign.schedules_simulated, campaign.schedules_shared) == (
        2,
        10,
    )


def test_summary_reports_schedules():
    out = CampaignResult(name="x", schedules_simulated=3, schedules_shared=15)
    assert "schedules: 3 simulated, 15 shared" in out.summary()
    assert "schedules" not in CampaignResult(name="y").summary()
