"""NoC object lifetime and size follow the traffic.

A finished run's network must be freed by reference counting alone
(no garbage-collector pass), a fresh network must cost a few tracked
objects per node, and a router must build state only where flits go —
while the credit loop keeps reaching the right upstream counters.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import AcceleratorSimulator, schedule_sharing
from repro.noc.flit import make_packet
from repro.noc.network import CORES, Network, NoCConfig, SimulationTimeout
from repro.noc.router import VCState
from repro.noc.routing import Port


@contextmanager
def gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def tracked_objects() -> int:
    """GC-tracked objects alive now (a full pass first untracks the
    tuples and dicts that hold only atomic values)."""
    gc.collect()
    return len(gc.get_objects())


# -- finished networks are freed by refcount -----------------------------


def tiny(core: str) -> AcceleratorConfig:
    return AcceleratorConfig(
        width=3, height=3, n_mcs=1, max_tasks_per_layer=2, seed=7, core=core
    )


def network_of_dropped_run(small_lenet, digit_image, core):
    """Run one simulation, drop the simulator, return a weakref to the
    network it ran on."""
    sim = AcceleratorSimulator(tiny(core), small_lenet, digit_image)
    sim.run()
    assert sim.last_network is not None
    ref = weakref.ref(sim.last_network)
    del sim
    return ref


@pytest.mark.parametrize("core", CORES)
class TestFinishedNetworkIsFreed:
    def test_direct_run(self, small_lenet, digit_image, core):
        with gc_disabled():
            ref = network_of_dropped_run(small_lenet, digit_image, core)
            assert ref() is None

    def test_run_inside_schedule_sharing(self, small_lenet, digit_image, core):
        with gc_disabled(), schedule_sharing() as scope:
            ref = network_of_dropped_run(small_lenet, digit_image, core)
            assert ref() is None
            assert scope.simulated == 1

    def test_failed_run_detaches_its_sinks(
        self, small_lenet, digit_image, core
    ):
        sim = AcceleratorSimulator(tiny(core), small_lenet, digit_image)
        with pytest.raises(SimulationTimeout):
            sim.run(max_cycles_per_layer=3)
        assert all(ni.sink is None for ni in sim.last_network.nis)


# -- tracked-object budget ----------------------------------------------


class TestObjectBudget:
    width = height = 80

    def test_fresh_network_per_node(self):
        before = tracked_objects()
        net = Network(NoCConfig(width=self.width, height=self.height))
        added = tracked_objects() - before
        assert added / net.config.n_nodes <= 5
        # Nothing is materialised until a flit arrives.
        assert all(r._slots is None for r in net.routers)

    def test_corner_to_corner_packet_per_router(self):
        config = NoCConfig(width=self.width, height=self.height, core="event")
        net = Network(config)
        dst = config.n_nodes - 1
        packet = make_packet(0, dst, [1, 2, 3], config.link_width)
        before = tracked_objects()
        net.send_packet(packet)
        net.run_until_drained()
        added = tracked_objects() - before
        path = [r for r in net.routers if r._slots is not None]
        # X-Y: 80 routers along row 0, then 79 down the last column.
        assert len(path) == self.width + self.height - 1
        assert added / len(path) <= 35
        for router in path:
            built = [s for s in router._slots if s is not None]
            assert len(built) == 1
            assert router.peak_occupancy > 0

    def test_inputs_exposes_every_slot(self):
        net = Network(NoCConfig(width=4, height=1, core="event"))
        net.send_packet(make_packet(0, 3, [5, 6], net.config.link_width))
        net.run_until_drained()
        router = net.routers[1]
        (built,) = [s for s in router._slots if s is not None]
        vcs = [s for port in Port for s in router.inputs[port]]
        assert len(vcs) == len(Port) * net.config.n_vcs
        assert all(isinstance(s, VCState) for s in vcs)
        assert any(s is built for s in vcs)
        assert None not in router._slots


# -- lazily resolved credit handles --------------------------------------


class TestLazyCredits:
    def test_credits_reach_the_upstream_router(self):
        # 3x3 mesh: node 3 streams east through the centre (4) to 5, so
        # router 4 takes flits on WEST only; 1 and 7 never send.
        config = NoCConfig(width=3, height=3, vc_depth=2, core="event")
        net = Network(config)
        routers = net.routers
        # Longer than one VC buffer: delivery needs returned credits.
        for payload in range(4):
            net.send_packet(
                make_packet(3, 5, [payload] * 7, config.link_width)
            )
        seen_low = False
        while net.has_work:
            net.step()
            east = routers[3]._credits
            if east is not None and min(east[Port.EAST]) < config.vc_depth:
                seen_low = True
        assert seen_low
        assert net.stats.packets_delivered == 4
        full = [config.vc_depth] * config.n_vcs
        assert routers[3].credits[Port.EAST] == full
        assert routers[4].credits[Port.EAST] == full
        row = net._upstream_credits[4]
        assert row[Port.WEST] is routers[3].credits[Port.EAST]
        assert [p for p in Port if row[p] is not None] == [Port.WEST]
        for quiet in (0, 1, 2, 6, 7, 8):
            assert routers[quiet]._slots is None
            assert routers[quiet]._credits is None

    @pytest.mark.parametrize(
        "node, port", [(0, Port.NORTH), (0, Port.WEST), (4, Port.LOCAL)]
    )
    def test_port_without_upstream_raises(self, node, port):
        net = Network(NoCConfig(width=3, height=3))
        with pytest.raises(
            ValueError, match=f"router {node} has no upstream on {port.name}"
        ):
            net.queue_credit(net.routers[node], port, 0)
