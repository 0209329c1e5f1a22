"""Tests for the pluggable topology subsystem.

Covers the structural invariants every topology must satisfy (numbering
bijection, adjacency symmetry, connectivity), the family-specific shapes,
and protocol integration: PIF/IDL/ME completing with the (generalized)
snap-stabilization specs on non-complete graphs.
"""

from __future__ import annotations

import pytest

from repro.core.mutex import MutexLayer
from repro.core.pif import PifLayer
from repro.core.requests import RequestDriver
from repro.errors import SimulationError
from repro.sim.runtime import Simulator
from repro.sim.topology import (
    Clustered,
    Complete,
    Grid2D,
    RandomGnp,
    Ring,
    Star,
    Topology,
    arbitration_clusters,
    topology_from_spec,
)
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.types import RequestState

ALL_TOPOLOGIES = [
    Complete(5),
    Ring(6),
    Star(6),
    Grid2D(2, 3),
    Grid2D(3, 3),
    RandomGnp(9, p=0.3, seed=2),
    Clustered(2, 3),
    Clustered(3, 3),
]


@pytest.mark.parametrize("top", ALL_TOPOLOGIES, ids=lambda t: t.name)
class TestStructuralInvariants:
    def test_numbering_is_bijection_onto_degree_range(self, top: Topology):
        for p in top.pids:
            nums = [top.chan_num(p, q) for q in top.neighbors(p)]
            assert sorted(nums) == list(range(1, top.degree(p) + 1))

    def test_peer_by_num_inverts_chan_num(self, top: Topology):
        for p in top.pids:
            for q in top.neighbors(p):
                assert top.peer_by_num(p, top.chan_num(p, q)) == q

    def test_adjacency_symmetry(self, top: Topology):
        for p in top.pids:
            for q in top.neighbors(p):
                assert p in top.neighbors(q)
                assert top.adjacent(p, q) and top.adjacent(q, p)

    def test_no_self_adjacency(self, top: Topology):
        for p in top.pids:
            assert p not in top.neighbors(p)

    def test_connected(self, top: Topology):
        # Construction would have raised otherwise; diameter() re-traverses.
        assert top.diameter() >= 1

    def test_describe_metadata(self, top: Topology):
        meta = top.describe()
        assert meta["n"] == top.n
        assert meta["min_degree"] <= meta["max_degree"]
        assert meta["edges"] == len(top.edges())
        assert meta["complete"] == top.is_complete


class TestFamilies:
    def test_complete_matches_paper_numbering(self):
        top = Complete(4)
        assert top.is_complete
        assert top.diameter() == 1
        assert top.neighbors(2) == (1, 3, 4)
        assert [top.chan_num(2, q) for q in (1, 3, 4)] == [1, 2, 3]

    def test_complete_neighbours_are_its_declared_edges(self):
        # Complete builds its neighbour map directly; its edge list must
        # describe the same graph.
        top = Complete(5)
        assert sorted(top._edges(top.pids)) == sorted(top.edges())

    def test_ring_degrees_and_diameter(self):
        top = Ring(6)
        assert not top.is_complete
        assert top.max_degree == top.min_degree == 2
        assert top.diameter() == 3

    def test_ring_of_two_is_single_edge(self):
        top = Ring(2)
        assert top.edges() == [(1, 2)]

    def test_star_hub(self):
        top = Star(5)
        assert top.hub == 1
        assert top.degree(1) == 4
        assert all(top.degree(q) == 1 for q in (2, 3, 4, 5))
        assert top.diameter() == 2

    def test_star_custom_hub(self):
        top = Star(4, hub=3)
        assert top.degree(3) == 3
        assert top.neighbors(1) == (3,)

    def test_grid_shape(self):
        top = Grid2D(2, 3)
        assert top.neighbors(1) == (2, 4)   # corner
        assert top.neighbors(2) == (1, 3, 5)  # edge midpoint
        assert top.diameter() == 3

    def test_gnp_is_connected_for_all_seeds(self):
        # The draw may come out disconnected; augmentation must bridge it.
        for seed in range(12):
            for p in (0.05, 0.2, 0.5):
                top = RandomGnp(10, p=p, seed=seed)
                assert top.diameter() >= 1  # construction checks connectivity
                depths = top._bfs_depths(top.pids[0])
                assert len(depths) == top.n

    def test_gnp_deterministic_per_seed(self):
        assert RandomGnp(8, p=0.3, seed=5).edges() == RandomGnp(8, p=0.3, seed=5).edges()
        assert RandomGnp(8, p=0.0, seed=0).augmented_edges > 0

    def test_clustered_structure(self):
        top = Clustered(3, 3)
        assert top.cluster_of(1) == 0 and top.cluster_of(9) == 2
        # Intra-cluster completeness.
        assert {2, 3} <= set(top.neighbors(1))
        # Bridges connect cluster heads.
        assert 4 in top.neighbors(1) and 7 in top.neighbors(4)

    def test_rejects_disconnected_or_degenerate(self):
        with pytest.raises(SimulationError):
            Complete(1)
        with pytest.raises(SimulationError):
            Grid2D(1, 1)
        with pytest.raises(SimulationError):
            Star(4, hub=99)


class TestSpecStrings:
    def test_known_specs(self):
        assert isinstance(topology_from_spec("complete", 4), Complete)
        assert isinstance(topology_from_spec("ring", 4), Ring)
        assert isinstance(topology_from_spec("star", 4), Star)
        assert isinstance(topology_from_spec("grid", 6), Grid2D)
        assert isinstance(topology_from_spec("gnp:0.5", 6), RandomGnp)
        assert isinstance(topology_from_spec("clustered:2", 6), Clustered)

    def test_grid_explicit_shape(self):
        top = topology_from_spec("grid:2x3", 6)
        assert (top.rows, top.cols) == (2, 3)

    def test_grid_default_is_squarest(self):
        top = topology_from_spec("grid", 12)
        assert (top.rows, top.cols) == (3, 4)

    def test_bad_specs_raise(self):
        with pytest.raises(SimulationError):
            topology_from_spec("torus", 4)
        with pytest.raises(SimulationError):
            topology_from_spec("grid:2x5", 6)
        with pytest.raises(SimulationError):
            topology_from_spec("clustered:4", 6)


class TestArbitrationClusters:
    def test_complete_graph_single_cluster(self):
        clusters = arbitration_clusters(Complete(5))
        assert clusters == {1: (1, 2, 3, 4, 5)}

    def test_clusters_partition_the_pids(self):
        for top in ALL_TOPOLOGIES:
            clusters = arbitration_clusters(top)
            members = sorted(p for group in clusters.values() for p in group)
            assert members == sorted(top.pids)

    def test_ring_leaders_are_closed_neighbourhood_minima(self):
        clusters = arbitration_clusters(Ring(5))
        # Process 3's closed neighbourhood {2, 3, 4} has minimum 2.
        assert 3 in clusters[2]


class TestSimulatorIntegration:
    def test_simulator_accepts_topology_instance_and_spec(self):
        sim = Simulator(build=lambda h: h.register(PifLayer("pif")),
                        topology=Ring(4))
        assert sim.topology.kind == "ring"
        sim2 = Simulator(4, lambda h: h.register(PifLayer("pif")),
                         topology="ring")
        assert sim2.topology.kind == "ring"
        assert sim.pids == sim2.pids == (1, 2, 3, 4)

    def test_mismatched_pids_raise(self):
        with pytest.raises(SimulationError):
            Simulator([1, 2, 3], lambda h: None, topology=Ring(4))

    def test_non_adjacent_channel_rejected(self):
        sim = Simulator(build=lambda h: h.register(PifLayer("pif")),
                        topology=Ring(4))
        with pytest.raises(SimulationError):
            sim.network.channel(1, 3)

    def test_host_degree_and_completeness(self):
        sim = Simulator(build=lambda h: h.register(PifLayer("pif")),
                        topology=Star(5))
        assert sim.host(1).degree == 4
        assert sim.host(2).degree == 1
        assert not sim.host(1).topology_complete


def _run_pif_wave(topology, initiator=None, seed=0):
    sim = Simulator(build=lambda h: h.register(PifLayer("pif")),
                    topology=topology, seed=seed)
    pid = initiator if initiator is not None else sim.pids[0]
    layer = sim.layer(pid, "pif")
    layer.request_broadcast("hello")
    done = sim.run(500_000, until=lambda s: layer.request is RequestState.DONE)
    return sim, pid, done


class TestProtocolsOnTopologies:
    @pytest.mark.parametrize("top", [Ring(6), Grid2D(2, 3), Grid2D(3, 3)],
                             ids=lambda t: t.name)
    def test_pif_completes_on_sparse_topologies(self, top):
        sim, pid, done = _run_pif_wave(top)
        assert done
        neighbors = {p: sim.network.peers_of(p) for p in sim.pids}
        verdict = check_pif(sim.trace, "pif", sim.pids,
                            require_all_decided=False, neighbors=neighbors)
        assert verdict.ok, verdict.violations

    def test_pif_wave_reaches_exactly_the_neighbourhood(self):
        sim, pid, done = _run_pif_wave(Ring(6))
        assert done
        layer = sim.layer(pid, "pif")
        assert set(layer.state) == set(sim.network.peers_of(pid))
        assert all(s == layer.max_state for s in layer.state.values())

    @pytest.mark.parametrize(
        "top", [Ring(5), Star(5), Clustered(2, 3)], ids=lambda t: t.name
    )
    def test_mutex_on_topology_scrambled(self, top):
        sim = Simulator(build=lambda h: h.register(MutexLayer("me")),
                        topology=top, seed=1)
        sim.scramble(seed=7)
        driver = RequestDriver(sim, "me", requests_per_process=1)
        done = sim.run(3_000_000, until=lambda s: driver.done)
        assert done
        clusters = list(arbitration_clusters(sim.topology).values())
        verdict = check_mutex(sim.trace, "me", horizon=sim.now,
                              clusters=clusters)
        assert verdict.ok, verdict.violations

    def test_mutex_value_modulus_tracks_degree(self):
        sim = Simulator(build=lambda h: h.register(MutexLayer("me")),
                        topology=Ring(5), seed=0)
        layer = sim.layer(3, "me")
        assert layer._value_modulus == 3  # degree 2 -> values {0, 1, 2}
