"""Edge-weighted topologies: per-edge latency/capacity and the WAN preset.

Covers the :class:`~repro.sim.topology.Weighted` wrapper itself (map
normalization, validation, the ``wan`` preset and spec), the engine
plumbing (per-edge delivery draws, per-edge channel capacities), and the
defining equivalence obligation: on a weighted topology the serial,
sharded and async-loopback engines must still produce byte-identical
canonical traces, because every directed channel owns its random stream
and draws within its own edge's bounds.
"""

from __future__ import annotations

import pytest
from conftest import execute_over

from repro.core.pif import PifLayer
from repro.engine import TrialSpec, execute
from repro.errors import HorizonExceeded, SimulationError
from repro.sim.runtime import Simulator
from repro.sim.topology import (
    Clustered,
    Ring,
    Weighted,
    topology_from_spec,
)
from repro.sim.trace import canonical_trace_hash


def _pif_build(host) -> None:
    host.register(PifLayer("pif"))


class TestWeightedConstruction:
    def test_undirected_map_weighs_both_directions(self):
        top = Weighted(Ring(4), latency={(1, 2): (5, 9)})
        assert top.edge_latency(1, 2) == (5, 9)
        assert top.edge_latency(2, 1) == (5, 9)
        assert top.edge_latency(2, 3) is None

    def test_directed_map_weighs_one_channel(self):
        top = Weighted(Ring(4), latency={(1, 2): (5, 9)}, directed=True)
        assert top.edge_latency(1, 2) == (5, 9)
        assert top.edge_latency(2, 1) is None

    def test_capacity_map(self):
        top = Weighted(Ring(4), capacity={(1, 2): 3})
        assert top.edge_capacity(1, 2) == 3
        assert top.edge_capacity(2, 1) == 3
        assert top.edge_capacity(3, 4) is None

    def test_graph_is_the_base_graph(self):
        base = Clustered(2, 4)
        top = Weighted(base, latency={(1, 2): (2, 4)})
        assert top.pids == base.pids
        assert sorted(top.edges()) == sorted(base.edges())
        assert top.diameter() == base.diameter()
        assert top.is_weighted and not base.is_weighted
        assert top.name == "weighted[clustered(2x4)]"

    def test_non_edge_rejected(self):
        with pytest.raises(SimulationError):
            Weighted(Ring(6), latency={(1, 4): (1, 2)})

    def test_bad_latency_bounds_rejected(self):
        with pytest.raises(SimulationError):
            Weighted(Ring(4), latency={(1, 2): (0, 3)})
        with pytest.raises(SimulationError):
            Weighted(Ring(4), latency={(1, 2): (5, 3)})

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Weighted(Ring(4), capacity={(1, 2): 0})

    def test_double_wrap_rejected(self):
        with pytest.raises(SimulationError):
            Weighted(Weighted(Ring(4)), latency={(1, 2): (1, 2)})

    def test_weight_stats(self):
        top = Weighted(Ring(4), latency={(1, 2): (5, 9)}, capacity={(2, 3): 2})
        stats = top.weight_stats(default_latency=(1, 3), default_capacity=1)
        assert stats["directed_edges"] == 8
        assert stats["weighted_edges"] == 4  # 2 latency + 2 capacity keys
        assert stats["latency_lo_min"] == 1 and stats["latency_lo_max"] == 5
        assert stats["latency_hi_min"] == 3 and stats["latency_hi_max"] == 9
        assert stats["capacity_min"] == 1 and stats["capacity_max"] == 2


class TestWanPreset:
    def test_clustered_edges_split_local_remote(self):
        base = Clustered(2, 4)
        top = Weighted.wan(base, local=(1, 3), remote=(16, 32))
        for u, v in base.edges():
            expected = (1, 3) if base.cluster_of(u) == base.cluster_of(v) else (16, 32)
            assert top.edge_latency(u, v) == expected
            assert top.edge_latency(v, u) == expected
        assert top.kind == "wan"
        assert top.name == "wan[clustered(2x4)]"

    def test_spec_string(self):
        top = topology_from_spec("wan:4", 32)
        assert isinstance(top, Weighted)
        assert isinstance(top.base, Clustered)
        assert top.base.clusters == 4
        assert top.local_latency == (1, 3)
        assert top.remote_latency == (16, 32)

    def test_spec_divisibility_enforced(self):
        with pytest.raises(SimulationError):
            topology_from_spec("wan:3", 8)


class TestEnginePlumbing:
    def test_delivery_draws_use_edge_bounds(self):
        # Every delivery on the slow edge must arrive >= 50 ticks after the
        # send; the global (1, 3) bounds would arrive within 3.
        top = Weighted(Ring(4), latency={(1, 2): (50, 60)})
        sim = Simulator(4, _pif_build, topology=top, seed=0)
        assert sim.latency_for(1, 2) == (50, 60)
        assert sim.latency_for(2, 3) == (1, 3)

    def test_channel_capacity_sized_from_edge_map(self):
        top = Weighted(Ring(4), capacity={(1, 2): 3})
        sim = Simulator(4, _pif_build, topology=top, seed=0, capacity=1)
        assert sim.network.channel(1, 2).capacity == 3
        assert sim.network.channel(2, 1).capacity == 3
        assert sim.network.channel(2, 3).capacity == 1

    def test_horizon_exceeded_reports_window(self):
        err = HorizonExceeded("trial did not finish", horizon=100, window=16)
        assert "sync window=16" in str(err)
        assert err.window == 16


class TestEngineAgreement:
    """Weighted runs: serial is the oracle for sharded and loopback."""

    def _spec(self, engine: str, topology, n: int) -> TrialSpec:
        return TrialSpec(
            n=n, protocol={"kind": "pif"}, topology=topology, seed=0,
            loss=0.1, horizon=2_000_000, engine=engine,
            driver=dict(tag="pif", requests_per_process=1,
                        payload_fmt="m-{pid}-{k}"),
        )

    def _run(self, engine: str, topology, n: int):
        return execute(self._spec(engine, topology, n))

    @pytest.mark.parametrize("topology,n", [
        ("ring;1-2=10:20;5-6=4:4", 8),
        ("wan:4", 32),
    ], ids=["weighted-ring", "wan-clustered"])
    def test_three_engines_one_canonical_hash(self, topology, n):
        runs = {
            engine: self._run(engine, topology, n)
            for engine in ("serial", "sharded", "async")
        }
        serial = runs["serial"]
        hashes = {e: canonical_trace_hash(r.trace) for e, r in runs.items()}
        assert hashes["sharded"] == hashes["serial"]
        assert hashes["async"] == hashes["serial"]
        for engine in ("sharded", "async"):
            run = runs[engine]
            events = [(e.time, e.kind, e.process, e.data) for e in run.trace]
            assert events == [
                (e.time, e.kind, e.process, e.data) for e in serial.trace
            ]
            assert run.stats.as_dict() == serial.stats.as_dict()
            assert run.final_time == serial.final_time

    def test_per_edge_capacity_bit_identical(self):
        # (1, 5) is the bridge edge; (1, 2) is intra-cluster.
        top = Weighted(Clustered(2, 4), capacity={(1, 5): 2, (1, 2): 3})
        runs = {
            engine: execute_over(self._spec(engine, None, 8), top)
            for engine in ("serial", "sharded", "async")
        }
        base = canonical_trace_hash(runs["serial"].trace)
        assert canonical_trace_hash(runs["sharded"].trace) == base
        assert canonical_trace_hash(runs["async"].trace) == base
