"""Tests for the window-sync runtime (repro.net.cluster).

The expensive property — windowed cluster trials reproduce serial trace
metrics and the canonical trace hash bit-for-bit — is checked here on one
small case per protocol (``benchmarks/check_engine_equivalence.py`` replays
every claims trial on it).  The rest exercises the
coordinator's validation surface, the picklable protocol/driver specs,
and :meth:`Partition.peer_shards`.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from typing import Any

import pytest
from conftest import trial_spec

from repro.analysis.runner import run_mutex_trial, run_trial
from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.engine import ClusterOpts, ObsOpts, ShardingOpts, TrialSpec, execute
from repro.errors import SimulationError, SpecError
from repro.net import coordinator
from repro.net.cluster import ClusterSimulator
from repro.net.coordinator import close_pool
from repro.net.wire import parse_hostport
from repro.obs.recorder import summarize_obs_file
from repro.sim.partition import Partition, partition_topology
from repro.sim.runtime import Simulator
from repro.sim.topology import Ring, topology_from_spec
from repro.sim.trace import canonical_trace_hash


# -- serial equivalence (the tentpole property) ---------------------------


def test_windowed_cluster_is_bit_identical_to_serial():
    spec = trial_spec("pif", 6, topology="complete", seed=0, loss=0.1,
                     horizon=2_000_000)
    serial = execute(spec)
    cluster = execute(replace(
        spec, engine="cluster", cluster=ClusterOpts(hosts=2)))
    assert [(e.time, e.kind, e.process, e.data) for e in serial.trace] == \
           [(e.time, e.kind, e.process, e.data) for e in cluster.trace]
    assert canonical_trace_hash(serial.trace) == \
           canonical_trace_hash(cluster.trace)
    assert serial.stats.as_dict() == cluster.stats.as_dict()
    assert serial.final_time == cluster.final_time
    assert serial.completions == cluster.completions


def test_a_round_ships_one_frame_per_link_not_one_per_message(tmp_path):
    """The unit on a peer link is the round: SHIP frames are bounded by
    rounds x directed links however many messages cross the cut."""
    metrics = tmp_path / "metrics.json"
    spec = trial_spec("pif", 12, topology="complete", seed=0, loss=0.1,
                     horizon=2_000_000)
    run = execute(replace(
        spec, engine="cluster", cluster=ClusterOpts(hosts=2),
        obs=ObsOpts(metrics=str(metrics))))
    counters = json.loads(metrics.read_text())["counters"]
    ship_frames = counters["wire.frames_out[ship]"]
    links = 2  # two shards of a complete graph: 0->1 and 1->0
    rounds = run.barriers + 1  # round 0 ships the scramble's backlog
    assert counters["wire.frames_out[barrier]"] == rounds * links
    assert 0 < ship_frames <= rounds * links
    # ~1 200 messages cross the cut here: a frame each breaks both bounds.
    assert ship_frames < counters["ship.messages_out"]


@pytest.mark.parametrize("topology, hosts, jumps", [
    ("complete", 2, True),
    ("ring", 4, False),  # shards peer with their two neighbours only
])
def test_quiet_rounds_jump_only_on_a_fully_peered_partition(
    tmp_path, topology, hosts, jumps
):
    """A round whose barrier shows nothing happening for a while jumps
    past it — same trace, fewer rounds — but only when every worker sees
    every shard's bound.  One-tick windows: a plain run has one round
    per tick, and every tick a jump skips is a round fewer."""
    metrics = tmp_path / "metrics.json"
    spec = trial_spec("pif", 12, topology=topology, seed=0, loss=0.1,
                      horizon=2_000_000)
    serial = execute(spec)
    run = execute(replace(
        spec, engine="cluster", cluster=ClusterOpts(hosts=hosts),
        obs=ObsOpts(metrics=str(metrics))))
    assert canonical_trace_hash(run.trace) == canonical_trace_hash(serial.trace)
    assert run.stats.as_dict() == serial.stats.as_dict()
    assert run.final_time == serial.final_time
    counters = json.loads(metrics.read_text())["counters"]
    skipped = counters.get("sync.ticks_jumped", 0) // hosts
    assert run.window == 1
    assert run.barriers + skipped == run.final_time + 1
    assert (skipped > 0) == jumps
    # The drain is quiet but for a few ticks: most of it is one round.
    assert not jumps or skipped > 100
    assert ("(window sync: " in summarize_obs_file(metrics)) == jumps


@pytest.mark.parametrize("slack", [-1, 0])
def test_horizon_at_the_completion_tick_keeps_serial_identity(slack):
    """The round grid's one irregular step: with 16-tick windows the
    horizon falls between grid points, and whether the trial counts as
    completed is decided exactly there (``slack`` -1: one tick short)."""
    spec = trial_spec("pif", 16, topology="wan:4", seed=1, loss=0.1,
                     horizon=2_000_000)
    done_at = execute(spec).final_time - 200  # final = done_at + DRAIN_TICKS
    spec = replace(spec, horizon=done_at + slack)
    serial = execute(spec)
    cluster = execute(replace(
        spec, engine="cluster", cluster=ClusterOpts(hosts=4)))
    assert cluster.window == 16 and spec.horizon % 16 != 15
    assert serial.completed == cluster.completed == (slack == 0)
    assert serial.final_time == cluster.final_time
    assert canonical_trace_hash(serial.trace) == \
           canonical_trace_hash(cluster.trace)


def test_cluster_mutex_trial_matches_serial_metrics():
    serial = run_mutex_trial(TrialSpec(n=5), requests_per_process=1)
    spec = TrialSpec(n=5, engine="cluster", cluster=ClusterOpts(hosts=2))
    close_pool()
    cluster = run_mutex_trial(spec, requests_per_process=1)
    assert cluster.ok
    assert cluster.measurements == serial.measurements
    assert cluster.provenance["hosts"] == 2
    assert cluster.provenance["barriers"] > 0
    # Per trial, not per pool: REGISTER in + PEERS out for each of the
    # two workers that just booted, nothing on a warm lease.
    assert cluster.provenance["registry_round_trips"] == 4
    assert (cluster.ok, cluster.violations) == (serial.ok, serial.violations)
    warm = run_mutex_trial(spec, requests_per_process=1)
    assert warm.measurements == serial.measurements
    assert warm.provenance["registry_round_trips"] == 0


# -- coordinator validation ----------------------------------------------


def test_cluster_requires_picklable_protocol_spec():
    with pytest.raises(SimulationError, match="picklable protocol spec"):
        ClusterSimulator(6, None)


def test_cluster_rejects_unknown_protocol_kind():
    with pytest.raises(SimulationError, match="unknown protocol kind"):
        ClusterSimulator(6, {"kind": "nope"})


def test_cluster_rejects_unknown_sync_mode():
    # "windowed" is the one protocol; any other name is a SpecError.
    for sync in ("lockstep", "freerun"):
        spec = TrialSpec(n=6, protocol={"kind": "pif"}, engine="cluster",
                         cluster=ClusterOpts(sync=sync))
        with pytest.raises(SpecError, match="sync must be") as err:
            run_trial(spec)
        assert err.value.field == "sync"


def test_cluster_rejects_callable_driver_payload():
    sim = ClusterSimulator(6, {"kind": "pif"}, hosts=2)
    driver = dict(tag="pif", requests_per_process=1,
                  payload=lambda pid, k: f"m-{pid}-{k}")
    with pytest.raises(SimulationError, match="payload_fmt"):
        sim.run_trial(horizon=100, driver=driver)


def test_a_failing_worker_names_itself_and_its_traceback(monkeypatch):
    """A worker whose trial raises sends its traceback over CONTROL
    before it exits; the coordinator raises it by shard, promptly, and
    lets the reporter exit by itself (code 1) rather than terminate it
    mid-report."""
    retired: dict[int, Any] = {}
    retire = coordinator._WorkerPool.retire

    def spy(pool, shards, **how):
        shards = list(shards)
        retired.update((shard, pool.workers[shard]) for shard in shards
                       if shard in pool.workers)
        retire(pool, shards, **how)

    monkeypatch.setattr(coordinator._WorkerPool, "retire", spy)
    sim = ClusterSimulator(6, {"kind": "pif"}, hosts=2)
    driver = dict(tag="pif", requests_per_process=1, no_such_option=1)
    with pytest.raises(SimulationError, match=r"cluster worker shard \d failed") as err:
        sim.run_trial(horizon=100, driver=driver)
    assert "no_such_option" in str(err.value)
    reporter = int(re.match(r"cluster worker shard (\d)", str(err.value))[1])
    assert retired[reporter].popen.returncode == 1


def test_execute_rejects_hosts_without_cluster_engine():
    with pytest.raises(SimulationError, match="engine='cluster'"):
        execute(trial_spec("pif", 4, horizon=100, cluster=ClusterOpts(hosts=2)))


def test_execute_rejects_shards_with_cluster_engine():
    with pytest.raises(SimulationError, match="shards requires engine='sharded'"):
        execute(trial_spec("pif", 4, horizon=100, engine="cluster",
                          sharding=ShardingOpts(shards=2)))


# -- picklable specs ------------------------------------------------------


def test_build_protocol_resolves_builders():
    build = build_protocol({"kind": "me", "cs_duration": 5})
    assert callable(build)


def test_request_driver_payload_fmt_matches_lambda_convention():
    # The spec's picklable payload spelling issues the payloads the
    # callable spelling does, byte for byte.
    def trial(**payload):
        sim = Simulator(4, build_protocol({"kind": "pif"}), seed=5)
        RequestDriver(sim, "pif", requests_per_process=2, **payload)
        sim.run(400)
        return [e.data.get("payload") for e in sim.trace]

    fmt = trial(payload_fmt="msg-{pid}-{k}")
    assert fmt == trial(payload=lambda pid, k: f"msg-{pid}-{k}")
    assert "msg-3-1" in fmt


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:4000") == ("127.0.0.1", 4000)
    with pytest.raises(SimulationError, match="HOST:PORT"):
        parse_hostport("localhost")
    with pytest.raises(SimulationError, match="bad port"):
        parse_hostport("localhost:http")


# -- Partition.peer_shards ------------------------------------------------


def test_ring_peer_shards_are_neighbours_only():
    # Explicit contiguous blocks on a 12-ring: each shard touches exactly
    # its two neighbouring arcs.
    shards = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    partition = Partition(topology=Ring(range(1, 13)), shards=shards)
    for shard in range(4):
        assert partition.peer_shards(shard) == tuple(sorted(
            {(shard - 1) % 4, (shard + 1) % 4}
        ))


def test_complete_peer_shards_are_everyone_else():
    partition = partition_topology(topology_from_spec("complete", 8), 3)
    for shard in range(3):
        assert partition.peer_shards(shard) == tuple(
            s for s in range(3) if s != shard
        )


def test_peer_shards_rejects_out_of_range():
    partition = partition_topology(topology_from_spec("complete", 6), 2)
    with pytest.raises(SimulationError, match="shard must be in"):
        partition.peer_shards(2)


def test_only_a_partition_whose_shards_all_peer_can_jump():
    """The partition-wide condition behind the lookahead jump.  A worker
    takes the minimum of the bounds its own peers' barriers carry, so on
    a 4-arc ring shards 1 and 3 would miss each other's bound: checked
    per shard instead, two shards jumped (to 284) while their neighbours
    stepped (86 -> 87), and the n=32 ring trial deadlocked."""
    ring = Ring(range(1, 13))
    arcs = Partition(topology=ring, shards=(
        (1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)))
    assert not arcs.fully_peered()
    assert Partition(topology=ring, shards=(
        (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))).fully_peered()
    complete = topology_from_spec("complete", 8)
    for shards in (1, 2, 3):
        assert partition_topology(complete, shards).fully_peered()
