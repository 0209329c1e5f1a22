"""Observation must never perturb a deterministic run.

The repro.obs design keeps every wall-clock read and dict update outside
the deterministic draw paths: engines keep passive counters, the
registry harvests them once per trial, and spans only stamp wall time
around existing phase boundaries.  The checkable consequence — the one
docs/observability.md promises — is that a trial with ``--metrics`` and
``--timeline`` enabled produces the *same canonical trace hash* as the
bare trial, on every engine.

One small PIF case (n=8, ring, loss=0.1) is enough to exercise every
engine name's obs plumbing: serial phases, the async engine's counters
(over loopback it runs the serial scheduler, so its ``scheduler.pops``
is the serial run's), and — under both ``sharded`` and ``cluster`` —
worker payloads shipped in the RESULT control frame.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    ClusterOpts,
    ObsOpts,
    ShardingOpts,
    TrialSpec,
    execute,
)
from repro.obs import validate_chrome_trace
from repro.sim.trace import canonical_trace_hash

ENGINES = [
    ("serial", {}),
    ("sharded", {"sharding": ShardingOpts(shards=2)}),
    ("async", {}),
    ("cluster", {"cluster": ClusterOpts(hosts=2)}),
]


def run_case(engine, extra, metrics=None, timeline=None):
    return execute(TrialSpec(
        n=8, protocol={"kind": "pif"}, topology="ring", seed=0, loss=0.1,
        driver=dict(tag="pif", requests_per_process=1,
                    payload_fmt="m-{pid}-{k}"),
        horizon=2_000_000, engine=engine,
        obs=ObsOpts(metrics=metrics, timeline=timeline), **extra,
    ))


@pytest.mark.parametrize("engine,extra", ENGINES,
                         ids=[engine for engine, _ in ENGINES])
def test_metrics_and_timeline_do_not_change_the_hash(
        engine, extra, tmp_path):
    bare = run_case(engine, extra)
    observed = run_case(
        engine, extra,
        metrics=str(tmp_path / "metrics.json"),
        timeline=str(tmp_path / "timeline.json"),
    )
    assert canonical_trace_hash(bare.trace) == \
        canonical_trace_hash(observed.trace)
    assert bare.stats.as_dict() == observed.stats.as_dict()
    assert bare.completions == observed.completions

    doc = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    assert doc["kind"] == "repro-obs-metrics"
    # scheduler.pops only exists on the tick engines; channel.sent is
    # the counter every engine's collect_obs records.
    assert doc["counters"]["channel.sent"] > 0
    if engine == "async":
        run_case("serial", {}, metrics=str(tmp_path / "serial.json"))
        serial = json.loads(
            (tmp_path / "serial.json").read_text(encoding="utf-8"))
        assert doc["counters"]["scheduler.pops"] == \
            serial["counters"]["scheduler.pops"]
    assert validate_chrome_trace(
        json.loads((tmp_path / "timeline.json").read_text(encoding="utf-8"))
    ) == []


def test_all_engines_agree_with_observation_on():
    hashes = {
        engine: canonical_trace_hash(run_case(engine, extra).trace)
        for engine, extra in ENGINES
    }
    assert len(set(hashes.values())) == 1, hashes


def test_cluster_timeline_covers_every_worker_lane(tmp_path):
    timeline = tmp_path / "timeline.json"
    run_case("cluster", {"cluster": ClusterOpts(hosts=2)},
             metrics=str(tmp_path / "metrics.json"), timeline=str(timeline))
    doc = json.loads(timeline.read_text(encoding="utf-8"))
    assert validate_chrome_trace(doc) == []
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # Lane 0 is the coordinator; worker shard k ships its spans over the
    # RESULT control frame and lands on lane k+1.  Windowed mode always
    # barriers, so both worker lanes must show barrier waits.
    assert {e["pid"] for e in spans} == {0, 1, 2}
    assert {e["pid"] for e in spans if e["name"] == "barrier_wait"} == {1, 2}
    # The lease is on the timeline whether it booted interpreters or
    # found them warm; its span says which.
    [lease] = [e for e in spans if e["name"] == "rendezvous"]
    assert lease["args"]["spawned"] + lease["args"]["reused"] == 2
    names = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert names[0] == "coordinator"
    assert names[1] == "shard0" and names[2] == "shard1"

    metrics = json.loads(
        (tmp_path / "metrics.json").read_text(encoding="utf-8"))
    # REGISTER + PEERS per interpreter the lease booted; none when warm.
    assert metrics["counters"].get("registry.round_trips", 0) == \
        2 * lease["args"]["spawned"]
    assert metrics["hists"]["registry.rendezvous_wall_s"][0] == 1
    assert metrics["counters"]["sync.barriers"] > 0
    assert any(name.startswith("wire.bytes_out[")
               for name in metrics["counters"])
    assert "sync.barrier_wait_s" in metrics["hists"]
