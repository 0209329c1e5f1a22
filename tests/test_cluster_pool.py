"""The worker pool of the window-sync runtime (repro.net.coordinator).

Worker interpreters outlive the trial: a trial leases slots
``0..hosts-1`` from one process-wide pool, reusing live idle workers and
spawning the shortfall.  These tests pin the lease rules by exact spawn
counts (``interpreters_spawned``), the reuse boundary (never after a
trial that raised), the lifecycle ends (``close_pool``, a dead
coordinator, a forked child) and what a long-lived worker must not do
(grow, leak a stderr file, carry state between trials — every windowed
trial here is compared with the serial engine's canonical hash).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import trial_spec

import repro
from repro.analysis import runner
from repro.analysis.runner import run_mutex_trial, run_pif_trial
from repro.engine import (
    ChaosOpts,
    ClusterOpts,
    ObsOpts,
    ShardingOpts,
    TrialSpec,
    execute,
)
from repro.errors import WorkerCrashed
from repro.net import coordinator
from repro.net.cluster import ClusterSimulator
from repro.net.coordinator import close_pool, interpreters_spawned
from repro.sim.trace import canonical_trace_hash

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _pif_spec(n, **axes) -> TrialSpec:
    return trial_spec("pif", n, loss=0.1, **axes)


def _on_cluster(spec: TrialSpec, hosts: int, **opts) -> TrialSpec:
    return replace(spec, engine="cluster",
                   cluster=ClusterOpts(hosts=hosts, **opts))


def _hash(spec: TrialSpec) -> str:
    return canonical_trace_hash(execute(spec).trace)


def _live_worker_children() -> list[int]:
    """Pids of this process's live ``cluster-worker`` children."""
    return _cluster_workers(lambda fields: int(fields[1]) == os.getpid())


def _cluster_workers(select) -> list[int]:
    """``/proc`` scan (as the perf ledger's leak check): live
    ``cluster-worker`` processes whose stat fields — after ``pid
    (comm)``: state ppid pgrp session — pass ``select``."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if (fields[0] != "Z" and b"cluster-worker" in cmdline
                and select(fields)):
            found.append(int(entry.name))
    return found


# -- the lease, by exact count --------------------------------------------


def test_one_pool_serves_changing_shapes(tmp_path, monkeypatch):
    """hosts 2 -> 4 -> 2, complete -> wan:4 -> ring, PIF -> ME, obs on
    and off, back to back: four interpreters in all, and no trial sees
    anything of the one before."""
    obs = ObsOpts(metrics=str(tmp_path / "m.json"),
                  timeline=str(tmp_path / "t.json"))
    close_pool()
    before = interpreters_spawned()

    complete = _pif_spec(6, seed=0)
    assert _hash(_on_cluster(complete, 2)) == _hash(complete)
    wan = _pif_spec(16, topology="wan:4", seed=0)
    assert _hash(replace(_on_cluster(wan, 4), obs=obs)) == _hash(wan)
    assert interpreters_spawned() - before == 4

    lossy_ring = _pif_spec(8, topology="ring", seed=1)
    assert _hash(_on_cluster(lossy_ring, 2)) == _hash(lossy_ring)

    captured = []
    real_execute = runner.execute
    monkeypatch.setattr(
        runner, "execute",
        lambda spec: captured.append(real_execute(spec)) or captured[-1])
    me = TrialSpec(n=5, seed=1)
    assert run_mutex_trial(me, requests_per_process=1).ok
    assert run_mutex_trial(
        replace(_on_cluster(me, 2), obs=obs), requests_per_process=1).ok
    serial_run, cluster_run = captured
    assert canonical_trace_hash(cluster_run.trace) == \
        canonical_trace_hash(serial_run.trace)

    ring = _pif_spec(8, topology="ring", seed=2)
    assert _hash(_on_cluster(ring, 2)) == _hash(ring)
    assert _hash(_on_cluster(complete, 2)) == _hash(complete)
    assert interpreters_spawned() - before == 4


def test_cluster_then_sharded_then_cluster_in_one_process():
    """``sharded`` is the same runtime under another name: after
    ``cluster`` at the same worker count it boots no interpreter."""
    spec = _pif_spec(8, seed=3)
    serial = _hash(spec)
    close_pool()
    before = interpreters_spawned()
    assert _hash(_on_cluster(spec, 2)) == serial
    assert interpreters_spawned() - before == 2
    sharded = execute(replace(spec, engine="sharded",
                              sharding=ShardingOpts(shards=2)))
    assert canonical_trace_hash(sharded.trace) == serial
    assert set(sharded.provenance()) == {
        "engine", "transport", "wall_clock_s", "window", "barriers",
        "sync_wall_s"}
    assert _hash(_on_cluster(spec, 2)) == serial
    assert interpreters_spawned() - before == 2


def test_close_pool_then_a_trial_respawns():
    spec = _on_cluster(_pif_spec(6, seed=0), 2)
    execute(spec)
    close_pool()
    assert _live_worker_children() == []
    before = interpreters_spawned()
    execute(spec)
    assert interpreters_spawned() - before == 2
    assert len(_live_worker_children()) == 2


def test_dead_pooled_worker_is_replaced_silently():
    spec = _pif_spec(6, seed=4)
    execute(_on_cluster(spec, 2))
    victim = coordinator._shared_pool().workers[0].popen
    victim.kill()
    victim.wait()
    before = interpreters_spawned()
    assert _hash(_on_cluster(spec, 2)) == _hash(spec)
    assert interpreters_spawned() - before == 1


# -- reuse stops at a trial that raised -----------------------------------


def test_failed_trial_discards_every_worker_it_leased():
    driver = dict(tag="pif", requests_per_process=2,
                  payload_fmt="m-{pid}-{k}")
    execute(_on_cluster(_pif_spec(6, seed=3), 2))  # a warm pool
    leased = [w.popen for w in coordinator._shared_pool().workers.values()]
    sim = ClusterSimulator(
        6, {"kind": "pif"}, seed=3, hosts=2,
        fault_plan="crash worker 1 at barrier 2", recover=False)
    with pytest.raises(WorkerCrashed) as excinfo:
        sim.run_trial(horizon=2_000_000, scramble_seed=3 ^ 0x5EED,
                      driver=driver)
    assert excinfo.value.shard == 1 and excinfo.value.round == 2
    # Nothing of the failed trial is alive or leasable: not the warm
    # worker it reused, not the one it spawned with the crash token.
    assert all(popen.poll() is not None for popen in leased)
    assert _live_worker_children() == []
    assert coordinator._shared_pool().workers == {}
    before = interpreters_spawned()
    spec = _pif_spec(6, seed=3)
    assert _hash(_on_cluster(spec, 2)) == _hash(spec)
    assert interpreters_spawned() - before == 2


def test_recovered_replacement_is_leased_to_the_next_trial():
    serial = run_pif_trial(TrialSpec(n=6, seed=3))
    spec = TrialSpec(n=6, seed=3, engine="cluster",
                     cluster=ClusterOpts(hosts=2))
    close_pool()
    before = interpreters_spawned()
    crashed = run_pif_trial(
        replace(spec, chaos=ChaosOpts(plan="crash worker 1 at barrier 3")))
    assert crashed.provenance["recoveries"] == 1
    # Two boots, one respawn — each a REGISTER + PEERS exchange.
    assert interpreters_spawned() - before == 3
    assert crashed.provenance["registry_round_trips"] == 6
    replacement = coordinator._shared_pool().workers[1].popen.pid
    clean = run_pif_trial(spec)
    assert clean.measurements == serial.measurements
    assert interpreters_spawned() - before == 3
    assert coordinator._shared_pool().workers[1].popen.pid == replacement


def test_worker_killed_with_its_result_unshipped_is_a_named_error(
    monkeypatch,
):
    """The one phase no crash token names: the worker finished its
    rounds and dies as its result is asked for.  Through either engine
    name that is a prompt :class:`WorkerCrashed` — shard, phase, exit
    code — and nothing of the trial stays leased."""
    execute(_on_cluster(_pif_spec(6, seed=3), 2))  # a warm pool
    send = coordinator._Coordinator._send

    async def kill_then_send(self, shard, message):
        if message == ("result",) and shard == 1:
            self.workers[1].popen.kill()
        await send(self, shard, message)

    monkeypatch.setattr(coordinator._Coordinator, "_send", kill_then_send)
    started = time.monotonic()
    with pytest.raises(WorkerCrashed) as excinfo:
        execute(replace(_pif_spec(6, seed=3), engine="sharded",
                        sharding=ShardingOpts(shards=2)))
    assert time.monotonic() - started < 10
    crash = excinfo.value
    assert crash.shard == 1 and crash.phase == "result"
    assert crash.exit_code == -signal.SIGKILL and "shard 1" in str(crash)
    assert _live_worker_children() == []
    assert coordinator._shared_pool().workers == {}


# -- a long-lived worker stays small and truthful -------------------------


def test_worker_rss_and_frame_counts_stay_flat_over_thirty_trials(tmp_path):
    metrics = tmp_path / "metrics.json"
    spec = replace(_on_cluster(_pif_spec(6, seed=0), 2),
                   obs=ObsOpts(metrics=str(metrics)))
    docs = []
    for _ in range(30):
        execute(spec)
        docs.append(json.loads(metrics.read_text()))
    rss = [doc["gauges"]["process.max_rss_kb"] for doc in docs]
    assert rss[29] < 1.10 * rss[1], rss
    # A worker's wire counters restart at each spec, and its dial
    # retries are counted in the trial that paid them.
    ships = [doc["counters"]["wire.frames_out[ship]"] for doc in docs]
    assert len(set(ships)) == 1, ships
    control = [doc["counters"]["wire.frames_out[control]"] for doc in docs]
    assert max(control[1:]) < 1.5 * min(control[1:]), control
    assert all("registry.rendezvous_wall_s" in doc["hists"] for doc in docs)
    assert not any("backoff.retries" in doc["counters"] for doc in docs[1:])


# -- hand-launched workers share the one lifecycle ------------------------


def test_hand_launched_workers_serve_a_trial_then_exit():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster-worker",
             "--registry", address, "--shard", str(shard)],
            env={**os.environ, "PYTHONPATH": _SRC})
        for shard in range(2)
    ]
    try:
        spec = _pif_spec(6, seed=0)
        before = interpreters_spawned()
        listening = replace(spec, engine="cluster",
                            cluster=ClusterOpts(hosts=2, listen=address))
        assert _hash(listening) == _hash(spec)
        assert interpreters_spawned() == before
        # ``exit`` when the trial ends: nothing to pool, nothing left.
        assert [w.wait(timeout=5) for w in workers] == [0, 0]
    finally:
        for worker in workers:
            worker.kill()


# -- no orphans, no inherited handles -------------------------------------

_ONE_TRIAL = """
import sys
from repro.analysis.runner import run_pif_trial
from repro.engine import ChaosOpts, ClusterOpts, TrialSpec
spec = TrialSpec(n=6, seed=0, engine="cluster", cluster=ClusterOpts(hosts=2))
assert run_pif_trial(spec).ok
print("idle", flush=True)
if sys.argv[1] == "mid-rounds":
    run_pif_trial(TrialSpec(
        n=6, seed=0, engine="cluster", cluster=ClusterOpts(hosts=2),
        chaos=ChaosOpts(plan="stall worker 0 at round 2 for 60s")))
sys.stdin.read()
"""


@pytest.mark.parametrize("state", ["idle", "mid-rounds"])
def test_killed_coordinator_leaves_no_orphan_worker(state):
    """SIGKILL runs no atexit: the workers go because their control
    channel closes — idle between trials (an untimed wait), or with one
    worker asleep in a stall and its peer blocked on that barrier."""
    child = subprocess.Popen(
        [sys.executable, "-c", _ONE_TRIAL, state],
        env={**os.environ, "PYTHONPATH": _SRC}, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, start_new_session=True)

    def orphans():
        return _cluster_workers(lambda fields: int(fields[3]) == child.pid)

    try:
        assert child.stdout.readline().strip() == "idle"
        if state == "mid-rounds":
            time.sleep(1.0)  # into the stalled trial
        assert len(orphans()) == 2
        child.kill()
        child.wait()
        deadline = time.monotonic() + 5.0
        while orphans() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert orphans() == []
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.stdout.close()
        child.stdin.close()


def test_forked_child_treats_the_inherited_pool_as_empty():
    spec = _on_cluster(_pif_spec(6, seed=0), 2)
    execute(spec)
    pool = coordinator._shared_pool()
    pid = os.fork()
    if pid == 0:  # the child: must neither drive nor tear down
        code = 1
        try:
            close_pool()  # not ours: a no-op
            fresh = coordinator._shared_pool()
            if fresh is not pool and fresh.workers == {}:
                code = 0
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    assert all(w.popen.poll() is None for w in pool.workers.values())
    before = interpreters_spawned()
    execute(spec)
    assert interpreters_spawned() == before
