"""A finished trial frees itself.

Every engine object a backend builds cuts the reference cycles its run
built in ``close()`` (:meth:`repro.sim.runtime.Simulator.close`), which
:func:`repro.engine.pipeline.execute` calls once per trial and a cluster
worker calls after its ``idle``.  So a trial is released by reference
counting as soon as its caller drops the run, and the cyclic collector
finds nothing of it — checked here with the collector switched off for
the trial and asked afterwards what it would free.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest
from conftest import trial_spec

from repro.analysis.runner import run_trial
from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.engine.spec import ClusterOpts
from repro.sim.channel import BernoulliLoss
from repro.sim.runtime import Simulator
from repro.sim.sharded import _KeyedTrace, scramble_shard

_SPECS = [
    pytest.param(trial_spec("pif", 4, seed=5), id="pif-n4"),
    pytest.param(trial_spec("idl", 4, seed=5), id="idl-n4"),
    pytest.param(trial_spec("me", 4, seed=5), id="me-n4"),
    pytest.param(trial_spec("pif", 16, seed=5, topology="ring", loss=0.1),
                 id="pif-ring-n16-loss"),
]


@pytest.fixture
def collector_off():
    """The collector is off from a clean start; re-enabled afterwards."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ["serial", "async"])
@pytest.mark.parametrize("spec", _SPECS)
def test_a_finished_trial_leaves_nothing_for_the_collector(
    spec, engine, collector_off
):
    spec = replace(spec, engine=engine)
    run_trial(spec)  # imports and lazy tables are not the trial's
    gc.collect()
    assert run_trial(spec).ok
    assert gc.collect() == 0


def test_a_worker_shard_leaves_nothing_for_the_collector(collector_off):
    """The cluster worker's shape: a slice under a keyed trace, scrambled,
    driven and run, then closed."""
    pids = (1, 2, 3, 4)
    spec = trial_spec("pif", 8, seed=5, topology="ring", loss=0.1)

    def shard() -> None:
        sim = Simulator(8, build_protocol(spec.protocol), topology="ring",
                        seed=5, hosts_for=pids, loss=BernoulliLoss(0.1))
        trace = sim.trace = _KeyedTrace(sim.scheduler)
        scramble_shard(sim, trace, 5 ^ 0x5EED, True)
        RequestDriver(sim, pids=pids, **spec.driver)
        sim.scheduler.run_until(300)
        assert sim.cross_outbox and len(trace) > 0
        sim.close()

    shard()
    gc.collect()
    shard()
    assert gc.collect() == 0


def test_the_coordinator_is_freed_by_reference_counting(collector_off):
    spec = replace(trial_spec("pif", 6, seed=5), engine="cluster",
                   cluster=ClusterOpts(hosts=2))
    run_trial(spec)  # boots the pool
    gc.collect()
    assert run_trial(spec).ok
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        left = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left & {"_Coordinator", "ClusterSimulator"}, left
