"""Dormant activations are unobservable.

An activation that executes nothing takes its process off the event heap
until an event can change the process's variables
(:meth:`repro.sim.runtime.Simulator._make_activation`).  An activation
hook keeps every process awake on the same closure — the eager schedule —
so a hooked run is the reference a dormant run must equal: canonical
trace hash, ``stats.as_dict()`` (``activations`` included) and final tick.

The count is also anchored absolutely: on PIF and IDL trials, which have
no busy windows, ``stats.activations`` is what each process's own
activation stream says it ran up to the final tick — on every engine, so
a catch-up bug that moved all engines together would still fail here.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from conftest import build_pif, trial_spec
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocols import PROTOCOLS
from repro.engine import ClusterOpts, ShardingOpts, TrialSpec, execute
from repro.engine.registry import resolve
from repro.sim import configuration
from repro.sim.channel import BernoulliLoss
from repro.sim.determinism import derive_seed, driver_key
from repro.sim.runtime import Simulator
from repro.sim.trace import EventKind, canonical_trace_hash
from repro.types import RequestState

#: The engine's activation defaults (``Simulator``'s keyword defaults,
#: which no backend overrides).
PERIOD, JITTER = 2, 1


def _observed(trace, stats, final_time):
    return canonical_trace_hash(trace), stats.as_dict(), final_time


def _serial(spec, *, hooked: bool):
    """One trial on the serial backend; ``hooked`` attaches a no-op
    activation hook before anything runs."""
    backend = resolve("serial")
    prepared = backend.prepare(spec)
    if hooked:
        prepared.sim.activation_hooks.append(lambda pid: None)
    run = backend.run(prepared)
    return _observed(run.trace, run.stats, run.final_time), prepared.sim


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["pif", "idl", "me"]),
       topology=st.sampled_from(["complete", "ring", "wan:2"]),
       loss=st.sampled_from([0.0, 0.1]),
       seed=st.integers(min_value=0, max_value=10_000))
def test_a_dormant_run_is_the_hooked_run(kind, topology, loss, seed):
    # Two requests each: the second is issued to a process that served
    # its first and may have gone dormant since.
    spec = PROTOCOLS[kind].describe(
        TrialSpec(n=6, seed=seed, topology=topology, loss=loss),
        requests_per_process=2)
    eager, _ = _serial(spec, hooked=True)
    dormant, sim = _serial(spec, hooked=False)
    assert dormant == eager
    if kind != "me":  # ME's phase cycle keeps some action enabled
        assert sim.activations_dormant > 0  # the drain alone is idle


def test_a_sharded_run_is_the_hooked_serial_run():
    spec = trial_spec("pif", 8, seed=3, topology="wan:2", loss=0.1,
                      engine="sharded", sharding=ShardingOpts(shards=2))
    run = execute(spec)
    eager, _ = _serial(
        dataclasses.replace(spec, engine="serial", sharding=ShardingOpts()),
        hooked=True)
    assert _observed(run.trace, run.stats, run.final_time) == eager


# -- pokes from outside the processes' own events ---------------------------


def _poked(poke, *, hooked: bool):
    """A quiescent ring (no requests, no garbage: every process is dormant
    after its first activation), poked by ``poke(sim)``, run to t=3000."""
    sim = Simulator(5, build_pif, topology="ring", seed=11,
                    loss=BernoulliLoss(0.1))
    if hooked:
        sim.activation_hooks.append(lambda pid: None)
    dormant_at_poke = poke(sim)
    sim.run(3_000)
    return _observed(sim.trace, sim.stats, sim.now), sim, dormant_at_poke


def _request_mid_run(sim) -> list[bool]:
    host = sim.host(3)
    seen: list[bool] = []

    def poke() -> None:
        seen.append(host._catch_up is not None)
        # A request written from outside the process's events wakes it
        # first (the contract RequestDriver._issue follows).
        host.wake()
        host.layer("pif").external_request("poked")

    sim.scheduler.post_at(40, poke, driver_key())
    return seen


def _scramble_mid_run(sim) -> list[bool]:
    seen: list[bool] = []

    def poke() -> None:
        seen.append(any(h._catch_up is not None for h in sim.hosts.values()))
        sim.scramble(seed=99)

    sim.scheduler.post_at(40, poke, driver_key())
    return seen


def _restore_between_runs(sim) -> list[bool]:
    sim.scramble(seed=5)
    captured = configuration.capture(sim)
    sim.run(150)
    configuration.restore(sim, captured)
    return [True]  # between runs nobody is dormant: restore's wake is a no-op


@pytest.mark.parametrize("poke", [_request_mid_run, _scramble_mid_run,
                                  _restore_between_runs])
def test_a_poke_from_outside_matches_the_hooked_run(poke):
    eager, _, _ = _poked(poke, hooked=True)
    dormant, sim, dormant_at_poke = _poked(poke, hooked=False)
    assert dormant == eager
    assert dormant_at_poke == [True]
    assert sim.activations_dormant > 0
    if poke is _request_mid_run:
        assert sim.layer(3, "pif").request is RequestState.DONE
        assert any(e.process == 3 for e in sim.trace.of_kind(EventKind.DECIDE))


# -- the absolute anchor ----------------------------------------------------


def _stream_activations(seed: int, pids, final_time: int) -> int:
    """Activations at or before ``final_time`` by each process's own
    stream: a ``randrange(PERIOD)`` offset, then steps of
    ``PERIOD + randint(0, JITTER)``."""
    total = 0
    for pid in pids:
        rng = random.Random(derive_seed(seed, "act", pid))
        t = rng.randrange(PERIOD)
        while t <= final_time:
            total += 1
            t += PERIOD + rng.randint(0, JITTER)
    return total


@pytest.mark.parametrize("engine, extra", [
    ("serial", {}),
    ("sharded", {"sharding": ShardingOpts(shards=2)}),
    ("cluster", {"cluster": ClusterOpts(hosts=2)}),
], ids=["serial", "sharded", "cluster"])
@pytest.mark.parametrize("kind", ["pif", "idl"])
def test_activations_are_what_the_streams_say(kind, engine, extra):
    spec = trial_spec(kind, 8, seed=4, topology="wan:2", loss=0.1,
                      engine=engine, **extra)
    run = execute(spec)
    assert run.completed
    assert run.stats.activations == _stream_activations(
        spec.seed, run.pids, run.final_time)
