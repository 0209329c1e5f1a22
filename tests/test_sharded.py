"""Shard/serial equivalence: the window-sync runtime's defining property.

The conservative time-window protocol plus per-entity random streams and
canonical event keys must make a sharded run **bit-identical** to the serial
engine for the same seed: same trace (event for event, including payload
data), same stats, same final states, same request completions, same final
time.  These tests assert exactly that through ``engine="sharded"`` — one
of the two names of the one runtime (:mod:`repro.net.cluster`) — and, where
a case needs an axis no spec carries (``fill_channels``, a bare latency
band), through its constructor; the ``shard-equivalence`` CI job re-asserts
it at n=32 at every push.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.pif import PifLayer
from repro.engine import EngineRun, ShardingOpts, TrialSpec, execute
from repro.errors import SimulationError
from repro.net.cluster import ClusterSimulator
from repro.sim.channel import DropFirstK


def _pif_build(host) -> None:
    host.register(PifLayer("pif"))


_PIF_DRIVER = dict(
    tag="pif", requests_per_process=1, payload=lambda pid, k: f"m-{pid}-{k}"
)
#: (protocol, driver) of the two trial kinds, in their spec spelling.
_PIF = ({"kind": "pif"},
        dict(tag="pif", requests_per_process=1, payload_fmt="m-{pid}-{k}"))
_ME = ({"kind": "me", "cs_duration": 3},
       dict(tag="me", requests_per_process=1))


def _both(n, trial, *, shards=None, horizon=4_000_000,
          **axes) -> tuple[EngineRun, EngineRun]:
    protocol, driver = trial
    spec = TrialSpec(n=n, protocol=protocol, driver=driver, horizon=horizon,
                     **axes)
    return execute(spec), execute(replace(
        spec, engine="sharded", sharding=ShardingOpts(shards=shards)))


def _assert_bit_identical(serial: EngineRun, sharded: EngineRun) -> None:
    serial_events = [(e.time, e.kind, e.process, e.data) for e in serial.trace]
    sharded_events = [(e.time, e.kind, e.process, e.data) for e in sharded.trace]
    assert serial_events == sharded_events
    assert serial.stats.as_dict() == sharded.stats.as_dict()
    assert dict(serial.stats.sent_by_tag) == dict(sharded.stats.sent_by_tag)
    assert serial.finals == sharded.finals
    assert serial.completions == sharded.completions
    assert serial.completed == sharded.completed
    assert serial.final_time == sharded.final_time


class TestBitIdenticalAtN32:
    """Acceptance: Complete, Ring and Clustered at n=32, same seed."""

    @pytest.mark.parametrize(
        "topology,shards",
        [(None, 4), ("ring", 4), ("clustered:4", None)],
        ids=["complete", "ring", "clustered"],
    )
    def test_pif_trace_bit_identical(self, topology, shards):
        serial, sharded = _both(
            32, _PIF, topology=topology, seed=0, loss=0.1, shards=shards,
        )
        _assert_bit_identical(serial, sharded)

    def test_mutex_trace_bit_identical_on_ring(self):
        # ME convergence on a ring is slow at n=32 (per-neighbourhood
        # arbitration, many Value rotations), so the busy/timer paths are
        # asserted at n=8 here; the n=32 ME gate runs in CI
        # (benchmarks/check_shard_equivalence.py) on Complete + Clustered.
        serial, sharded = _both(8, _ME, topology="ring", seed=1, shards=4)
        _assert_bit_identical(serial, sharded)


class TestBitIdenticalMutex:
    def test_mutex_clustered_with_busy_critical_sections(self):
        # ME exercises busy windows, call_later timers and cross-cluster
        # EXITCS waves — the hardest paths for shard composition.
        serial, sharded = _both(
            16, _ME, topology="clustered:4", seed=3, loss=0.1)
        _assert_bit_identical(serial, sharded)

    def test_mutex_complete_greedy_shards(self):
        serial, sharded = _both(
            6, _ME, topology=None, seed=1, shards=3, horizon=2_000_000)
        _assert_bit_identical(serial, sharded)


class TestSingleShard:
    def test_single_shard_run_equals_serial_event_for_event(self):
        serial, sharded = _both(
            8, _PIF, topology="clustered:2", seed=5, loss=0.2, shards=1)
        _assert_bit_identical(serial, sharded)


class TestScrambleVariants:
    def test_states_only_scramble_bit_identical(self):
        # fill_channels=False: no INJECTs and no channel-scramble marker in
        # either engine (regression: the merge used to fabricate the marker).
        from repro.sim.runtime import Simulator
        from repro.core.requests import RequestDriver

        seed = 4
        sim = Simulator(8, _pif_build, topology="clustered:2", seed=seed)
        sim.scramble(seed=seed ^ 0x5EED, fill_channels=False)
        driver = RequestDriver(sim, **_PIF_DRIVER)
        assert sim.run(1_000_000, until=lambda s: driver.done)
        sim.run(sim.now + 200)

        sharded = ClusterSimulator(8, _PIF[0], topology="clustered:2", seed=seed)
        result = sharded.run_trial(
            horizon=1_000_000, scramble_seed=seed ^ 0x5EED,
            fill_channels=False, driver=_PIF[1], drain=200,
        )
        serial_events = [(e.time, e.kind, e.process, e.data) for e in sim.trace]
        sharded_events = [(e.time, e.kind, e.process, e.data) for e in result.trace]
        assert serial_events == sharded_events
        assert sim.stats.as_dict() == result.stats.as_dict()


class TestSeedSensitivity:
    def test_different_seeds_differ(self):
        _, run_a = _both(8, _PIF, topology="ring", seed=0)
        _, run_b = _both(8, _PIF, topology="ring", seed=1)
        a = [(e.time, e.kind, e.process, e.data) for e in run_a.trace]
        b = [(e.time, e.kind, e.process, e.data) for e in run_b.trace]
        assert a != b


class TestValidation:
    def test_window_beyond_lookahead_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(8, _PIF[0], latency=(2, 5), window=3)

    def test_window_within_lookahead_accepted(self):
        sharded = ClusterSimulator(8, _PIF[0], latency=(2, 5), window=2)
        assert sharded.window == 2

    def test_window_defaults_to_latency_floor(self):
        sharded = ClusterSimulator(8, _PIF[0], latency=(4, 9))
        assert sharded.window == 4

    def test_stateful_loss_model_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(8, _PIF[0], loss=DropFirstK(2))

    def test_drain_below_window_rejected(self):
        sharded = ClusterSimulator(8, _PIF[0], latency=(4, 9))
        with pytest.raises(SimulationError):
            sharded.run_trial(horizon=100, driver=_PIF[1], drain=2)


class TestWeightedTopologies:
    def test_wan_widened_window_bit_identical(self):
        # wan:4 puts lo=16 on every cut edge, so the cross-shard lookahead
        # runs 16-tick windows over a global (1, 3) latency — cross-shard
        # handoffs span many engine ticks per barrier and must still land
        # exactly where the serial engine delivers them.
        serial, sharded = _both(32, _PIF, topology="wan:4", seed=0, loss=0.1)
        assert sharded.window == 16
        _assert_bit_identical(serial, sharded)

    def test_weighted_run_reports_barrier_provenance(self):
        _, sharded = _both(32, _PIF, topology="wan:4", seed=0)
        prov = sharded.provenance()
        assert prov["window"] == 16
        assert prov["barriers"] > 0
        assert prov["sync_wall_s"] >= 0.0


class TestWiderWindows:
    def test_wide_latency_wide_window_still_bit_identical(self):
        # window = lookahead = 6: several ticks per barrier, cross-shard
        # messages span multiple windows.
        serial, sharded = _both(16, _PIF, topology="clustered:4", seed=2,
                                latency=(6, 14), horizon=500_000)
        assert sharded.window == 6
        _assert_bit_identical(serial, sharded)


class TestCrossShardSendsAreNotDropped:
    def test_tight_horizon_trial_completes(self):
        # A wave needs every cross-shard handshake message: one send that
        # never reaches the outbox (a link holding a stale outbox list did
        # exactly that) and the trial never converges.  The horizon sits
        # just past the serial completion tick, so that failure is a fast
        # "not completed", not a run to a far horizon.
        spec = TrialSpec(n=8, topology="ring", seed=3, protocol=_PIF[0],
                         driver=_PIF[1], horizon=1_000_000)
        serial = execute(spec)
        done_at = serial.final_time - 200  # final = done_at + DRAIN_TICKS
        sharded = execute(replace(
            spec, horizon=done_at + 16, engine="sharded",
            sharding=ShardingOpts(shards=2)))
        assert sharded.completed and sharded.final_time == serial.final_time
        assert sharded.stats.as_dict() == serial.stats.as_dict()
