"""Tests for the executable Theorem 1 construction."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ImpossibilityConstructionError
from repro.impossibility.construction import (
    attempt_on_bounded,
    build_gamma0,
    demonstrate_impossibility,
    record_all_fragments,
    record_fragment,
    replay,
)
from repro.sim.configuration import Choice, capture
from repro.sim.runtime import Simulator
from repro.spec.mutex_spec import check_mutex
from repro.types import RequestState


@pytest.fixture(scope="module")
def fragments():
    """Witness fragments for a 3-process system (recorded once: slow)."""
    return record_all_fragments(3, seed=0)


class TestFragmentRecording:
    def test_fragment_has_messages_and_schedule(self, fragments):
        for fragment in fragments:
            assert fragment.messages_consumed > 0
            assert fragment.schedule
            assert fragment.schedule[-1].kind in ("activate", "deliver")

    def test_initial_state_is_requesting(self, fragments):
        for fragment in fragments:
            assert fragment.initial_state["me"]["request"] is RequestState.WAIT
            assert not fragment.initial_state["me"]["in_cs"]

    def test_channel_depth_exceeds_capacity_one(self, fragments):
        # The whole point: the fragments need far more channel space than
        # the bounded model provides.
        assert max(f.max_per_channel() for f in fragments) > 1

    def test_fragment_pid_matches(self, fragments):
        assert [f.pid for f in fragments] == [1, 2, 3]

    def test_record_fragment_single(self):
        fragment = record_fragment(2, 3, seed=5)
        assert fragment.pid == 2
        assert fragment.messages_consumed > 0


class TestGamma0:
    def test_build_on_unbounded_channels(self, fragments):
        sim = build_gamma0(fragments, unbounded=True)
        total = sum(f.messages_consumed for f in fragments)
        assert sim.network.in_flight() == total

    def test_restores_initial_states(self, fragments):
        sim = build_gamma0(fragments, unbounded=True)
        for fragment in fragments:
            layer = sim.layer(fragment.pid, "me")
            assert layer.request is RequestState.WAIT

    def test_bounded_channels_reject_gamma0(self, fragments):
        with pytest.raises(ImpossibilityConstructionError):
            build_gamma0(fragments, unbounded=False, capacity=1)

    def test_attempt_on_bounded_returns_error(self, fragments):
        err = attempt_on_bounded(fragments, capacity=1)
        assert isinstance(err, ImpossibilityConstructionError)
        assert "gamma_0 does not exist" in str(err)

    def test_overflow_names_its_own_channel_depth(self, fragments):
        """The first overflow is on 2->1's IDL wave: its own depth, not the
        fragment's deepest channel."""
        err = attempt_on_bounded(fragments, capacity=1)
        assert "'me/idl/pif'" in str(err)
        needed = fragments[0].depth(2, "me/idl/pif")
        assert needed < fragments[0].max_per_channel()
        assert f"channel 2->1 needs >= {needed} slots" in str(err)

    def test_only_a_full_channel_is_the_escape_hatch(self, fragments, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a capacity bound")

        monkeypatch.setattr(Simulator, "inject", broken)
        with pytest.raises(TypeError, match="not a capacity bound"):
            attempt_on_bounded(fragments, capacity=1)


class TestReplay:
    def test_replay_reaches_bad_factor(self, fragments):
        sim = build_gamma0(fragments, unbounded=True)
        replay(sim, fragments)
        # Every pair of the three requesting occupants overlaps.
        verdict = check_mutex(sim.trace, "me", require_all_served=False)
        assert [v.prop for v in verdict.violations] == ["Correctness"] * 3

    def test_all_replayed_processes_are_requesting(self, fragments):
        sim = build_gamma0(fragments, unbounded=True)
        replay(sim, fragments)
        final = capture(sim)
        for pid in sim.pids:
            me = final.projection(pid)["me"]
            assert me["in_cs"]
            assert me["request"] is RequestState.IN

    def test_replay_returns_the_peak_in_the_cs(self, fragments):
        sim = build_gamma0(fragments, unbounded=True)
        assert replay(sim, fragments) == len(fragments)

    def test_tampered_schedule_is_a_desync(self, fragments):
        """One deliver re-pointed at an empty channel (ME's own tag carries
        no messages) is not among the successors."""
        first = fragments[0]
        i = next(i for i, c in enumerate(first.schedule) if c.kind == "deliver")
        schedule = list(first.schedule)
        schedule[i] = Choice.deliver(schedule[i].src, first.pid, "me")
        tampered = [dataclasses.replace(first, schedule=schedule), *fragments[1:]]
        sim = build_gamma0(tampered, unbounded=True)
        with pytest.raises(ImpossibilityConstructionError, match="replay desync"):
            replay(sim, tampered)


class TestEndToEnd:
    def test_demonstration_violates_safety(self):
        result = demonstrate_impossibility(3, seed=0)
        assert result.violated
        assert result.spec.spec == "ME[me]"
        assert result.max_concurrency == 3
        assert result.max_channel_depth > 1
        assert "VIOLATED" in result.summary()

    def test_two_process_demonstration(self):
        result = demonstrate_impossibility(2, seed=1)
        assert result.violated
        assert result.max_concurrency == 2
