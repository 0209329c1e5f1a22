"""Unit tests for the initial-configuration adversaries."""

from __future__ import annotations

import random

import pytest

from repro.core.mutex import MutexLayer
from repro.core.pif import PifLayer
from repro.errors import SimulationError
from repro.sim.adversary import (
    figure1_configuration,
    scramble_channels,
    scramble_processes,
    scramble_system,
)
from repro.sim.configuration import capture
from repro.sim.runtime import Simulator
from repro.types import RequestState


def build_pif(host) -> None:
    host.register(PifLayer("pif"))


class TestScrambleProcesses:
    def test_values_stay_in_domain(self):
        sim = Simulator(3, build_pif, auto=False)
        scramble_processes(sim, random.Random(3))
        for pid in sim.pids:
            layer: PifLayer = sim.layer(pid, "pif")
            assert layer.request in set(RequestState)
            for q in sim.network.peers_of(pid):
                assert 0 <= layer.state[q] <= layer.max_state
                assert 0 <= layer.neig_state[q] <= layer.max_state

    def test_mutex_scramble_domains(self):
        sim = Simulator(4, lambda h: h.register(MutexLayer("me")), auto=False)
        scramble_processes(sim, random.Random(11))
        for pid in sim.pids:
            layer: MutexLayer = sim.layer(pid, "me")
            assert 0 <= layer.phase <= 4
            assert 0 <= layer.value <= sim.network.n - 1

    def test_scramble_emits_trace_event(self):
        sim = Simulator(2, build_pif, auto=False)
        scramble_processes(sim, random.Random(0))
        assert sim.trace.first("scramble", what="processes") is not None


class TestScrambleChannels:
    def test_respects_capacity(self):
        sim = Simulator(3, build_pif, auto=False)
        injected = scramble_channels(sim, random.Random(5), fill_prob=1.0)
        # capacity 1 per tag per direction; 6 ordered pairs, 1 tag.
        assert injected == 6
        for channel in sim.network.channels():
            assert len(channel) <= 1

    def test_unbounded_bounded_by_max_per_tag(self):
        sim = Simulator(2, build_pif, auto=False, unbounded=True)
        injected = scramble_channels(
            sim, random.Random(5), fill_prob=1.0, max_per_tag=2
        )
        assert injected == 4  # 2 per direction
        for channel in sim.network.channels():
            assert len(channel) == 2

    def test_fill_prob_zero_injects_nothing(self):
        sim = Simulator(3, build_pif, auto=False)
        assert scramble_channels(sim, random.Random(5), fill_prob=0.0) == 0

    def test_garbage_is_well_typed(self):
        sim = Simulator(2, build_pif, auto=False)
        scramble_channels(sim, random.Random(5), fill_prob=1.0)
        for channel in sim.network.channels():
            for msg in channel.contents():
                assert msg.tag == "pif"
                assert 0 <= msg.state <= 4


class TestScrambleSystem:
    def test_scramble_system_does_both(self):
        sim = Simulator(3, build_pif, auto=False)
        scramble_system(sim, random.Random(9), fill_prob=1.0)
        assert sim.network.in_flight() > 0

    def test_sim_scramble_wrapper_deterministic(self):
        def states(seed):
            sim = Simulator(3, build_pif, auto=False)
            sim.scramble(seed=seed)
            return capture(sim).states

        assert states(4) == states(4)
        assert states(4) != states(5)


class TestFigure1:
    def test_sets_up_worst_case(self):
        sim = Simulator(2, build_pif, auto=False)
        p, q = figure1_configuration(sim, tag="pif")
        assert (p, q) == (1, 2)
        layer_q: PifLayer = sim.layer(q, "pif")
        assert layer_q.request is RequestState.IN
        assert layer_q.neig_state[p] == 1
        channel = sim.network.channel(q, p)
        assert len(channel) == 1
        assert channel.contents()[0].echo == 0

    def test_requires_two_processes(self):
        sim = Simulator(3, build_pif, auto=False)
        with pytest.raises(SimulationError):
            figure1_configuration(sim)

    def test_requires_pif_layer(self):
        from repro.core.mutex import MutexLayer

        sim = Simulator(2, lambda h: h.register(MutexLayer("me")), auto=False)
        with pytest.raises(SimulationError):
            figure1_configuration(sim, tag="me")
