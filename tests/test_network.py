"""Unit tests for the fully-connected network topology."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.channel import BoundedChannel, UnboundedChannel
from repro.sim.network import Network


class TestTopology:
    def test_channel_per_ordered_pair(self):
        net = Network([1, 2, 3])
        assert net.channel(1, 2) is not net.channel(2, 1)
        assert net.channel(1, 2).src == 1
        assert net.channel(1, 2).dst == 2

    def test_requires_two_processes(self):
        with pytest.raises(SimulationError):
            Network([1])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(SimulationError):
            Network([1, 1, 2])

    def test_pids_sorted(self):
        net = Network([30, 10, 20])
        assert net.pids == (10, 20, 30)

    def test_no_self_channel(self):
        net = Network([1, 2])
        with pytest.raises(SimulationError):
            net.channel(1, 1)


class TestChannelNumbering:
    def test_numbers_run_1_to_n_minus_1(self):
        net = Network([1, 2, 3, 4])
        nums = [net.chan_num(2, q) for q in net.peers_of(2)]
        assert nums == [1, 2, 3]

    def test_peers_exclude_self(self):
        net = Network([1, 2, 3])
        assert net.peers_of(2) == (1, 3)

    def test_peer_by_num_inverts_chan_num(self):
        net = Network([5, 7, 9])
        for p in net.pids:
            for q in net.peers_of(p):
                assert net.peer_by_num(p, net.chan_num(p, q)) == q

    def test_chan_num_unknown_peer_raises(self):
        net = Network([1, 2])
        with pytest.raises(SimulationError):
            net.chan_num(1, 99)

    def test_peer_by_num_out_of_range(self):
        net = Network([1, 2])
        with pytest.raises(SimulationError):
            net.peer_by_num(1, 2)

    def test_unknown_pid_raises(self):
        net = Network([1, 2])
        with pytest.raises(SimulationError):
            net.peers_of(42)


class TestFactoriesAndHelpers:
    def test_bounded_factory(self):
        net = Network([1, 2], capacity=3)
        assert isinstance(net.channel(1, 2), BoundedChannel)
        assert net.channel(1, 2).capacity == 3

    def test_unbounded_factory(self):
        net = Network([1, 2], UnboundedChannel)
        assert isinstance(net.channel(1, 2), UnboundedChannel)

    def test_channels_of_covers_both_directions(self):
        net = Network([1, 2, 3])
        chans = net.channels_of(2)
        assert len(chans) == 4  # 2->1, 2->3, 1->2, 3->2
        assert all(c.src == 2 or c.dst == 2 for c in chans)

    def test_in_flight_counts_everything(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Msg:
            tag: str

        net = Network([1, 2])
        net.channel(1, 2).try_admit(Msg("a"), 0)
        net.channel(2, 1).try_admit(Msg("a"), 0)
        assert net.in_flight() == 2
        assert net.clear_channels() == 2
        assert net.in_flight() == 0

    def test_n_property(self):
        assert Network([1, 2, 3, 4, 5]).n == 5
