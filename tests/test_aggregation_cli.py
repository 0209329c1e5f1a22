"""Tests for the aggregation application and the experiment CLI."""

from __future__ import annotations

import pytest

from repro.applications.aggregation import AggregationLayer
from repro.cli import build_parser, main
from repro.sim.runtime import Simulator
from repro.types import RequestState


class TestAggregation:
    def make(self, n=4, op=None, seed=0, scramble=False):
        values = {pid: float(pid * 10) for pid in range(1, n + 1)}

        def build(host):
            kwargs = {"op": op} if op else {}
            host.register(
                AggregationLayer(
                    "agg", value_provider=lambda pid=host.pid: values[pid],
                    **kwargs,
                )
            )

        sim = Simulator(n, build, seed=seed)
        if scramble:
            sim.scramble(seed=seed)
        return sim

    def run_one(self, sim, pid=1):
        layer = sim.layer(pid, "agg")
        layer.request_aggregate()
        assert sim.run(500_000, until=lambda s: layer.request is RequestState.DONE)
        return layer.result

    def test_global_sum(self):
        assert self.run_one(self.make(4)) == 10.0 + 20.0 + 30.0 + 40.0

    def test_global_max(self):
        sim = self.make(3, op=max)
        assert self.run_one(sim) == 30.0

    def test_global_min_generalizes_idl(self):
        sim = self.make(5, op=min)
        assert self.run_one(sim) == 10.0

    def test_correct_from_scramble(self):
        sim = self.make(3, seed=7, scramble=True)
        assert self.run_one(sim, pid=2) == 60.0

    def test_stale_collected_values_ignored(self):
        sim = self.make(3)
        layer: AggregationLayer = sim.layer(1, "agg")
        layer.collected = {2: 9999.0, 3: -9999.0}
        assert self.run_one(sim) == 60.0

    def test_garbage_feedback_ignored(self):
        sim = self.make(2)
        layer: AggregationLayer = sim.layer(1, "agg")
        layer.on_feedback(2, "junk")
        layer.on_feedback(2, ("VAL", "not-a-float"))
        assert layer.collected == {}


class TestCli:
    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        for command in ("list", "figure1", "impossibility", "pif", "idl",
                        "mutex", "compare", "scaling", "ablations",
                        "property1", "capacity", "topology"):
            args = parser.parse_args([command] if command != "pif" else ["pif"])
            assert args.command == command

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "impossibility" in out

    def test_figure1(self, capsys):
        assert main(["figure1", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "spurious" in out

    def test_pif_trials(self, capsys):
        assert main(["pif", "--n", "2", "--seeds", "0", "--loss", "0",
                     "--requests", "1"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "yes" in out

    def test_property1(self, capsys):
        assert main(["property1", "--n", "2"]) == 0
        assert "Property 1" in capsys.readouterr().out

    def test_impossibility(self, capsys):
        assert main(["impossibility", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--ns", "2", "3", "--seeds", "0"]) == 0
        assert "wave cost" in capsys.readouterr().out

    def test_scaling_rejects_wan_beside_another_topology(self, capsys):
        assert main(["scaling", "--ns", "3", "--seeds", "0",
                     "--topology", "ring", "--wan"]) == 1
        assert "--wan conflicts" in capsys.readouterr().err

    def test_topology_reports_weight_stats(self, capsys):
        assert main(["topology", "--n", "32", "--topology", "wan:4"]) == 0
        out = capsys.readouterr().out
        assert "wan[clustered(4x8)]" in out
        assert "latency_lo_max" in out and "16" in out
        assert "cross_shard_latency_floor" in out

    def test_pif_accepts_wan_flag(self, capsys):
        assert main(["pif", "--n", "4", "--wan", "--seeds", "0", "--loss", "0",
                     "--requests", "1"]) == 0
        assert "wan[clustered(2x2)]" in capsys.readouterr().out

    def test_pif_accepts_latency_map(self, capsys):
        assert main(["pif", "--n", "3", "--topology", "ring", "--latency-map",
                     "1-2=4:9", "--seeds", "0", "--loss", "0",
                     "--requests", "1"]) == 0
        assert "weighted[ring(3)]" in capsys.readouterr().out

    def test_bad_latency_map_entry_rejected(self, capsys):
        assert main(["pif", "--n", "3", "--topology", "ring",
                     "--latency-map", "1-2", "--seeds", "0"]) != 0
        assert "bad --latency-map entry" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
