"""Tests for the experiment CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        for command in ("list", "claims", "pif", "idl", "mutex", "collect",
                        "topology"):
            assert parser.parse_args([command]).command == command

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "claims" in out and "pif" in out and "figure1" not in out

    def test_figure1(self, capsys):
        assert main(["claims", "E1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("E1: ") and "spurious" in out

    def test_pif_trials(self, capsys):
        assert main(["pif", "--n", "2", "--seeds", "0", "--loss", "0",
                     "--requests", "1"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "yes" in out

    def test_collect_trials(self, capsys):
        assert main(["collect", "--n", "3", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out and "computations" in out
        assert "| yes |" in out

    def test_property1(self, capsys):
        assert main(["claims", "E9a"]) == 0
        assert "property1_holds" in capsys.readouterr().out

    def test_impossibility(self, capsys):
        assert main(["claims", "E2-"]) == 0
        out = capsys.readouterr().out
        assert "observed violated" in out and "unbounded_violated" in out

    def test_scaling(self, capsys):
        assert main(["claims", "E7"]) == 0
        assert "messages_per_peer" in capsys.readouterr().out

    def test_pif_rejects_wan_beside_another_topology(self, capsys):
        assert main(["pif", "--n", "3", "--seeds", "0",
                     "--topology", "ring", "--wan"]) == 1
        assert "--wan conflicts" in capsys.readouterr().err

    def test_named_protocol_error_prints_one_line(self, capsys):
        assert main(["pif", "--n", "3", "--seeds", "0",
                     "--requests", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: requests_per_process must be >= 0, got -1"]
        assert "Traceback" not in err

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
