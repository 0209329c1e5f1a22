"""The claims table: its static columns are the README's reproduction
table, and an unexpected verdict fails ``repro claims`` by name."""

from __future__ import annotations

import re
from pathlib import Path

import repro.analysis.claims as claims
from repro.analysis.claims import CLAIMS, HOLDS, VIOLATED, Claim, render
from repro.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_reproduction_table_is_the_static_columns():
    assert render() in _README.read_text(encoding="utf-8")
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.expected in (HOLDS, VIOLATED), claim.id
        assert re.fullmatch(r"construction|sampled\(n=\S+ × \d+ seeds? × .+\)",
                            claim.evidence), claim.id


def test_unexpected_verdict_exits_1_naming_the_row(monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", (
        Claim("X1", "a claim that turns out violated", "construction", HOLDS,
              "", lambda: False),
        Claim("X2", "a claim that holds as expected", "construction", HOLDS,
              "", lambda: True),
    ))
    assert main(["claims"]) == 1
    out, err = capsys.readouterr()
    assert "| X1 |" in out and "| X2 |" in out
    assert "X1 (expected holds, observed violated)" in err
    assert "X2" not in err and "Traceback" not in out + err
