"""The claims table: its static columns are the README's reproduction
table, an unexpected verdict fails ``repro claims`` by name, and each
row's table is the evidence its verdict read."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import repro.analysis.claims as claims
import repro.analysis.runner as runner
from repro.analysis.claims import CLAIMS, HOLDS, VIOLATED, Claim, render, table
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
              list, lambda records: False),
        Claim("X2", "a claim that holds as expected", "construction", HOLDS,
              list, lambda records: True),
    ))
    assert main(["claims"]) == 1
    out, err = capsys.readouterr()
    assert "| X1 |" in out and "| X2 |" in out
    assert "X1 (expected holds, observed violated)" in err
    assert "X2" not in err and "Traceback" not in out + err


def test_an_unknown_claim_id_names_the_known_ones(capsys):
    assert main(["claims", "E1", "E99"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: unknown claim id E99; the ids are "
        + " ".join(claim.id for claim in CLAIMS)]


def test_a_claim_id_prints_that_rows_table(capsys):
    assert main(["claims", "E1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("E1: sampled(n=2 × 5 seeds × complete); "
                          "expected holds, observed holds\n")
    assert "| E1 |" not in out and "E2" not in out


def test_each_rows_table_is_the_evidence_its_verdict_read(monkeypatch, capsys):
    """For every row, ``repro claims ID`` prints exactly the records its
    ``holds`` judged, one line each; a row whose trials run through the
    trial pipeline has one line per trial, or per cell whose ``trials``
    column counts them."""
    judged: dict[str, list] = {}
    executed: Counter[str] = Counter()
    running: list[str] = []
    real = runner.execute

    def counting(spec):
        executed[running[-1]] += 1
        return real(spec)

    def watched(claim: Claim) -> Claim:
        def records():
            running.append(claim.id)
            return claim.records()

        def holds(records):
            judged[claim.id] = records
            return claim.holds(records)

        return replace(claim, records=records, holds=holds)

    monkeypatch.setattr(runner, "execute", counting)
    monkeypatch.setattr(claims, "CLAIMS", tuple(map(watched, CLAIMS)))
    for claim in claims.CLAIMS:
        assert main(["claims", claim.id]) == 0, claim.id
        out = capsys.readouterr().out
        records = judged[claim.id]
        assert records and out == table(claim, claim.expected, records) + "\n"
        assert len(out.splitlines()) == 3 + len(records), claim.id
        if executed[claim.id]:
            assert sum(r.get("trials", 1) for r in records) == executed[claim.id]
    # What the engine gate replays on every engine.
    assert sum(executed.values()) == 157
