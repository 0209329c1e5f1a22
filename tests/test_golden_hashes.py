"""Absolute anchors: recorded specs must keep producing recorded traces.

``tests/data/golden_hashes.json`` holds ``{"spec": TrialSpec.as_provenance(),
"hash": canonical_trace_hash}`` entries — PIF / IDL / ME × complete / ring /
wan:2 × loss 0 / 0.1 × capacity 1 / 2 at n ≤ 8 on the serial engine —
recorded at the commit before ``TrialSpec.build`` was removed.  A record
replays with no per-protocol code: ``run_trial(TrialSpec.from_provenance(
entry["spec"]))``.  Each record also carries what the trial concluded
from that trace — ``ok``, ``violations`` and the
``measurements`` block (waves, ``wave_p50/p95``, ``computations``,
``cs_count``, ``latency_p50``, ...) — recorded at the commit before
Specifications 1–3 became one automaton each, so a specification rewrite
that changes a verdict or a by-product fails here, not only one that
changes a trace.  The equivalence gates compare engines with each other at
HEAD; this corpus is what catches a change that moves all of them
together.  Regenerate it only for an intended change of the simulation
semantics or of a specification's reading, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.runner import run_trial
from repro.engine import TrialSpec, execute
from repro.sim.trace import canonical_trace_hash

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "golden_hashes.json").read_text())


def _label(entry) -> str:
    spec = entry["spec"]
    return (f"{spec['protocol']['kind']}-{spec['topology']}-n{spec['n']}"
            f"-loss{spec['loss']}-cap{spec['capacity']}")


def test_corpus_covers_the_protocols_and_topologies():
    kinds = {e["spec"]["protocol"]["kind"] for e in CORPUS}
    topologies = {e["spec"]["topology"] for e in CORPUS}
    assert kinds == {"pif", "idl", "me"}
    assert topologies == {"complete", "ring", "wan:2"}
    assert {e["spec"]["loss"] for e in CORPUS} == {0.0, 0.1}
    assert {e["spec"]["capacity"] for e in CORPUS} == {1, 2}


@pytest.mark.parametrize("entry", CORPUS, ids=_label)
def test_recorded_spec_reproduces_its_hash(entry):
    spec = TrialSpec.from_provenance(entry["spec"])
    assert spec.codable()
    # The codec round-trip is exact, so the record alone re-executes.
    assert spec.as_provenance() == entry["spec"]
    assert canonical_trace_hash(execute(spec).trace) == entry["hash"]


@pytest.mark.parametrize("entry", CORPUS, ids=_label)
def test_recorded_spec_reproduces_its_verdict_and_measurements(entry):
    trial = run_trial(TrialSpec.from_provenance(entry["spec"]))
    assert trial.ok is entry["ok"]
    assert trial.violations == entry["violations"]
    assert trial.measurements == entry["measurements"]
