"""Absolute anchors: recorded specs must keep producing recorded traces.

``tests/data/golden_hashes.json`` holds ``{"spec": TrialSpec.as_provenance(),
"hash": canonical_trace_hash}`` records — PIF / IDL / ME × complete / ring /
wan:2 × loss 0 / 0.1 × capacity 1 / 2 at n ≤ 8 on the serial engine —
under a header naming the semantics epoch they were drawn in
(``repro.sim.determinism.SEMANTICS_EPOCH``).  A record replays with no
per-protocol code: ``run_trial(TrialSpec.from_provenance(entry["spec"]))``.
Each record also carries what the trial concluded from that trace —
``ok``, ``violations`` and the ``measurements`` block (waves,
``wave_p50/p95``, ``computations``, ``cs_count``, ``latency_p50``, ...) —
so a specification rewrite that changes a verdict or a by-product fails
here, not only one that changes a trace.  The equivalence gates compare
engines with each other at HEAD; this corpus is what catches a change
that moves all of them together.  It is re-recorded only by a semantics
epoch bump, with ``tests/data/regenerate.py`` (docs/architecture.md,
"Semantics epochs"), and the per-record diff goes into CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.runner import run_trial
from repro.engine import TrialSpec, execute
from repro.errors import SpecError
from repro.sim.determinism import SEMANTICS_EPOCH
from repro.sim.trace import canonical_trace_hash

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_hashes.json").read_text())
CORPUS = GOLDEN["records"]


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


def test_the_data_files_are_recorded_under_the_running_epoch():
    verdicts = json.loads((DATA / "spec_verdicts.json").read_text())
    assert GOLDEN["epoch"] == verdicts["epoch"] == SEMANTICS_EPOCH
    assert {e["spec"]["epoch"] for e in CORPUS} == {SEMANTICS_EPOCH}


def test_a_record_from_another_epoch_is_refused_by_name():
    other = SEMANTICS_EPOCH + 1
    record = {**CORPUS[0]["spec"], "epoch": other}
    with pytest.raises(
            SpecError,
            match=f"recorded under epoch {other}, running {SEMANTICS_EPOCH}",
    ) as err:
        TrialSpec.from_provenance(record)
    assert err.value.field == "epoch"


@pytest.mark.parametrize("entry", CORPUS, ids=_label)
def test_recorded_spec_reproduces_its_hash(entry):
    spec = TrialSpec.from_provenance(entry["spec"])
    # The codec round-trip is exact, so the record alone re-executes.
    assert spec.as_provenance() == entry["spec"]
    assert canonical_trace_hash(execute(spec).trace) == entry["hash"]


@pytest.mark.parametrize("entry", CORPUS, ids=_label)
def test_recorded_spec_reproduces_its_verdict_and_measurements(entry):
    trial = run_trial(TrialSpec.from_provenance(entry["spec"]))
    assert trial.ok is entry["ok"]
    assert trial.violations == entry["violations"]
    assert trial.measurements == entry["measurements"]
