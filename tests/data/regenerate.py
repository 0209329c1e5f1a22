"""Re-record the data files under the running semantics epoch.

``golden_hashes.json`` and the ``simulated`` part of
``spec_verdicts.json`` hold what the trials of one semantics epoch drew:
their header's ``epoch``.  When ``repro.sim.determinism.SEMANTICS_EPOCH``
moves, this script re-runs every record of a file whose header names
another epoch, prints per record what moved — every ``ok`` <-> violated
flip marked ``FLIP`` — and rewrites the file.  A file whose header
already names the running epoch is left alone, so the script is a no-op
between bumps.

The ``crafted`` part of ``spec_verdicts.json`` is copied as it stands:
crafted rows draw from no stream, and ``tests/test_spec.py`` states its
``DELIBERATE`` drifts against those recorded counts — re-recording them
would absorb the drifts silently.

    PYTHONPATH=src python tests/data/regenerate.py
"""

from __future__ import annotations

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Any

DATA = Path(__file__).resolve().parent
GOLDEN = DATA / "golden_hashes.json"
VERDICTS = DATA / "spec_verdicts.json"
sys.path.insert(0, str(DATA.parent))  # spec_corpus

import spec_corpus  # noqa: E402

from repro.analysis.runner import run_trial  # noqa: E402
from repro.engine import TrialSpec, execute  # noqa: E402
from repro.sim.determinism import SEMANTICS_EPOCH  # noqa: E402
from repro.sim.trace import canonical_trace_hash  # noqa: E402


def _write(path: Path, doc: dict[str, Any]) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _moved(old: dict[str, Any], new: dict[str, Any]) -> str:
    return "; ".join(
        f"{key} {old.get(key)} -> {new.get(key)}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key))


def _report(name: str, old: dict, new: dict, old_ok: bool, new_ok: bool) -> int:
    """Print one record's diff; returns 1 for an ok <-> violated flip."""
    moved = _moved(old, new)
    flip = old_ok != new_ok
    if moved:
        mark = (f"FLIP {'ok' if old_ok else 'violated'} -> "
                f"{'ok' if new_ok else 'violated'}: " if flip else "")
        print(f"  {name}: {mark}{moved}")
    return int(flip)


def _golden_label(spec: dict[str, Any]) -> str:
    return (f"{spec['protocol']['kind']}-{spec['topology']}-n{spec['n']}"
            f"-loss{spec['loss']}-cap{spec['capacity']}-seed{spec['seed']}")


def _golden_record(recorded: dict[str, Any]) -> dict[str, Any]:
    spec = TrialSpec.from_provenance(
        {**recorded, "epoch": SEMANTICS_EPOCH})
    trial = run_trial(spec)
    return {
        "hash": canonical_trace_hash(execute(spec).trace),
        "measurements": trial.measurements,
        "ok": trial.ok,
        "spec": spec.as_provenance(),
        "violations": trial.violations,
    }


def _golden_flat(entry: dict[str, Any]) -> dict[str, Any]:
    return {"hash": entry["hash"], "ok": entry["ok"],
            "violations": entry["violations"], **entry["measurements"]}


def regenerate_golden() -> None:
    doc = json.loads(GOLDEN.read_text())
    if doc["epoch"] == SEMANTICS_EPOCH:
        print(f"{GOLDEN.name}: recorded under epoch {SEMANTICS_EPOCH}, "
              f"nothing to do")
        return
    print(f"{GOLDEN.name}: epoch {doc['epoch']} -> {SEMANTICS_EPOCH}")
    records, flips = [], 0
    for old in doc["records"]:
        new = _golden_record(old["spec"])
        flips += _report(_golden_label(old["spec"]), _golden_flat(old),
                         _golden_flat(new), old["ok"], new["ok"])
        records.append(new)
    moved = sum(old["hash"] != new["hash"]
                for old, new in zip(doc["records"], records))
    print(f"  {moved} of {len(records)} hashes moved, {flips} flips")
    _write(GOLDEN, {"epoch": SEMANTICS_EPOCH, "records": records})


def _verdict_flat(entry: dict[str, Any]) -> dict[str, Any]:
    return {"rows": entry["rows"], **entry["info"],
            **{f"violations.{prop}": entry["violations"].get(prop, 0)
               for prop in spec_corpus.PROPERTIES}}


def regenerate_verdicts() -> None:
    doc = json.loads(VERDICTS.read_text())
    if doc["epoch"] == SEMANTICS_EPOCH:
        print(f"{VERDICTS.name}: recorded under epoch {SEMANTICS_EPOCH}, "
              f"nothing to do")
        return
    print(f"{VERDICTS.name}: epoch {doc['epoch']} -> {SEMANTICS_EPOCH} "
          f"(simulated part; crafted kept)")
    simulated, flips = {}, 0
    with redirect_stdout(StringIO()):  # the fault-injection example's table
        calls = spec_corpus.simulated()
    for name, call in calls:
        verdict = spec_corpus.checker(call.spec)(
            call.trace, *call.args, **call.kwargs)
        new = simulated[name] = {"spec": call.spec, "rows": len(call.trace),
                                 **spec_corpus.record(verdict)}
        old = doc["simulated"].get(name)
        if old is None:
            print(f"  {name}: new record")
            continue
        flips += _report(name, _verdict_flat(old), _verdict_flat(new),
                         not old["violations"], not new["violations"])
    for name in doc["simulated"].keys() - simulated.keys():
        print(f"  {name}: gone")

    def violating(records: dict) -> int:
        return sum(bool(entry["violations"]) for entry in records.values())

    print(f"  {flips} flips; violating records "
          f"{violating(doc['simulated'])} -> {violating(simulated)} "
          f"of {len(simulated)}")
    _write(VERDICTS, {"crafted": doc["crafted"], "epoch": SEMANTICS_EPOCH,
                      "simulated": simulated})


if __name__ == "__main__":
    regenerate_golden()
    regenerate_verdicts()
