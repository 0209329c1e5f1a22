"""The skeleton the two ``check_*_equivalence.py`` gates share.

* :func:`compare_metrics` — run every case through ``run_trial`` on the
  serial engine and again with the case's engine axes replaced, and
  require the same verdict, violation count and trace-derived
  measurements plus the gate's own provenance conditions;
* :func:`bit_identity` — execute one spec on the serial engine and once
  per named variant, and require the same events, canonical trace hash,
  stats, final time, completions, final request states and completion
  flag;
* :func:`spawn_guard` — both gates bound the worker interpreters their
  whole run launched.

All go through :func:`repro.engine.execute` and the backend registry,
exactly as the CLI does.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, NamedTuple

from repro.analysis.runner import run_trial
from repro.core.protocols import PROTOCOLS
from repro.engine import EngineRun, TrialSpec, execute
from repro.sim.trace import canonical_trace_hash


def report(ok: bool, text: str, *, bad: str = "DIVERGED") -> bool:
    """Print one verdict line (``OK  ...`` / ``DIVERGED ...``)."""
    print(("OK " if ok else bad) + " " + text)
    return ok


def finish(gate: str, ok: bool) -> int:
    """The gate's last line and its exit code."""
    print(f"{gate}:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def spawn_guard(spawned: int, hosts: int, crash_tokens: int = 0,
                recoveries: int = 0) -> bool:
    """The window-sync runtime leases warm worker interpreters
    (``repro.net.coordinator``): over a whole case table it may launch one
    per slot of the widest case, one per crash-token shard (a fault is a
    fresh interpreter's lifecycle) and one per recovery — a per-trial
    spawn creeping back in fails here by count."""
    bound = hosts + crash_tokens + recoveries
    return report(
        spawned <= bound,
        f"interpreters spawned over the whole case table: {spawned} "
        f"(bound {bound} = max hosts {hosts} + crash-token shards "
        f"{crash_tokens} + recoveries {recoveries})",
        bad="FAILED")


def compare_metrics(
    cases,
    label: str,
    *,
    agrees: Callable[[Any, TrialSpec], bool],
    tail: Callable[[Any, Any], str],
) -> bool:
    """Serial vs one other engine configuration, case by case.

    ``cases`` rows are ``(name, kind, spec, axes)``: the ``kind`` trial of
    ``spec`` is the serial reference and that of ``replace(spec, **axes)``
    the run under test (one request per process).  ``agrees(other, other_spec)``
    adds the gate's own provenance conditions; ``tail(serial, other)``
    is the end of the printed line.
    """
    ok = True
    for name, kind, spec, axes in cases:
        spec = PROTOCOLS[kind].describe(spec, requests_per_process=1)
        other_spec = replace(spec, **axes)
        t0 = time.perf_counter()
        serial = run_trial(spec)
        t1 = time.perf_counter()
        other = run_trial(other_spec)
        t2 = time.perf_counter()
        same = (
            serial.ok == other.ok
            and serial.violations == other.violations
            and serial.measurements == other.measurements
            and agrees(other, other_spec)
        )
        ok &= report(
            same,
            f"{name}  serial={t1 - t0:.1f}s {label}={t2 - t1:.1f}s "
            + tail(serial, other))
        if not same:
            for who, result in (("serial", serial), (label, other)):
                print(f"     {who}: ok={result.ok} "
                      f"violations={result.violations} "
                      f"{result.measurements} provenance={result.provenance}")
    return ok


class Identity(NamedTuple):
    #: Every variant matched the serial run (events, hash, stats, final
    #: time, completions, final request states, completion flag).
    same: bool
    #: ``"serial"`` plus one run per variant name.
    runs: dict[str, EngineRun]
    hashes: dict[str, str]


def bit_identity(spec: TrialSpec, variants: dict[str, dict[str, Any]]) -> Identity:
    """Execute ``spec`` (the serial reference) and once per variant (its
    axes replaced in ``spec``); compare every run with the serial one."""
    runs = {"serial": execute(spec)}
    for name, axes in variants.items():
        runs[name] = execute(replace(spec, **axes))

    def fingerprint(run: EngineRun):
        return (
            [(e.time, e.kind, e.process, e.data) for e in run.trace],
            canonical_trace_hash(run.trace),
            run.stats.as_dict(),
            run.final_time,
            run.completions,
            run.finals,
            run.completed,
        )

    prints = {name: fingerprint(run) for name, run in runs.items()}
    return Identity(
        same=all(p == prints["serial"] for p in prints.values()),
        runs=runs,
        hashes={name: p[1] for name, p in prints.items()},
    )


def pif_probe(n: int, topology: str | None, **axes: Any) -> TrialSpec:
    """The PIF probe every gate re-executes for its bit-identity check."""
    # Its own payload spelling, so the hashes the gates print stay
    # comparable with the ones earlier commits printed.
    return PROTOCOLS["pif"].describe(
        TrialSpec(n=n, topology=topology, seed=0, loss=0.1,
                  driver=dict(payload_fmt="m-{pid}-{k}"), **axes),
        requests_per_process=1)
