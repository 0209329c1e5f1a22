"""CI gate: prove the async loopback engine equals the serial engine.

Runs E3 (PIF) and E5 (ME) on the Complete, Ring, Clustered and
WAN-weighted Clustered topologies at n <= 32 with ``engine=serial`` and
``engine=async --transport loopback`` and fails on any divergence in the
trace-derived metrics.  On top of the metric comparison it re-executes two
PIF cases — uniform Clustered and the WAN preset, where per-edge latency
draws must stay engine-independent — and compares the raw traces event for
event plus a canonical trace hash — the bit-identity proof obligation —
and asserts every online monitor agreed with the offline verdict.

Every case is one :class:`~repro.engine.TrialSpec` with the engine axis
replaced per run — the comparison goes through the same
:func:`repro.engine.execute` pipeline and backend registry the CLI uses.

``--tcp-smoke`` additionally runs one E3 trial at n=8 over real localhost
TCP sockets and requires completion with all online spec monitors
passing; ``--udp-smoke`` does the same over loopback UDP datagrams (the
transport registered purely through the registry — no engine/runner/CLI
edits); ``--tcp-only``/``--udp-only`` run just that smoke.  The socket
paths are wall-clock best-effort, so CI keeps them non-gating; the
loopback gate is the hard contract.

Usage::

    PYTHONPATH=src python benchmarks/check_async_equivalence.py \
        [--tcp-smoke | --tcp-only | --udp-smoke | --udp-only]
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from equivalence import bit_identity, compare_metrics, finish, pif_probe, report

from repro.engine import TransportOpts, TrialSpec, execute

_ASYNC = dict(engine="async")

CASES = [
    ("E3 pif  complete   n=16", "pif",
     TrialSpec(n=16, topology=None, seed=0, loss=0.1), _ASYNC),
    ("E3 pif  ring       n=16", "pif",
     TrialSpec(n=16, topology="ring", seed=0, loss=0.1), _ASYNC),
    ("E3 pif  clustered  n=16", "pif",
     TrialSpec(n=16, topology="clustered:4", seed=0, loss=0.1), _ASYNC),
    ("E5 me   complete   n=8 ", "me",
     TrialSpec(n=8, topology=None, seed=1, loss=0.0), _ASYNC),
    ("E5 me   ring       n=8 ", "me",
     TrialSpec(n=8, topology="ring", seed=1, loss=0.0), _ASYNC),
    ("E5 me   clustered  n=16", "me",
     TrialSpec(n=16, topology="clustered:4", seed=3, loss=0.1), _ASYNC),
    ("E3 pif  wan        n=32", "pif",
     TrialSpec(n=32, topology="wan:4", seed=0, loss=0.1), _ASYNC),
]


def _monitors_agree(loopback, _spec) -> bool:
    return loopback.provenance.get("monitors_ok", False) == loopback.ok


def check_bit_identity(topology: str, n: int) -> bool:
    same, runs, hashes = bit_identity(pif_probe(n, topology), {"async": _ASYNC})
    return report(
        same,
        f"bit-identity {topology} n={n} ({len(runs['serial'].trace)} trace "
        f"events, hash {hashes['serial'][:16]}.. vs {hashes['async'][:16]}..)")


def socket_smoke(transport: str) -> bool:
    """One E3 trial at n=8 over real sockets; every monitor must pass."""
    t0 = time.perf_counter()
    run = execute(replace(
        pif_probe(8, None), horizon=60_000, engine="async",
        transport=TransportOpts(transport=transport),
    ))
    wall = time.perf_counter() - t0
    ok = report(
        run.completed and run.monitors_ok,
        f"{transport} smoke E3 n=8: completed={run.completed} "
        f"wall={wall:.1f}s final_time={run.final_time} ticks "
        f"monitors={[r.summary() for r in run.monitor_reports]}",
        bad="FAILED")
    for monitor in run.monitor_reports:
        for violation in monitor.violations[:5]:
            print(f"     {monitor.name}: {violation}")
    return ok


def main() -> int:
    args = sys.argv[1:]
    only = "--tcp-only" in args or "--udp-only" in args
    ok = True
    if not only:
        ok = compare_metrics(CASES, "loopback", agrees=_monitors_agree)
        ok &= check_bit_identity("clustered:4", 16)
        ok &= check_bit_identity("wan:4", 32)
    if "--tcp-smoke" in args or "--tcp-only" in args:
        ok &= socket_smoke("tcp")
    if "--udp-smoke" in args or "--udp-only" in args:
        ok &= socket_smoke("udp")
    return finish("async-equivalence", ok)


if __name__ == "__main__":
    sys.exit(main())
