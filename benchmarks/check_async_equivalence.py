"""CI gate: prove the async loopback engine equals the serial engine.

Runs E3 (PIF) and E5 (ME) on the Complete, Ring, Clustered and
WAN-weighted Clustered topologies at n <= 32 with ``engine=serial`` and
``engine=async --transport loopback`` and fails on any divergence in the
trace-derived metrics.  On top of the metric comparison it re-executes two
PIF cases — uniform Clustered and the WAN preset, where per-edge latency
draws must stay engine-independent — and compares the raw traces event for
event plus a canonical trace hash — the bit-identity proof obligation.

Every case is one :class:`~repro.engine.TrialSpec` with the engine axis
replaced per run — the comparison goes through the same
:func:`repro.engine.execute` pipeline and backend registry the CLI uses.

``--tcp-smoke`` additionally runs one E3 trial at n=8 over real localhost
TCP sockets, judged by :func:`~repro.analysis.runner.run_trial` like any
other: it must complete and pass Specification 1; ``--udp-smoke`` does
the same over loopback UDP datagrams (the transport registered purely
through the registry — no engine/runner/CLI edits);
``--tcp-only``/``--udp-only`` run just that smoke.  The socket
paths are wall-clock best-effort, so CI keeps them non-gating; the
loopback gate is the hard contract.

Usage::

    PYTHONPATH=src python benchmarks/check_async_equivalence.py \
        [--tcp-smoke | --tcp-only | --udp-smoke | --udp-only]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from equivalence import bit_identity, compare_metrics, finish, pif_probe, report

from repro.analysis.runner import run_trial
from repro.engine import TransportOpts, TrialSpec
from repro.errors import HorizonExceeded

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


def check_bit_identity(topology: str, n: int) -> bool:
    same, runs, hashes = bit_identity(pif_probe(n, topology), {"async": _ASYNC})
    return report(
        same,
        f"bit-identity {topology} n={n} ({len(runs['serial'].trace)} trace "
        f"events, hash {hashes['serial'][:16]}.. vs {hashes['async'][:16]}..)")


def socket_smoke(transport: str) -> bool:
    """One E3 trial at n=8 over real sockets: it must complete and pass
    Specification 1."""
    t0 = time.perf_counter()
    try:
        trial = run_trial(replace(
            pif_probe(8, None), horizon=60_000, engine="async",
            transport=TransportOpts(transport=transport),
        ))
    except HorizonExceeded as exc:
        return report(False, f"{transport} smoke E3 n=8: {exc}", bad="FAILED")
    wall = time.perf_counter() - t0
    return report(
        trial.ok,
        f"{transport} smoke E3 n=8: ok={trial.ok} "
        f"violations={trial.violations} wall={wall:.1f}s "
        f"final_time={trial.measurements['final_time']} ticks",
        bad="FAILED")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Async loopback engine vs the serial engine.")
    for transport in ("tcp", "udp"):
        parser.add_argument(f"--{transport}-smoke", action="store_true",
                            help=f"also run the {transport} smoke")
        parser.add_argument(f"--{transport}-only", action="store_true",
                            help=f"run only the {transport} smoke")
    args = parser.parse_args()
    ok = True
    if not (args.tcp_only or args.udp_only):
        ok = compare_metrics(CASES, "loopback")
        ok &= check_bit_identity("clustered:4", 16)
        ok &= check_bit_identity("wan:4", 32)
    if args.tcp_smoke or args.tcp_only:
        ok &= socket_smoke("tcp")
    if args.udp_smoke or args.udp_only:
        ok &= socket_smoke("udp")
    return finish("async-equivalence", ok)


if __name__ == "__main__":
    sys.exit(main())
