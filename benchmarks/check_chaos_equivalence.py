"""CI gate: fault-injected cluster runs still equal the serial engine.

The chaos contract (docs/robustness.md) has two halves, and this gate
checks both:

* **Recovery determinism** — a cluster trial whose fault plan kills a
  worker interpreter mid-trial (plus link cuts, dropped/corrupted SHIP
  frames and stalls) must stop the survivors, respawn the dead shard,
  run the trial again and finish with trace-derived metrics *identical*
  to the serial engine.  Runs E3 (PIF) and E5 (ME)
  on the Complete, Ring and WAN-weighted Clustered topologies at
  n <= 16 with a crash-carrying fault plan per case.
* **Fault-free neutrality** — arming the chaos machinery with an empty
  fault plan (tolerant pumps, dedup sets, ship logs) must leave the
  canonical trace hash of a probe run unchanged on the cluster engine,
  and a *crash-recovered* probe must hash identically to serial too —
  the bit-identity proof obligation extended through a re-run.

The gate also counts the worker interpreters it launched: the engine
leases warm workers and a recovery respawns only the dead shard, so the
whole table may boot no more than ``max hosts + crash-token shards +
recoveries``.

A non-gating chaos timeline (``--timeline-out``, default
``BENCH_chaos_timeline.json``) exports the recovery spans — the "chaos"
lane records the stop-and-respawn interval before the re-run — for
artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/check_chaos_equivalence.py \
        [--timeline-out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from equivalence import (
    bit_identity,
    compare_metrics,
    finish,
    pif_probe,
    report,
    spawn_guard,
)

from repro.analysis.runner import run_trial
from repro.chaos import FaultPlan
from repro.engine import ClusterOpts, ObsOpts, TrialSpec
from repro.net.coordinator import interpreters_spawned
from repro.obs.spans import validate_chrome_trace


#: (hosts, plan) of every chaotic run this gate makes — what
#: :func:`check_spawn_count` sizes its bound from.
_PLANS: list[tuple[int, FaultPlan]] = []


def _chaotic(hosts: int, plan: str, **more) -> dict:
    _PLANS.append((hosts, FaultPlan.parse(plan)))
    return dict(engine="cluster", cluster=ClusterOpts(hosts=hosts),
                chaos=plan, **more)


#: (label, kind, serial spec, cluster + fault-plan axes) — every case
#: crashes one worker mid-trial; some add the cheaper fault families on
#: top (cuts, ship drops, stalls) to exercise NAK/resend and cut-heal
#: in the aborted attempt and again in the re-run.
CASES = [
    ("E3 pif  complete n=8  hosts=2 crash@b3+drop", "pif",
     TrialSpec(n=8, topology=None, seed=0, loss=0.1),
     _chaotic(2, "crash worker 1 at barrier 3\n"
                 "drop ship from 1 round 2..9 count 2")),
    ("E3 pif  ring     n=12 hosts=3 crash@r2+cut", "pif",
     TrialSpec(n=12, topology="ring", seed=0, loss=0.1),
     _chaotic(3, "crash worker 2 at round 2\ncut link 0->1 for rounds 2..3")),
    ("E3 pif  wan      n=16 hosts=4 crash@b2", "pif",
     TrialSpec(n=16, topology="wan:4", seed=0, loss=0.1),
     _chaotic(4, "crash worker 3 at barrier 2")),
    ("E5 me   complete n=6  hosts=2 crash@b4+stall", "me",
     TrialSpec(n=6, topology=None, seed=1, loss=0.0),
     _chaotic(2, "crash worker 0 at barrier 4\n"
                 "stall worker 1 at round 2 for 0.2s")),
    ("E5 me   ring     n=8  hosts=2 crash@r3+corrupt", "me",
     TrialSpec(n=8, topology="ring", seed=1, loss=0.0),
     _chaotic(2, "crash worker 1 at round 3\ncorrupt ship from 1 count 1")),
    ("E5 me   wan      n=8  hosts=4 crash@b3", "me",
     TrialSpec(n=8, topology="wan:4", seed=3, loss=0.0),
     _chaotic(4, "crash worker 2 at barrier 3")),
    # The worker that dies is the one owed a resend: its NAK for the
    # survivor's dropped ships may never be answered before the crash.
    ("E3 pif  complete n=6  hosts=2 crash@r1+drop(survivor)", "pif",
     TrialSpec(n=6, topology=None, seed=0, loss=0.0),
     _chaotic(2, "crash worker 0 at round 1\n"
                 "drop ship from 4 count 2")),
    # A late crash: recovery after several grant extensions, on a ring of
    # four shards where the survivor not adjacent to the dead shard runs
    # ahead of the two that are.
    ("E3 pif  wan      n=16 hosts=4 crash@r40", "pif",
     TrialSpec(n=16, topology="wan:4", seed=0, loss=0.1),
     _chaotic(4, "crash worker 2 at round 40")),
]


def _recovered_once(chaotic, _spec) -> bool:
    counts = chaotic.provenance.get("fault_counts") or {}
    return (
        chaotic.provenance.get("recoveries") == 1
        and counts.get("worker.crashed") == 1
        and counts.get("fault.injected.crash") == 1
    )


def _rerun_and_faults(_serial, chaotic) -> str:
    return (f"re-ran {chaotic.provenance.get('replayed_rounds')} rounds "
            f"per shard, faults={chaotic.provenance.get('fault_counts') or {}}")


def check_hash_identity(n: int, hosts: int, timeline_out: str) -> bool:
    """Canonical-hash probe: serial vs armed-but-empty plan vs
    crash-recovered, all on one case; the recovered run also exports the
    chaos timeline."""
    same, runs, hashes = bit_identity(pif_probe(n, None), {
        "armed": _chaotic(hosts, ""),  # machinery armed, nothing injected
        "recovered": _chaotic(hosts, "crash worker 1 at barrier 3",
                              obs=ObsOpts(timeline=timeline_out)),
    })
    recovered = runs["recovered"]
    ok = report(
        same and runs["armed"].fault_counts == {}
        and recovered.recoveries == 1,
        f"hash-identity complete n={n} hosts={hosts} "
        f"(serial/armed/recovered hashes equal={same}, "
        f"recovered re-ran {recovered.replayed_rounds} rounds, "
        f"hash {hashes['serial'][:16]}..)")

    doc = json.loads(Path(timeline_out).read_text())
    problems = validate_chrome_trace(doc)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    recovery = [e for e in spans if e["name"] == "recovery"]
    if problems:
        print(f"     timeline invalid: {problems[:5]}")
    return ok & report(
        not problems and len(recovery) == 1,
        f"chaos timeline: {len(spans)} spans, "
        f"{len(recovery)} recovery span(s) -> {timeline_out}",
        bad="FAILED")


def check_detection_latency() -> bool:
    """A rendezvous-phase death must surface WorkerCrashed in seconds —
    the anti-timeout guarantee."""
    from repro.errors import WorkerCrashed

    t0 = time.perf_counter()
    try:
        run_trial(pif_probe(
            6, None, **_chaotic(2, "crash worker 0 at rendezvous")))
    except WorkerCrashed as crash:
        wall = time.perf_counter() - t0
        return report(
            wall < 5.0 and crash.shard == 0 and bool(crash.stderr_tail),
            f"detection latency: WorkerCrashed(shard 0) in {wall:.1f}s",
            bad="FAILED")
    print("FAILED detection latency: rendezvous crash did not raise")
    return False


def check_spawn_count() -> bool:
    """Warm workers are leased, not respawned: only the widest case's
    slots, each crash-token shard and each recovery may boot an
    interpreter (a rendezvous crash is diagnosed, not recovered)."""
    tokens = [
        token for hosts, plan in _PLANS
        for token in map(plan.crash_token, range(hosts)) if token
    ]
    return spawn_guard(
        interpreters_spawned(),
        hosts=max(hosts for hosts, _plan in _PLANS),
        crash_tokens=len(tokens),
        recoveries=sum(token != "rendezvous" for token in tokens))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fault-injected cluster runs vs the serial engine.")
    parser.add_argument("--timeline-out", default="BENCH_chaos_timeline.json",
                        metavar="PATH", help="where the recovery timeline lands")
    timeline_out = parser.parse_args().timeline_out
    ok = compare_metrics(CASES, "chaos", agrees=_recovered_once,
                         tail=_rerun_and_faults)
    ok &= check_hash_identity(8, 2, timeline_out)
    ok &= check_detection_latency()
    ok &= check_spawn_count()
    return finish("chaos-equivalence", ok)


if __name__ == "__main__":
    sys.exit(main())
