"""CI gate: every claims trial is bit-identical on every engine.

The claims table (:data:`repro.analysis.claims.CLAIMS`) is the
reproduction's evidence, and this gate replays that evidence on the
other engines.  It runs in two passes:

* **record** — every claim is observed once on the serial engine with
  :func:`repro.analysis.runner.execute` wrapped.  ``run_trial`` calls that
  module global, so the wrapper collects each spec a claim executes,
  grouped by row.  A row that never reaches ``run_trial`` (it builds its
  simulators by hand) is reported ``serial-only``.  If no trial is
  recorded at all, the seam was bypassed and the gate fails.
* **replay** — each recorded spec is executed on the serial engine and
  again on ``async`` (loopback), ``sharded`` and ``cluster``, and
  :func:`equivalence.bit_identity` requires the same events, canonical
  trace hash, stats, final time, completions, final request states and
  completion flag.  The i-th spec runs on ``min(n, 2 + i % 3)`` workers,
  so 2-, 3- and 4-way partitions all occur.  A divergent trial prints its
  row, index, worker count, per-engine hashes and provenance record, which
  ``TrialSpec.from_provenance`` replays (E11's pre-built topologies are
  recorded by display name only, so those trials replay through the
  gate's own record pass).

What the claims cannot express stays a probe of its own: the cluster
engine with its instruments on (metrics-on hash identity, the CONTROL,
SHIP and round bounds, and the exported timeline, written to
``BENCH_cluster_timeline.json`` for upload), and the count of worker
interpreters launched over the whole gate.

Usage::

    PYTHONPATH=src python benchmarks/check_engine_equivalence.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from equivalence import bit_identity, finish, pif_probe, report, spawn_guard

import repro.analysis.runner as runner
from repro.analysis.claims import CLAIMS, observe
from repro.engine import (
    DRAIN_TICKS,
    ClusterOpts,
    ObsOpts,
    ShardingOpts,
    TrialSpec,
)
from repro.net.coordinator import interpreters_spawned
from repro.net.grant import report_every
from repro.obs.spans import validate_chrome_trace

#: Where the obs probe's validated timeline lands (git-ignored).
TIMELINE = "BENCH_cluster_timeline.json"


def _cluster(hosts: int) -> dict:
    return dict(engine="cluster", cluster=ClusterOpts(hosts=hosts))


#: The engines every claims trial is replayed on, beside serial.
ENGINES = ("async", "sharded", "cluster")


def _variants(workers: int) -> dict[str, dict]:
    return {
        "async": dict(engine="async"),
        "sharded": dict(engine="sharded", sharding=ShardingOpts(shards=workers)),
        "cluster": _cluster(workers),
    }


def record() -> dict[str, list[TrialSpec]]:
    """Observe every claim with ``runner.execute`` wrapped: row id → the
    specs its check executed, in order."""
    recorded: dict[str, list[TrialSpec]] = {}
    real = runner.execute
    for claim in CLAIMS:
        specs = recorded[claim.id] = []

        def recording(spec, _specs=specs):
            _specs.append(spec)
            return real(spec)

        runner.execute = recording
        try:
            observe(claim)
        finally:
            runner.execute = real
    return recorded


def replay(recorded: dict[str, list[TrialSpec]]) -> bool:
    """Each recorded spec on serial and on every other engine; one line
    per row."""
    ok = True
    index = 0
    for row, specs in recorded.items():
        if not specs:
            print(f"    {row}: serial-only (no run_trial)")
            continue
        t0 = time.perf_counter()
        diverged: Counter[str] = Counter()
        for spec in specs:
            workers = min(spec.n, 2 + index % 3)
            index += 1
            same, _runs, hashes = bit_identity(spec, _variants(workers))
            if not same:
                # Equal hashes with differing stats, finals or completions
                # still count.
                diverged.update(
                    [e for e in ENGINES if hashes[e] != hashes["serial"]]
                    or ["other fields"])
                print(f"     {row} trial {index - 1} ({workers} workers) "
                      f"hashes {hashes}")
                print(f"     provenance {json.dumps(spec.as_provenance())}")
        ok &= report(
            not diverged,
            f"{row}: {len(specs)} trials, "
            + (f"equal on {', '.join(ENGINES)}" if not diverged else
               "diverged: " + ", ".join(f"{e} {c}" for e, c in diverged.items()))
            + f" ({time.perf_counter() - t0:.1f}s)")
    return ok


def check_obs_identity(
    topology: str | None, n: int, hosts: int, timeline_out: str
) -> bool:
    """Metrics-on bit-identity probe + timeline validation.

    Runs the PIF probe twice on the cluster engine — plain, then with
    metrics and timeline enabled — plus the serial reference, and
    requires all three runs to be identical: turning the instruments on
    must not perturb a deterministic run.  The exported timeline must
    validate as Chrome trace-event JSON and cover the coordinator plus
    one lane per worker, each with barrier-wait spans.  The trial's
    CONTROL frames (both directions, every process) must stay within
    what granted rounds need: per worker a fixed handful (spec, ready,
    result, stop, the park reports around start and finish) plus one
    report every K rounds, and per report at most one grant to each
    worker — two orders of magnitude under a per-round exchange.  Its
    SHIP frames must stay within one per directed peer link per round
    (the BARRIER frames count exactly those), under the cross-shard
    messages they carried.  Its rounds must end within three of the
    round whose target reached the completion tick (the compute spans
    name each round's target): the drain's quiet ticks are jumped.
    """
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = Path(tmp) / "metrics.json"
        obs = ObsOpts(metrics=str(metrics_path), timeline=timeline_out)
        same, runs, _hashes = bit_identity(pif_probe(n, topology), {
            "plain": _cluster(hosts),
            "observed": dict(_cluster(hosts), obs=obs),
        })
        counters = json.loads(metrics_path.read_text())["counters"]
    observed = runs["observed"]
    control = counters["wire.frames_out[control]"]
    reports = hosts * (
        observed.barriers // report_every(observed.window, DRAIN_TICKS) + 5)
    control_bound = 6 * hosts + reports * (1 + hosts)
    frames_ok = report(
        control <= control_bound < 2 * hosts * observed.barriers,
        f"control frames {topology or 'complete'} n={n} hosts={hosts}: "
        f"{control} for {observed.barriers} rounds (bound {control_bound}; "
        f"a per-round exchange costs {2 * hosts * observed.barriers})",
        bad="FAILED")
    ship_frames = counters["wire.frames_out[ship]"]
    ship_bound = counters["wire.frames_out[barrier]"]
    ships = counters["ship.messages_out"]
    frames_ok &= report(
        ship_frames <= ship_bound and ship_frames < ships,
        f"ship frames {topology or 'complete'} n={n} hosts={hosts}: "
        f"{ship_frames} for {observed.barriers} rounds (bound {ship_bound}: "
        f"rounds x links; a per-message wire costs {ships})",
        bad="FAILED")

    doc = json.loads(Path(timeline_out).read_text())
    problems = validate_chrome_trace(doc)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    # The drain is quiet but for a few ticks after completion, and a
    # round whose barrier shows quiet ticks ahead jumps past them.  This
    # probe's drain holds two event ticks (a last delivery, then the
    # activation it wakes) and the jump to the final target: three
    # rounds after the one that reached the completion tick.
    done_at = observed.final_time - DRAIN_TICKS
    done_round = min(
        e["args"]["round"] for e in spans
        if e["name"] == "compute" and e["args"]["target"] >= done_at)
    frames_ok &= report(
        observed.completed and observed.barriers <= done_round + 3,
        f"rounds {topology or 'complete'} n={n} hosts={hosts}: "
        f"{observed.barriers}, completion reached in round {done_round} "
        f"(bound {done_round + 3}; a stepped drain costs "
        f"{done_round + DRAIN_TICKS // observed.window})",
        bad="FAILED")
    lanes = {e["pid"] for e in spans}
    barrier_lanes = {e["pid"] for e in spans if e["name"] == "barrier_wait"}
    if problems:
        print(f"     timeline invalid: {problems[:5]}")
    # Lane 0 is the coordinator; every worker shard k gets lane k+1 and
    # must have recorded barrier waits (every round barriers).
    timeline_ok = (
        not problems
        and lanes == set(range(hosts + 1))
        and barrier_lanes == set(range(1, hosts + 1))
    )
    return frames_ok & report(
        same and timeline_ok,
        f"obs-identity {topology or 'complete'} n={n} hosts={hosts} "
        f"(hashes equal={same}, timeline {len(spans)} spans over lanes "
        f"{sorted(lanes)}, barrier lanes {sorted(barrier_lanes)}) "
        f"-> {timeline_out}")


def main() -> int:
    argparse.ArgumentParser(
        description="Every claims trial on async, sharded and cluster vs "
                    "serial.").parse_args()
    t0 = time.perf_counter()
    recorded = record()
    trials = sum(map(len, recorded.values()))
    print(f"recorded {trials} trials from {len(recorded)} claims rows "
          f"in {time.perf_counter() - t0:.1f}s")
    if not trials:
        print("FAILED no claims trial went through "
              "repro.analysis.runner.execute: the recording seam is bypassed")
        return finish("engine-equivalence", False)
    ok = replay(recorded)
    ok &= check_obs_identity(None, 8, 2, TIMELINE)
    # Worker counts cycle through 2-4 and every trial leases from one
    # pool: four interpreters fill it.
    ok &= spawn_guard(interpreters_spawned(), hosts=4)
    print(f"wall {time.perf_counter() - t0:.1f}s")
    return finish("engine-equivalence", ok)


if __name__ == "__main__":
    sys.exit(main())
