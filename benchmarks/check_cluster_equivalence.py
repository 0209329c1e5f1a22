"""CI gate: prove the window-sync runtime equals the serial engine —
under both of its names.

Runs E3 (PIF) and E5 (ME) with ``engine=serial`` and on 2-4 localhost
worker interpreters (real OS processes, real sockets,
BARRIER-synchronized windows) and fails on any divergence in the
trace-derived metrics: through ``engine=cluster`` on the Complete, Ring
and WAN-weighted Clustered topologies at n <= 16, and through
``engine=sharded`` on Complete, Clustered and WAN at n = 32 (the WAN
rows run 16-tick windows).  On top of the metric comparison it
re-executes two PIF probe cases per name and compares the raw traces
event for event plus the canonical trace hash — the window-sync
runtime's bit-identity proof obligation — and holds each name to its declared
surface: ``cluster`` reports its hosts, ``sharded`` does not.  ``--engine
cluster`` / ``--engine sharded`` keeps one name's rows (the CI jobs
``cluster-equivalence`` and ``shard-equivalence``).

The probe also re-runs the first bit-identity case with the
:mod:`repro.obs` instruments enabled (``--metrics``/``--timeline``) and
asserts (a) the canonical hash is *unchanged* by observation — the
metrics-on bit-identity claim of docs/observability.md — and (b) the
exported timeline is structurally valid Chrome trace-event JSON covering
the coordinator plus every worker lane with barrier-wait spans, and (c)
the CONTROL frames of the whole trial number O(rounds / K), not
O(rounds) — rounds are granted (:mod:`repro.net.grant`), so a per-round
coordinator exchange creeping back in fails here by count — and (d) the
rounds end within three of the round that reached the completion tick:
the quiet drain is jumped, so a drain stepped tick by tick fails here by
count.  Last, the
worker interpreters launched over the whole run are counted: both names
lease warm workers from one pool, so every case of the merged table
together may boot no more than the widest case has workers (4).  The
timeline lands at ``--timeline-out`` (default
``BENCH_cluster_timeline.json``) so CI can upload it as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/check_cluster_equivalence.py \
        [--engine cluster|sharded] [--timeline-out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from equivalence import (
    bit_identity,
    compare_metrics,
    finish,
    pif_probe,
    report,
    spawn_guard,
)

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


def _cluster(hosts: int) -> dict:
    return dict(engine="cluster", cluster=ClusterOpts(hosts=hosts))


def _sharded(shards: int | None = None) -> dict:
    return dict(engine="sharded", sharding=ShardingOpts(shards=shards))


def _n32(topology: str | None, loss: float) -> TrialSpec:
    return TrialSpec(n=32, topology=topology, seed=0, loss=loss)


#: (label, kind, serial spec, engine axes) — every topology family the
#: partition layer distinguishes (complete: all-pairs cut; ring: two
#: neighbour arcs per shard; clustered: one shard per arbitration
#: cluster; wan:4: weighted cross-cluster edges that widen the sync
#: window), each small enough for a laptop or CI runner.
CASES = [
    ("E3 pif  complete n=8  hosts=2", "pif",
     TrialSpec(n=8, topology=None, seed=0, loss=0.1), _cluster(2)),
    ("E3 pif  ring     n=12 hosts=3", "pif",
     TrialSpec(n=12, topology="ring", seed=0, loss=0.1), _cluster(3)),
    ("E3 pif  wan      n=16 hosts=4", "pif",
     TrialSpec(n=16, topology="wan:4", seed=0, loss=0.1), _cluster(4)),
    ("E5 me   complete n=6  hosts=2", "me",
     TrialSpec(n=6, topology=None, seed=1, loss=0.0), _cluster(2)),
    ("E5 me   ring     n=8  hosts=2", "me",
     TrialSpec(n=8, topology="ring", seed=1, loss=0.0), _cluster(2)),
    ("E5 me   wan      n=8  hosts=4", "me",
     TrialSpec(n=8, topology="wan:4", seed=3, loss=0.0), _cluster(4)),
    ("E3 pif  complete   n=32 shards=4", "pif",
     _n32(None, 0.1), _sharded(4)),
    ("E3 pif  clustered  n=32", "pif",
     _n32("clustered:4", 0.1), _sharded()),
    ("E5 me   complete   n=32 shards=4", "me",
     _n32(None, 0.0), _sharded(4)),
    ("E5 me   clustered  n=32", "me",
     _n32("clustered:4", 0.0), _sharded()),
    ("E3 pif  wan        n=32", "pif",
     _n32("wan:4", 0.1), _sharded()),
    ("E5 me   wan        n=32", "me",
     _n32("wan:4", 0.0), _sharded()),
]

#: (topology, n, engine axes) of the bit-identity probes.
PROBES = [
    (None, 8, _cluster(2)),
    ("wan:4", 16, _cluster(4)),
    ("clustered:4", 32, _sharded()),
    ("wan:4", 32, _sharded()),
]

#: ``engine=sharded`` keeps the provenance it always had: no cluster
#: section.
_SHARDED_PROVENANCE = {
    "engine", "transport", "wall_clock_s", "window", "barriers",
    "sync_wall_s",
}


def _surface_agrees(other, spec: TrialSpec) -> bool:
    """Each name reports exactly what it declares."""
    if spec.engine == "sharded":
        return set(other.provenance) == _SHARDED_PROVENANCE
    return other.provenance.get("hosts") == spec.cluster.hosts


def _barriers_and_metrics(serial, cluster) -> str:
    return (f"barriers={cluster.provenance.get('barriers')} "
            f"metrics={serial.measurements}")


def check_bit_identity(topology: str | None, n: int, axes: dict) -> bool:
    """A probe case: the merged trace must equal the serial trace event
    for event, and hash identically under the canonical trace hash."""
    engine = axes["engine"]
    same, runs, hashes = bit_identity(pif_probe(n, topology), {engine: axes})
    return report(
        same,
        f"bit-identity {engine} {topology or 'complete'} n={n} "
        f"window={runs[engine].window} "
        f"({len(runs['serial'].trace)} trace events, "
        f"hash {hashes['serial'][:16]}.. vs {hashes[engine][:16]}..)")


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
    parser = argparse.ArgumentParser(
        description="Window-sync runtime vs the serial engine.")
    parser.add_argument("--engine", choices=("cluster", "sharded"),
                        help="keep one name's rows (default: both)")
    parser.add_argument("--timeline-out", default="BENCH_cluster_timeline.json",
                        metavar="PATH", help="where the obs probe's timeline lands")
    args = parser.parse_args()
    engines = {args.engine} if args.engine else {"cluster", "sharded"}
    ok = True
    for engine in sorted(engines):
        ok &= compare_metrics(
            [case for case in CASES if case[3]["engine"] == engine],
            engine, agrees=_surface_agrees, tail=_barriers_and_metrics)
    for topology, n, axes in PROBES:
        if axes["engine"] in engines:
            ok &= check_bit_identity(topology, n, axes)
    if "cluster" in engines:
        ok &= check_obs_identity(None, 8, 2, args.timeline_out)
    # Every case of either name leases from one pool, and the widest
    # case of each has four workers: four interpreters fill it.
    ok &= spawn_guard(interpreters_spawned(), hosts=4)
    return finish(
        "shard-equivalence" if args.engine == "sharded" else "cluster-equivalence",
        ok)


if __name__ == "__main__":
    sys.exit(main())
