"""CI gate: prove the sharded engine equals the serial engine, per push.

Runs E3 (PIF) and E5 (ME) at n = 32 on the Complete, Clustered, and
WAN-weighted Clustered topologies with ``engine=serial`` and
``engine=sharded`` and fails on any divergence in the trace-derived
metrics (verdict, violation count, waves, CS count, message totals,
request latencies, final time, ...).  On top of the metric comparison it
re-executes two PIF cases — uniform Clustered and the WAN preset, whose
cross-shard lookahead runs 16-tick windows — and compares the raw traces
event for event and by canonical hash — the bit-identity proof obligation.

Usage::

    PYTHONPATH=src python benchmarks/check_shard_equivalence.py
"""

from __future__ import annotations

import sys

from equivalence import bit_identity, compare_metrics, finish, pif_probe, report

from repro.analysis.runner import run_mutex_trial, run_pif_trial
from repro.engine import ShardingOpts, TrialSpec

N = 32


def _case(name, trial, topology, loss, shards=None):
    return (name, trial, TrialSpec(n=N, topology=topology, seed=0, loss=loss),
            dict(engine="sharded", sharding=ShardingOpts(shards=shards)))


CASES = [
    _case("E3 pif  complete   n=32", run_pif_trial, None, 0.1, shards=4),
    _case("E3 pif  clustered  n=32", run_pif_trial, "clustered:4", 0.1),
    _case("E5 me   complete   n=32", run_mutex_trial, None, 0.0, shards=4),
    _case("E5 me   clustered  n=32", run_mutex_trial, "clustered:4", 0.0),
    _case("E3 pif  wan        n=32", run_pif_trial, "wan:4", 0.1),
    _case("E5 me   wan        n=32", run_mutex_trial, "wan:4", 0.0),
]


def check_bit_identity(topology: str) -> bool:
    same, runs, hashes = bit_identity(
        pif_probe(N, topology), {"sharded": dict(engine="sharded")})
    return report(
        same,
        f"bit-identity {topology} n=32 window={runs['sharded'].window} "
        f"({len(runs['serial'].trace)} trace events, "
        f"hash {hashes['serial'][:16]}.. vs {hashes['sharded'][:16]}..)")


def main() -> int:
    ok = compare_metrics(CASES, "sharded")
    ok &= check_bit_identity("clustered:4")
    ok &= check_bit_identity("wan:4")
    return finish("shard-equivalence", ok)


if __name__ == "__main__":
    sys.exit(main())
