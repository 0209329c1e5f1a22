"""Compare two ledger results files: ``compare.py A.json B.json``.

One row per end-to-end metric × workload: both medians with their
quartiles, the ratio B/A *with its base*, the bound ``BENCHMARK.json``
fixes for the metric, and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance as a share
  of the median, the wider side) exceeds the bound, so "no regression"
  cannot be told from noise — unless every run of B reads better than
  every run of A;
* ``better`` — B's median is better by more than A's own quartile
  distance (or every run of B beats every run of A);
* ``same`` — otherwise.

Counts and ``sim_digest`` of runs with the same workload, mode and seed
must agree exactly (``MISMATCH`` otherwise: a simulated statistic
moved).  Files measured on hosts with different ``cpu_count`` are not
compared.  Exit status is non-zero on any ``worse`` or ``MISMATCH``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    worsening = sign * (b_med - a_med) / a_med
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worsening > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        return "better" if all_better else "unresolved"
    if all_better or -worsening * a_med > (a_q3 - a_q1) > 0:
        return "better"
    return "same"


def exact_mismatches(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """Simulated statistics that differ between like runs of A and B."""
    def keyed(runs: list[dict]) -> dict[tuple, dict]:
        return {(r["workload"], r["mode"], r["seed"], r["scale"]): r
                for r in runs}

    problems = []
    b_by_key = keyed(runs_b)
    for key, run_a in keyed(runs_a).items():
        run_b = b_by_key.get(key)
        if run_b is None:
            continue
        for field in ("fixed_trials", "sim_digest", "counts"):
            if run_a["info"][field] != run_b["info"][field]:
                problems.append(
                    f"{'/'.join(map(str, key))}: {field} "
                    f"{run_a['info'][field]} != {run_b['info'][field]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="results file of the parent")
    parser.add_argument("b", type=Path, help="results file of the change")
    args = parser.parse_args(argv)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)

    cpus = {r["host"]["cpu_count"] for r in runs_a + runs_b}
    if len(cpus) != 1:
        print(f"compare: hosts differ in cpu_count {sorted(cpus)}: "
              f"timings are not comparable, no verdict", file=sys.stderr)
        return 2
    busy = sum(r["host_busy"] for r in runs_a + runs_b)
    if busy:
        print(f"note: {busy} run(s) were measured on a busy host "
              f"(1-min load above cpu_count)")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    header = (f"{'workload':<12} {'metric':<17} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B/A':>7} {'spread':>7} "
              f"{'bound':>6}  verdict")
    print(header)
    verdicts: list[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload and r["mode"] == "e2e"]
                for runs in (runs_a, runs_b)
            ]
            if not all(sides):
                continue
            result = verdict(*sides, metric["better"], metric["bound"])
            verdicts.append(result)
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = map(quartiles, sides)
            print(f"{workload:<12} {name:<17} "
                  f"{a_med:>12.6g} [{a_q1:>9.6g},{a_q3:>9.6g}] "
                  f"{b_med:>12.6g} [{b_q1:>9.6g},{b_q3:>9.6g}] "
                  f"{b_med / a_med:>7.3f} "
                  f"{max(map(spread, sides)):>7.3f} "
                  f"{metric['bound']:>6}  {result}"
                  f"  (base {a_med:.6g} {metric['unit']}, "
                  f"n={len(sides[0])}/{len(sides[1])})")
    mismatches = exact_mismatches(runs_a, runs_b)
    for problem in mismatches:
        print(f"MISMATCH {problem}")
    print(f"{len(verdicts)} rows: "
          + ", ".join(f"{verdicts.count(v)} {v}"
                      for v in ("better", "same", "worse", "unresolved"))
          + f"; {len(mismatches)} exact mismatch(es)")
    return 1 if "worse" in verdicts or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
