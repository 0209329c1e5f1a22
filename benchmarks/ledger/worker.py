"""The workload subprocess: runs trials, reports one JSON line per event.

Launched by ``run.py`` in its own process group, never by hand.  It
holds no policy: it runs what it is told and reports raw observations
(walls, verdicts, measurements, counters, spans); ``run.py`` enforces
the deadlines and turns observations into metrics.  Every line it means
for the runner starts with :data:`MARK`, so anything the program itself
prints is ignored.

Modes:

* ``setup`` — import the engine and the runner (registry bootstrap),
  generate the workload's specs, ``prepare`` the first; the runner times
  the whole interpreter launch.
* ``e2e`` — warm-up trial, then timed untraced trials for ``--seconds``
  (and at least the workload's ``min_trials``), each followed by its
  host-speed calibration slices (see ``calibration.py``), peak RSS, then
  — on the distributed workloads — the serial-hash identity check.
* ``traced`` — warm-up, then untraced/traced trial pairs on the same
  seeds, then every per-layer probe, then the Chrome-trace file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.engine import ClusterOpts, ObsOpts, ShardingOpts, resolve  # noqa: E402
from repro.sim.trace import canonical_trace_hash  # noqa: E402

from calibration import SHARE, calibrate  # noqa: E402
from tracing import SpanTracer, harvest_obs, patched_trial_path  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MARK = "@ledger "


def emit(event: str, **fields: Any) -> None:
    print(MARK + json.dumps({"event": event, **fields}), flush=True)


def observed(result) -> dict[str, Any]:
    """What one finished trial reports about itself."""
    prov = result.provenance
    return {
        "ok": bool(result.ok),
        "violations": result.violations,
        "monitors_ok": prov.get("monitors_ok", True),
        "measurements": result.measurements,
        "provenance": {
            key: prov[key]
            for key in ("barriers", "window", "sync_wall_s", "worker_wall_s",
                        "registry_round_trips")
            if key in prov
        },
    }


def timed_trial(workload: Workload, spec) -> dict[str, Any]:
    """Run one trial; a raised error is an observation, not a crash."""
    t0 = time.perf_counter()
    try:
        result = workload.run_trial(spec)
    except Exception as exc:  # noqa: BLE001 - boundary: report and go on
        return {"wall_s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"wall_s": time.perf_counter() - t0, **observed(result)}


class _StopAfterPrepare(Exception):
    """Raised in place of ``backend.run`` by the set-up measurement."""


def run_setup(workload: Workload, args) -> None:
    first = next(workload.specs(args.seed, args.scale))
    backend = resolve(first.engine)

    # prepare() needs the experiment half of the spec (build, protocol,
    # driver), which only the trial wrappers know: let the wrapper run
    # the pipeline, and stop it where prepare hands over to run.
    def stop(prepared):
        raise _StopAfterPrepare

    backend.run = stop  # instance attribute: shadows the class's method
    try:
        workload.run_trial(first)
    except _StopAfterPrepare:
        pass
    finally:
        del backend.run
    emit("done")


def run_e2e(workload: Workload, args) -> None:
    specs = workload.specs(args.seed, args.scale)
    warm_spec = next(specs)
    min_trials = workload.min_trials_at(args.scale)
    emit("plan", min_trials=min_trials, spec=warm_spec.as_provenance())
    emit("warmup", **timed_trial(workload, warm_spec))
    began = time.perf_counter()
    index = 0
    slices: list[float] = []
    while time.perf_counter() - began < args.seconds or index < min_trials:
        index += 1
        emit("begin", trial=index)
        trial = timed_trial(workload, next(specs))
        emit("trial", trial=index, **trial)
        slices += calibrate(SHARE * trial["wall_s"])
    emit("timed_section", wall_s=time.perf_counter() - began)
    emit("calibration", slices_s=slices)
    emit("rss",
         self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
         children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if workload.distributed:
        emit("begin", trial="identity")
        emit("identity", **serial_identity(workload, warm_spec))
    emit("done")


def serial_identity(workload: Workload, spec) -> dict[str, Any]:
    """The warm-up spec on its own engine and on ``serial``: the two
    canonical trace hashes must be equal (single-node baseline and
    bit-identity proof in one)."""
    serial = replace(spec, engine="serial", sharding=ShardingOpts(),
                     cluster=ClusterOpts())
    record: dict[str, Any] = {}
    for label, variant in (("engine", spec), ("serial", serial)):
        with patched_trial_path(variant.engine) as captured:
            t0 = time.perf_counter()
            workload.run_trial(variant)
            record[f"{label}_wall_s"] = time.perf_counter() - t0
        record[f"{label}_hash"] = canonical_trace_hash(captured[0].trace)
    record["equal"] = record["engine_hash"] == record["serial_hash"]
    return record


def run_traced(workload: Workload, args) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    metrics_path = out_dir / f"{stem}.obs-metrics.json"
    timeline_path = out_dir / f"{stem}.obs-timeline.json"
    specs = workload.specs(args.seed, args.scale)
    warm_spec = next(specs)
    # A third of the budget goes to the pairs (half untraced, half
    # traced); the probes are fixed work of about one budget on the
    # recorded host, so a traced run lasts about a third longer than an
    # end-to-end one.
    budget = args.seconds / 3
    min_pairs = max(2, workload.min_trials_at(args.scale) // 3)
    emit("plan", min_pairs=min_pairs, spec=warm_spec.as_provenance())
    emit("warmup", **timed_trial(workload, warm_spec))

    tracer = SpanTracer()
    began = time.perf_counter()
    index = 0
    while time.perf_counter() - began < budget or index < min_pairs:
        index += 1
        spec = next(specs)
        emit("begin", trial=index)
        untraced = timed_trial(workload, spec)
        tracer.trial = index
        observing = replace(spec, obs=ObsOpts(metrics=str(metrics_path),
                                              timeline=str(timeline_path)))
        with patched_trial_path(spec.engine, tracer) as captured:
            with tracer.span("analysis.runner"):
                traced = timed_trial(workload, observing)
        pair: dict[str, Any] = {"untraced": untraced, "traced": traced}
        if captured and "error" not in traced:
            pair["trace_rows"] = len(captured[0].trace)
            pair["spans"] = tracer.trial_summary(index)
            pair["obs"] = harvest_obs(metrics_path, timeline_path)
        emit("pair", trial=index, **pair)

    import probes  # imported here so set-up time stays the program's own

    for name, value, unit, info in probes.run_probes(
            probes.TINY if args.scale == "tiny" else probes.FULL, out_dir):
        emit("probe", name=name, value=value, unit=unit, info=info)

    chrome_path = out_dir / f"{stem}.chrome-trace.json"
    problems = tracer.write_chrome_trace(
        chrome_path, {"workload": workload.name, "seed": args.seed})
    emit("chrome_trace", path=str(chrome_path), problems=problems)
    emit("done")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "e2e", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    {"setup": run_setup, "e2e": run_e2e, "traced": run_traced}[args.mode](
        workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
