"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--repeat K] [--out FILE]

Without ``--trace`` each selected workload is measured twice: an
untraced run for the end-to-end metrics, then a traced run (spans,
passive counters, every per-layer probe).  ``--trace 0`` / ``--trace 1``
select one of the two — the form the benchmark driver uses, which reads
the last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

This file never imports the program.  It launches ``worker.py`` in its
own process group, reads one event per line with a deadline on every
line (a trial that says nothing for :data:`TRIAL_TIMEOUT_S` seconds is a
failed trial and the group is killed), and turns the raw observations
into the named metrics of ``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, calibrate  # noqa: E402

ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
MARK = "@ledger "

#: A trial (or probe) that emits nothing for this long has hung: it is
#: counted as failed and the worker's process group is killed.  Shorter
#: than the cluster engine's own 120 s awaits, so those cannot stall a run.
TRIAL_TIMEOUT_S = 60
#: Fresh interpreter launches the set-up time is the median of.
SETUP_LAUNCHES = 5

Metrics = dict[str, dict[str, Any]]


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_record() -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


# -- launching the worker ---------------------------------------------------


class WorkerFailed(RuntimeError):
    """The worker could not run at all (as opposed to a trial failing)."""


def _worker_env(tmp: str) -> dict[str, str]:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Identical str hashes — hence dict/set iteration orders — in every
    # subprocess, and temporary files (cluster worker stderr) kept inside
    # the checkout.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def _cluster_workers_in_session(session: int) -> list[int]:
    """Pids of ``repro cluster-worker`` processes of one session that are
    still alive (``/proc`` scan; empty where there is no ``/proc``)."""
    survivors = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we were looking
        fields = stat.rsplit(")", 1)[1].split()
        # After "pid (comm)": state ppid pgrp session ...
        if (int(fields[3]) == session and fields[0] != "Z"
                and b"cluster-worker" in cmdline):
            survivors.append(int(entry.name))
    return survivors


def run_worker(workload: str, mode: str, seed: int, seconds: float,
               scale: str) -> dict[str, Any]:
    """Run one worker to completion or to its deadline.

    Returns its events, whether it hung (``timed_out``) and the cluster
    workers it left behind (``leaked``).  Raises :class:`WorkerFailed`
    when it exits without finishing for any other reason.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    events: list[dict[str, Any]] = []
    timed_out = False
    leaked: list[int] = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
             # Relative to the worker's cwd, so that recorded paths are
             # the same in every checkout.
             "--scale", scale, "--out-dir", str(OUT_DIR.relative_to(ROOT))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=_worker_env(tmp), start_new_session=True,
        )
        lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            while True:
                try:
                    line = lines.get(timeout=TRIAL_TIMEOUT_S)
                except queue.Empty:
                    timed_out = True
                    break
                if line is None:
                    break
                if line.startswith(MARK):
                    events.append(json.loads(line[len(MARK):]))
            if not timed_out:
                proc.wait(timeout=TRIAL_TIMEOUT_S)
                leaked = _cluster_workers_in_session(proc.pid)
        finally:
            # The worker leads its own process group: whatever it started
            # (fork workers, cluster worker interpreters) goes with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            reader.join()
            proc.stdout.close()
    finished = bool(events) and events[-1]["event"] == "done"
    if not timed_out and (proc.returncode != 0 or not finished):
        raise WorkerFailed(
            f"worker {workload}/{mode} exited with code {proc.returncode} "
            f"before finishing")
    return {"events": events, "timed_out": timed_out, "leaked": leaked}


def measure_setup(workload: str, seed: int, scale: str
                  ) -> tuple[list[float], list[float]]:
    """Walls of :data:`SETUP_LAUNCHES` fresh interpreter launches, each:
    import engine + runner, generate the specs, prepare the first — and
    the host-speed slices taken after each launch, for as long as the
    launch lasted (see calibration.py)."""
    walls: list[float] = []
    slices: list[float] = []
    for _ in range(2 if scale == "tiny" else SETUP_LAUNCHES):
        t0 = time.perf_counter()
        outcome = run_worker(workload, "setup", seed, 0.0, scale)
        walls.append(time.perf_counter() - t0)
        if outcome["timed_out"]:
            raise WorkerFailed(f"set-up of {workload} hung")
        slices += calibrate(walls[-1])
    return walls, slices


# -- observations -> metrics ----------------------------------------------


def _of(events: list[dict], kind: str) -> list[dict]:
    return [e for e in events if e["event"] == kind]


def _first(events: list[dict], kind: str, default: Any = None) -> Any:
    """The first event of a kind; ``default`` when a hung worker was
    killed before it reported one."""
    return next(iter(_of(events, kind)), default)


def _plan(events: list[dict]) -> dict:
    plan = _first(events, "plan")
    if plan is None:
        raise WorkerFailed("the worker hung before it reported anything")
    return plan


def _trial_failed(trial: dict[str, Any]) -> bool:
    return ("error" in trial or not trial["ok"] or trial["violations"] > 0
            or not trial["monitors_ok"])


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _tail(walls: list[float]) -> dict[str, Any] | None:
    """The highest percentile with at least ten samples beyond it; with
    fewer than thirty samples that is no tail, so none is reported."""
    if len(walls) < 30:
        return None
    ordered = sorted(walls)
    return {"percentile": round(100 * (len(ordered) - 10) / len(ordered), 1),
            "wall_s": ordered[-11], "samples": len(ordered)}


def sim_digest(trials: list[dict[str, Any]]) -> str:
    """sha256 over the ordered per-trial (ok, violations, measurements):
    repeats exactly for the same ``--seed``; a perf change quotes it to
    show no simulated statistic moved."""
    canonical = json.dumps(
        [[t.get("ok"), t.get("violations"), t.get("measurements")]
         for t in trials], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fixed_counts(trials: list[dict[str, Any]]) -> dict[str, int]:
    """Simulated work of the trials that always run: compared exactly."""
    return {
        "messages": sum(t["measurements"]["messages"]
                        for t in trials if "measurements" in t),
        "barriers": sum(t["provenance"].get("barriers", 0)
                        for t in trials if "provenance" in t),
    }


def _slowdown(slices: list[float]) -> float:
    """How much slower than the reference speed the host ran while the
    slices were taken (mean, not median: see calibration.py)."""
    return statistics.mean(slices) / REFERENCE_S if slices else 1.0


def aggregate_e2e(outcome: dict[str, Any], setup_walls: list[float],
                  setup_slices: list[float]) -> dict[str, Any]:
    events = outcome["events"]
    plan = _plan(events)
    trials = _of(events, "trial")
    attempted = sum(1 for e in _of(events, "begin")
                    if isinstance(e["trial"], int))
    # A trial that began and never reported was in flight at the kill.
    failed = sum(map(_trial_failed, trials)) + attempted - len(trials)
    good = [t for t in trials if not _trial_failed(t)]
    if not good:
        raise WorkerFailed("no trial of the timed section succeeded")
    walls = [t["wall_s"] for t in good]
    rss = _first(events, "rss", {"self_kb": 0, "children_kb": 0})
    identity = _first(events, "identity")
    fixed = trials[:plan["min_trials"]]
    # The timing metrics are scaled to the reference host speed (see
    # calibration.py), each by the slices interleaved with its own
    # section; a run that hung before calibrating reports them raw.
    slices = _first(events, "calibration", {"slices_s": []})["slices_s"]
    slowdown = _slowdown(slices)
    setup_slowdown = _slowdown(setup_slices)
    raw_setup = statistics.median(setup_walls)
    raw_wall = statistics.median(walls)
    raw_rate = statistics.median(
        t["measurements"]["messages"] / t["wall_s"] for t in good)
    metrics: Metrics = {
        "setup_s": _metric(raw_setup / setup_slowdown, "s"),
        "trial_wall_p50_s": _metric(raw_wall / slowdown, "s"),
        "msgs_per_s": _metric(raw_rate * slowdown, "1/s"),
        "peak_rss_mb": _metric(
            max(rss["self_kb"], rss["children_kb"]) / 1024, "MiB"),
        "ok_share": _metric(1 - failed / attempted, "fraction"),
    }
    correct = (failed == 0 and not outcome["timed_out"]
               and not outcome["leaked"]
               and (identity is None or identity["equal"]))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "info": {
            "plan": plan,
            "trials": len(good),
            "setup_walls_s": setup_walls,
            "warmup_s": _first(events, "warmup")["wall_s"],
            "timed_section_s": _first(events, "timed_section", {}).get("wall_s"),
            "trial_wall_tail": _tail(walls),
            "raw": {"setup_s": raw_setup, "trial_wall_p50_s": raw_wall,
                    "msgs_per_s": raw_rate},
            "host_slowdown": slowdown,
            "setup_slowdown": setup_slowdown,
            "calibration_slices": len(slices),
            "identity": identity,
            "timed_out": outcome["timed_out"],
            "leaked_cluster_workers": outcome["leaked"],
            "errors": [t["error"] for t in trials if "error" in t],
            # Exact comparisons cover the trials that always run.
            "fixed_trials": len(fixed),
            "sim_digest": sim_digest(fixed),
            "counts": _fixed_counts(fixed),
        },
    }


def _pair_layers(pair: dict[str, Any]) -> dict[str, float]:
    """Every trial-derived per-layer number of one traced trial."""
    total, self_time = pair["spans"]["total"], pair["spans"]["self"]
    counters = pair["obs"]["counters"]
    trial = total["analysis.runner"]
    run = total["engine.run"]
    # The engine's own phase spans (coordinator lane) inside backend.run;
    # what they leave uncovered is fork/spawn, result shipping and merge.
    phases = min(run, sum(pair["obs"]["phases"].values()))
    check = total.get("spec.check", 0.0)
    extract = total.get("spec.extract_waves", 0.0)
    sent = counters["channel.sent"]
    prov = pair["traced"]["provenance"]
    wire_frames = sum(v for k, v in counters.items()
                      if k.startswith("wire.frames_out["))
    wire_bytes = sum(v for k, v in counters.items()
                     if k.startswith("wire.bytes_out["))
    return {
        "engine.prepare_s": total["engine.prepare"],
        "engine.run_s": run,
        "engine.run_share": run / trial,
        "analysis.runner.wrap_s": self_time["analysis.runner"],
        "sim.runtime.us_per_msg": run / sent * 1e6,
        "sim.runtime.activations_per_msg":
            counters.get("process.activations", 0) / sent,
        "sim.channel.dropped_full_share":
            counters.get("channel.dropped_full", 0) / sent,
        "sim.channel.dropped_loss_share":
            counters.get("channel.dropped_loss", 0) / sent,
        "sim.scheduler.pops_per_msg": counters.get("scheduler.pops", 0) / sent,
        "sim.trace.rows_per_trial": pair["trace_rows"],
        "sync.barriers_per_trial": prov.get("barriers", 0),
        "sync.share": prov.get("sync_wall_s", 0.0) / pair["traced"]["wall_s"],
        "net.wire.frames_per_trial": wire_frames,
        "net.wire.bytes_per_trial": wire_bytes,
        "obs.overhead_ratio":
            pair["traced"]["wall_s"] / pair["untraced"]["wall_s"],
        "obs.span_coverage":
            (total["engine.prepare"] + phases + check + extract) / trial,
        "self_share.analysis.runner": self_time["analysis.runner"] / trial,
        "self_share.engine.pipeline": self_time["engine.pipeline"] / trial,
        "self_share.engine.prepare": total["engine.prepare"] / trial,
        "self_share.engine.run.phases": phases / trial,
        "self_share.engine.run.other": (run - phases) / trial,
        "self_share.spec.check": check / trial,
        "self_share.spec.extract_waves": extract / trial,
    }


_LAYER_UNITS = {
    "engine.prepare_s": "s", "engine.run_s": "s",
    "analysis.runner.wrap_s": "s", "sim.runtime.us_per_msg": "us",
    "sim.trace.rows_per_trial": "count", "sync.barriers_per_trial": "count",
    "net.wire.frames_per_trial": "count", "net.wire.bytes_per_trial": "B",
    "obs.overhead_ratio": "ratio",
    "sim.runtime.activations_per_msg": "ratio",
    "sim.scheduler.pops_per_msg": "ratio",
}


def _self_time_breakdown(pairs: list[dict[str, Any]]) -> dict[str, float]:
    """Median share of the trial wall per layer, the engine's phases by
    name — the table the top three layers are read from."""
    rows: dict[str, list[float]] = {}
    for pair in pairs:
        total, self_time = pair["spans"]["total"], pair["spans"]["self"]
        trial = total["analysis.runner"]
        parts = {name: seconds for name, seconds in self_time.items()
                 if name != "engine.run"}
        phases = pair["obs"]["phases"]
        for name, seconds in phases.items():
            parts[f"engine.run/{name}"] = seconds
        parts["engine.run/(unattributed)"] = max(
            0.0, total["engine.run"] - sum(phases.values()))
        for name, seconds in parts.items():
            rows.setdefault(name, []).append(seconds / trial)
    return dict(sorted(
        ((name, statistics.median(shares)) for name, shares in rows.items()),
        key=lambda item: -item[1]))


def aggregate_traced(outcome: dict[str, Any]) -> dict[str, Any]:
    events = outcome["events"]
    plan = _plan(events)
    pairs = _of(events, "pair")
    attempted = 2 * len(_of(events, "begin"))
    singles = [p[side] for p in pairs for side in ("untraced", "traced")]
    failed = sum(map(_trial_failed, singles)) + attempted - len(singles)
    usable = [p for p in pairs if "spans" in p
              and not _trial_failed(p["untraced"])
              and not _trial_failed(p["traced"])]
    if not usable:
        raise WorkerFailed("no traced trial pair succeeded")
    # Observation must not move the simulation.
    same = all(p["untraced"]["measurements"] == p["traced"]["measurements"]
               for p in usable)
    per_pair = [_pair_layers(p) for p in usable]
    metrics: Metrics = {
        name: _metric(statistics.median(row[name] for row in per_pair),
                      _LAYER_UNITS.get(name, "fraction"))
        for name in per_pair[0]
    }
    probes = _of(events, "probe")
    for probe in probes:
        metrics[probe["name"]] = _metric(probe["value"], probe["unit"])
    chrome = _first(events, "chrome_trace",
                    {"path": None, "problems": ["not written"]})
    breakdown = _self_time_breakdown(usable)
    wire_by_kind: dict[str, float] = {}
    for pair in usable:
        for key, value in pair["obs"]["counters"].items():
            if key.startswith(("wire.frames_out[", "wire.bytes_out[")):
                wire_by_kind[key] = wire_by_kind.get(key, 0) + value / len(usable)
    correct = (failed == 0 and same and not outcome["timed_out"]
               and not outcome["leaked"] and not chrome["problems"])
    fixed = plan["min_pairs"]
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "info": {
            "plan": plan,
            "pairs": len(usable),
            "traced_equals_untraced": same,
            "self_time_shares": breakdown,
            "top_layers": list(breakdown)[:3],
            "wire_per_trial_by_kind": wire_by_kind,
            "probe_info": {p["name"]: p["info"] for p in probes if p["info"]},
            "chrome_trace": chrome,
            "timed_out": outcome["timed_out"],
            "leaked_cluster_workers": outcome["leaked"],
            "fixed_trials": fixed,
            "sim_digest": sim_digest([p["traced"] for p in pairs[:fixed]]),
            "counts": {
                **_fixed_counts([p["traced"] for p in pairs[:fixed]]),
                "wire_frames": sum(row["net.wire.frames_per_trial"]
                                   for row in per_pair[:fixed]),
            },
        },
    }


# -- one measured run -----------------------------------------------------


def measure(workload: str, mode: str, seed: int, seconds: float,
            scale: str) -> dict[str, Any]:
    host = host_record()
    if mode == "e2e":
        setup_walls, setup_slices = measure_setup(workload, seed, scale)
        record = aggregate_e2e(
            run_worker(workload, "e2e", seed, seconds, scale),
            setup_walls, setup_slices)
    else:
        record = aggregate_traced(
            run_worker(workload, "traced", seed, seconds, scale))
    return {
        "workload": workload, "mode": mode, "seed": seed,
        "seconds": seconds, "scale": scale, "host": host,
        # A busy host widens every spread; recorded, never assumed away.
        "host_busy": host["loadavg_1m"] > (host["cpu_count"] or 1),
        **record,
    }


def print_record(record: dict[str, Any], listed: list[str]) -> None:
    flag = "ok" if record["correct"] else "INCORRECT"
    busy = "  [host busy]" if record["host_busy"] else ""
    print(f"== {record['workload']} / {record['mode']}  seed {record['seed']}"
          f"  attempted {record['attempted']}  failed {record['failed']}"
          f"  {flag}{busy}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    info = record["info"]
    if record["mode"] == "e2e":
        tail = info["trial_wall_tail"]
        print(f"  (trials {info['trials']}, host slowdown "
              f"{info['host_slowdown']:.3f} -> raw trial_wall_p50_s "
              f"{info['raw']['trial_wall_p50_s']:.4f}, raw msgs_per_s "
              f"{info['raw']['msgs_per_s']:.0f}; set-up slowdown "
              f"{info['setup_slowdown']:.3f} -> raw setup_s "
              f"{info['raw']['setup_s']:.4f}; "
              f"warmup_s {info['warmup_s']:.4f}, "
              f"sim_digest {info['sim_digest'][:16]}"
              + (f", trial_wall_tail_s p{tail['percentile']} "
                 f"{tail['wall_s']:.4f}" if tail else "")
              + (f", serial-hash identity {info['identity']['equal']}"
                 if info["identity"] else "") + ")")
    else:
        shares = info["self_time_shares"]
        print("  (top layers by self time: " + ", ".join(
            f"{name} {shares[name]:.1%}" for name in info["top_layers"])
            + f"; chrome trace {info['chrome_trace']['path']})")
    # The benchmark driver reads the last line of standard output: this
    # run, narrowed to the names BENCHMARK.json lists for its mode.
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in listed},
    }), flush=True)


def append_results(path: Path, records: list[dict[str, Any]]) -> None:
    doc = {"schema": 1, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    doc["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="length of one timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: end-to-end only; 1: traced only; "
                             "omitted: both")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measure seeds S..S+K-1")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: toy sizes, for the smoke test")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "ledger.json",
                        help="results file; runs are appended to it")
    args = parser.parse_args(argv)

    modes = {None: ("e2e", "traced"), 0: ("e2e",), 1: ("traced",)}[args.trace]
    expected = {
        "e2e": [m["name"] for m in benchmark["end_to_end"]],
        "traced": [m["name"] for m in benchmark["per_layer"]],
    }
    records = []
    try:
        for workload in ([args.workload] if args.workload else names):
            for seed in range(args.seed, args.seed + args.repeat):
                for mode in modes:
                    record = measure(workload, mode, seed, args.seconds,
                                     args.scale)
                    missing = [n for n in expected[mode]
                               if n not in record["metrics"]]
                    if missing:
                        raise WorkerFailed(
                            f"{workload}/{mode} did not produce {missing}")
                    print_record(record, expected[mode])
                    records.append(record)
    except WorkerFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    finally:
        if records:
            append_results(args.out, records)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
