"""Smoke test of the perf ledger at ``--scale tiny``.

Run with ``python -m pytest benchmarks/ledger -q`` (not part of the
tier-1 ``testpaths``: it launches real worker processes and sockets).
Every check drives the ledger through its command line, the way the
benchmark driver does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import validate_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def ledger(*args: str, out: Path) -> tuple[dict, list[dict]]:
    """One ``run.py`` invocation: its driver line and its result records."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
         "--seconds", "0.2", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    return line, json.loads(out.read_text(encoding="utf-8"))["runs"]


def test_benchmark_json_names_are_well_formed_and_unique():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = (WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_the_listed_metrics_and_repeats(
        workload, tmp_path):
    first_line, first = ledger("--workload", workload, "--trace", "0",
                               out=tmp_path / "a.json")
    _, second = ledger("--workload", workload, "--trace", "0",
                       out=tmp_path / "b.json")
    assert set(first_line) == {"correct", "attempted", "failed", "metrics"}
    assert first_line["correct"] and first_line["failed"] == 0
    assert first_line["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in first_line["metrics"].items()} == listed
    assert all(metric["value"] > 0 for metric in first_line["metrics"].values())

    record = first[0]
    assert set(record["host"]) == {"cpu_count", "python", "platform",
                                   "loadavg_1m"}
    assert isinstance(record["host_busy"], bool)
    # The timing metrics are the raw ones scaled by the measured slowdown.
    info = record["info"]
    assert info["calibration_slices"] >= 1 and info["host_slowdown"] > 0
    assert record["metrics"]["setup_s"]["value"] == pytest.approx(
        info["raw"]["setup_s"] / info["setup_slowdown"])
    assert record["metrics"]["trial_wall_p50_s"]["value"] == pytest.approx(
        info["raw"]["trial_wall_p50_s"] / info["host_slowdown"])
    assert record["metrics"]["msgs_per_s"]["value"] == pytest.approx(
        info["raw"]["msgs_per_s"] * info["host_slowdown"])
    # Same seed, same simulated work — digest and counts repeat exactly.
    for field in ("sim_digest", "counts", "fixed_trials"):
        assert record["info"][field] == second[0]["info"][field]
    if record["info"]["plan"]["spec"]["engine"] != "serial":
        assert record["info"]["identity"]["equal"]


def test_traced_run_reports_every_per_layer_metric_and_a_valid_trace(tmp_path):
    # The cluster workload exercises every counter the probes read (wire
    # frames, barriers, rendezvous); every probe runs whatever the workload.
    line, runs = ledger("--workload", "lan_cluster", "--trace", "1",
                        out=tmp_path / "t.json")
    assert line["correct"] and line["failed"] == 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in line["metrics"].items()} == listed
    # Nothing measured is left out of BENCHMARK.json either.
    assert set(runs[0]["metrics"]) == set(listed)
    info = runs[0]["info"]
    assert info["traced_equals_untraced"]
    assert len(info["top_layers"]) == 3
    assert line["metrics"]["net.wire.frames_per_trial"]["value"] > 0
    chrome = json.loads((ROOT / info["chrome_trace"]["path"]).read_text("utf-8"))
    assert validate_chrome_trace(chrome) == []
    spans = {event["name"] for event in chrome["traceEvents"]
             if event["ph"] == "X"}
    assert {"analysis.runner", "engine.pipeline", "engine.prepare",
            "engine.run", "spec.check", "spec.extract_waves"} <= spans


def test_serial_spans_cover_the_trial(tmp_path):
    line, _ = ledger("--workload", "pif_sparse", "--trace", "1",
                     out=tmp_path / "t.json")
    assert line["correct"]
    assert line["metrics"]["obs.span_coverage"]["value"] >= 0.8


def test_compare_verdicts_and_refuses_unlike_hosts(tmp_path):
    ledger("--workload", "mutex_dense", "--trace", "0", "--repeat", "2",
           out=tmp_path / "a.json")
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        compare + [str(tmp_path / "a.json"), str(tmp_path / "a.json")],
        capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 worse" in same.stdout and "0 exact mismatch" in same.stdout

    doc = json.loads((tmp_path / "a.json").read_text("utf-8"))
    for run in doc["runs"]:
        run["metrics"]["trial_wall_p50_s"]["value"] *= 2
        run["info"]["sim_digest"] = "moved"
    (tmp_path / "slow.json").write_text(json.dumps(doc))
    worse = subprocess.run(
        compare + [str(tmp_path / "a.json"), str(tmp_path / "slow.json")],
        capture_output=True, text=True, timeout=60)
    assert worse.returncode == 1
    assert "worse" in worse.stdout and "MISMATCH" in worse.stdout

    for run in doc["runs"]:
        run["host"]["cpu_count"] += 1
    (tmp_path / "other.json").write_text(json.dumps(doc))
    unlike = subprocess.run(
        compare + [str(tmp_path / "a.json"), str(tmp_path / "other.json")],
        capture_output=True, text=True, timeout=60)
    assert unlike.returncode == 2 and "cpu_count" in unlike.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger the run
    must fail fast, with no result line (the driver tries this)."""
    installed = subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"}, capture_output=True)
    if installed.returncode == 0:
        pytest.skip("repro is installed: importable without the source tree")
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "mutex_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=bare,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
