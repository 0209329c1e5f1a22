"""CI gate: every function under ``src/`` is reached by what the
reproduction runs, or named in :data:`ALLOWLIST` with the test that
reaches it.

The gate runs a fixed set of *roots* — ``repro claims``, without and
with row ids, one smoke per other ``repro`` subcommand (the async engine
over tcp, with its instruments on and a fault plan, and over udp, then
``repro obs`` on what they wrote; a cluster trial under a fault plan; a
sharded trial), every ``examples/*.py``, the chaos gate's smallest case,
one claims trial replayed from its provenance record on ``async``,
``sharded`` and ``cluster``, the registry-integrity gate and the perf
ledger's smoke — each in its own interpreter under a call tracer, and
maps what they called back to the ``def``s of ``src/``:

* the tracer is a ``sitecustomize`` module this gate writes into a
  temporary directory prepended to ``PYTHONPATH``, so every interpreter a
  root starts (cluster workers, ledger trials) loads it too.  It sets a
  ``sys.settrace`` / ``threading.settrace`` hook that records each
  frame's ``(co_filename, co_firstlineno)`` and returns ``None`` (no
  per-line tracing), and dumps its set when the interpreter exits;
* :mod:`ast` maps each ``def`` to its code object by its first
  decorator's line, else its ``def`` line; an abstract method or a
  docstring-only body declares an interface and is not counted;
* a root that exits non-zero fails the gate: a broken root would
  otherwise shrink the reached set quietly.

Every function no root reaches fails the gate unless :data:`ALLOWLIST`
names it.  A listed function fails it too when a root reaches it, when
it no longer exists, or when its named test (run under the same tracer
after the roots) does not reach it — so the list cannot rot.  Tracing
costs about 4.5x: ``repro claims`` takes ~145 s under it on 2 cores
(33 s untraced), and the whole gate ~160 s.

A new function under ``src/`` comes with a root that reaches it or with
an allowlist row naming its test.

Usage::

    python benchmarks/check_reachability.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``(qualname, test id)``: a function no root reaches, kept because the
#: named test reaches it — an error path or the validation of outside
#: input, the explorer substrate (``repro.sim.configuration``), a
#: reference a test compares the engine against, or a query the unit
#: tests read state through.
ALLOWLIST: tuple[tuple[str, str], ...] = (
    # Error paths and the validation of outside input.
    ("repro.errors.SpecError.__init__",
     "tests/test_cli.py::TestCli::test_bad_latency_map_entry_rejected"),
    ("repro.errors.HorizonExceeded.__init__",
     "tests/test_weighted.py::TestEnginePlumbing::test_horizon_exceeded_reports_window"),
    ("repro.analysis.runner._count_cs_grants",
     "tests/test_engine_spec.py::test_what_the_spec_names_wins_over_the_rows_default"),
    ("repro.core.requests.RequestDriver.total_planned",
     "tests/test_net.py::TestRoundBudget::test_exhausted_budget_raises_horizon_exceeded"),
    ("repro.engine.base._alternatives",
     "tests/test_cluster.py::test_execute_rejects_hosts_without_cluster_engine"),
    ("repro.engine.backends.async_.AsyncBackend._paced_names",
     "tests/test_engine_spec.py::test_tick_on_a_virtual_time_transport_names_the_paced_ones"),
    ("repro.chaos.plan.FaultPlan.__repr__",
     "tests/test_chaos.py::test_execute_guards_fault_plan_engine_axis"),
    ("repro.sim.channel._Entry.__repr__",
     "tests/test_channel.py::TestBoundedCapacity::test_remove_foreign_entry_raises"),
    ("repro.sim.determinism._wrong_bounds",
     "tests/test_runtime.py::TestBoundRandint::test_other_bounds_are_refused"),
    ("repro.sim.sharded._out_of_order",
     "tests/test_sharded.py::TestTheMergeStreams::test_a_run_out_of_order_is_an_error"),
    ("repro.net.engine.AsyncSimulator._net_error",
     "tests/test_net.py::TestErrorSink::test_dispatch_failure_fails_a_socket_trial_promptly[tcp]"),
    ("repro.net.transport.udp._UdpEndpoint.error_received",
     "tests/test_udp_transport.py::test_a_socket_error_reaches_the_engine_error_sink"),
    ("repro.net.registry.RegistryClient._count_retry",
     "tests/test_wire.py::test_register_retries_a_refused_dial_until_its_deadline"),
    # A send the kernel takes only in part (no root's trial writes more
    # than a socket buffers), and the blocking flush a failing worker's
    # last report takes.
    ("repro.net.registry.Channel.flush",
     "tests/test_wire.py::test_two_channels_ship_more_than_the_kernel_buffers_to_each_other"),
    ("repro.net.registry.Channel.drain",
     "tests/test_wire.py::test_two_channels_ship_more_than_the_kernel_buffers_to_each_other"),
    ("repro.net.clock.PacedClock.schedule_at",
     "tests/test_net.py::TestClocks::test_paced_clock_clamps_past_schedules"),
    # The explorer substrate (ROADMAP 3(b)): configurations, their key,
    # and what restore clears.
    ("repro.sim.configuration.capture",
     "tests/test_configuration.py::TestCapture::test_capture_contains_all_processes"),
    ("repro.sim.configuration.restore",
     "tests/test_configuration.py::TestRestore::test_roundtrip_process_state"),
    ("repro.sim.configuration.Configuration.key",
     "tests/test_configuration.py::TestKey::test_key_reads_every_process_state"),
    ("repro.sim.configuration._message_key",
     "tests/test_configuration.py::TestKey::test_key_is_fifo_per_tag"),
    ("repro.sim.configuration.Configuration.projection",
     "tests/test_configuration.py::TestProjections::test_state_projection"),
    ("repro.sim.network.Network.clear_channels",
     "tests/test_configuration.py::TestRestore::test_restore_clears_stale_channels"),
    ("repro.sim.channel.ChannelBase.clear",
     "tests/test_channel.py::TestFifo::test_clear_returns_dropped"),
    # The references and oracles tests compare the engine against.
    ("repro.sim.stats.SimStats.record_send",
     "tests/test_link_equivalence.py::test_claim_then_put_matches_step_by_step_path[auto-clean-none]"),
    ("repro.core.messages.PifMessage.__eq__",
     "tests/test_link_equivalence.py::test_claim_then_put_matches_step_by_step_path[auto-clean-none]"),
    ("repro.core.messages.PifMessage.__hash__",
     "tests/test_wire.py::test_pif_message_pickles_as_its_constructor_call"),
    ("repro.chaos.plan.FaultPlan.__eq__",
     "tests/test_engine_spec.py::test_cli_spec_provenance_round_trip_is_lossless"),
    ("repro.engine.base.validate_run_provenance",
     "tests/test_engine_spec.py::test_every_engine_fits_the_provenance_schema[serial-axes0]"),
    ("repro.engine.registry.unregister",
     "tests/test_engine_spec.py::test_registry_register_resolve_unregister"),
    ("repro.net.monitors.SpecMonitor.report",
     "tests/test_idl.py::TestMonitoredOnline::test_monitor_and_trial_agree_the_start_window_is_shut"),
    ("repro.sim.determinism.key_owner",
     "tests/test_sharded.py::TestKeyedMergeRebuildsTheSerialOrder::test_merge_equals_serial[True-True]"),
    ("repro.sim.determinism.bound_randint.<locals>.fallback",
     "tests/test_runtime.py::TestBoundRandint::test_subclass_falls_back_to_stock_randint"),
    ("repro.sim.partition.Partition.local_edges",
     "tests/test_partition.py::TestCrossEdges::test_single_shard_has_no_cross_edges"),
    ("repro.sim.topology.Complete._edges",
     "tests/test_topology.py::TestFamilies::test_complete_neighbours_are_its_declared_edges"),
    ("repro.sim.runtime.Simulator.run_quiet",
     "tests/test_pif_integration.py::TestCleanWave::test_quiescence_after_requests_stop"),
    ("repro.sim.runtime.Simulator.in_transit",
     "tests/test_runtime.py::TestBusyDeliveryAndActivation::test_delivery_waits_for_busy_process"),
    # Query surfaces the unit tests read state through.
    ("repro._lazy.lazy_exports.<locals>.__dir__",
     "tests/test_package.py::TestPublicApi::test_subpackage_exports_resolve"),
    ("repro.obs.metrics.NullMetrics.snapshot",
     "tests/test_obs.py::TestNullMetrics::test_same_surface_stores_nothing"),
    ("repro.sim.channel.NoLoss.should_drop",
     "tests/test_channel.py::TestLossModels::test_no_loss_never_drops"),
    ("repro.sim.channel.ChannelBase.occupancy",
     "tests/test_channel.py::TestBoundedCapacity::test_occupancy_tracks_tags"),
    ("repro.sim.faults.GilbertElliottLoss.in_burst",
     "tests/test_faults.py::TestGilbertElliott::test_burst_state_transitions"),
    ("repro.sim.network.Network.peer_by_num",
     "tests/test_network.py::TestChannelNumbering::test_peer_by_num_inverts_chan_num"),
    ("repro.sim.process.ProcessHost.peer_by_num",
     "tests/test_process.py::TestTopologyView::test_chan_num_roundtrip"),
    ("repro.sim.topology.Topology.peer_by_num",
     "tests/test_network.py::TestChannelNumbering::test_peer_by_num_out_of_range"),
    ("repro.sim.process.Layer.actions",
     "tests/test_link_equivalence.py::TestConfigurationIsConstructionTime::test_capacity"),
    ("repro.sim.scheduler.Scheduler.now",
     "tests/test_scheduler.py::TestScheduling::test_starts_at_time_zero"),
    ("repro.sim.trace.TraceEvent.__getitem__",
     "tests/test_trace.py::TestEmitAndQuery::test_getitem_and_data_access"),
    ("repro.sim.trace.TraceEvent.get",
     "tests/test_trace.py::TestEmitAndQuery::test_getitem_and_data_access"),
    ("repro.sim.process.ProcessHost.n",
     "tests/test_process.py::TestTopologyView::test_n"),
    ("repro.impossibility.construction.ImpossibilityResult.summary",
     "tests/test_impossibility.py::TestEndToEnd::test_demonstration_violates_safety"),
    ("repro.sim.trace.Trace.__getitem__",
     "tests/test_trace.py::TestEmitAndQuery::test_getitem_and_data_access"),
    ("repro.spec.base.SpecVerdict.add",
     "tests/test_spec.py::TestPifChecker::test_detects_missing_start"),
    ("repro.spec.base.SpecVerdict.first_violation_time",
     "tests/test_spec.py::TestVerdictApi::test_first_violation_time_and_events_observed"),
    ("repro.spec.base.SpecVerdict.property_ok",
     "tests/test_spec.py::TestIdlChecker::test_detects_wrong_minimum"),
    ("repro.spec.base.SpecVerdict.summary",
     "tests/test_spec.py::TestVerdictApi::test_summary_lists_violations"),
    ("repro.spec.mutex_spec.cs_intervals",
     "tests/test_spec.py::TestMutexChecker::test_cs_intervals_reconstruction"),
)

#: The tracer every root's interpreters load (``{out}`` is filled in).
_SITECUSTOMIZE = '''\
import atexit, os, signal, sys, threading

seen = set()
#: Per pytest item: what the item's own run reached (reach_plugin).
tests = {{}}


def _hook(frame, event, arg):
    code = frame.f_code
    seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # one whole dump
    sys.settrace(None)
    # A worker a traced test spawned reached these for that test.
    test = os.environ.get("REACH_TEST")
    rows = [[path, line, test] for path, line in seen]
    rows += [[path, line, test] for test, reached in tests.items()
             for path, line in reached]
    fd, part = __import__("tempfile").mkstemp(suffix=".part", dir={out!r})
    with os.fdopen(fd, "w") as f:
        f.write(__import__("json").dumps([os.getcwd(), rows]))
    os.replace(part, part[:-len(".part")] + ".json")


def _terminated(signum, frame):
    # A coordinator ends a failed trial's workers with SIGTERM, which
    # skips atexit: dump first.
    _dump()
    os._exit(128 + signum)


sys.settrace(_hook)
threading.settrace(_hook)
atexit.register(_dump)
signal.signal(signal.SIGTERM, _terminated)
'''

#: A pytest plugin attributing what each test reached to its node id,
#: in its own interpreter and in every one it spawns (``REACH_TEST``).
#: A pooled cluster worker outlives the test that booted it, so the pool
#: is closed as the test ends: the worker dumps under that test's id, and
#: the next test boots its own.
_PLUGIN = '''\
import os
import sys

import pytest
import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    outer, sitecustomize.seen = sitecustomize.seen, set()
    os.environ["REACH_TEST"] = item.nodeid
    yield
    coordinator = sys.modules.get("repro.net.coordinator")
    if coordinator is not None:
        coordinator.close_pool()
    del os.environ["REACH_TEST"]
    sitecustomize.tests[item.nodeid] = sitecustomize.seen
    outer |= sitecustomize.seen
    sitecustomize.seen = outer
'''

_PY = sys.executable

#: One claims trial (E3's first), recorded as its provenance record and
#: replayed from it on every other engine; two workers are all it boots.
_REPLAY = """\
import json, sys
sys.path.insert(0, "benchmarks")
from check_engine_equivalence import _variants
from equivalence import bit_identity
import repro.analysis.runner as runner
from repro.analysis.claims import CLAIMS, observe
from repro.engine import TrialSpec
from repro.net.coordinator import interpreters_spawned
specs, real = [], runner.execute
runner.execute = lambda spec: specs.append(spec) or real(spec)
observe(next(claim for claim in CLAIMS if claim.id == "E3"))
runner.execute = real
record = json.loads(json.dumps(specs[0].as_provenance()))
spec = TrialSpec.from_provenance(record)
same = bit_identity(spec, _variants(2)).same
sys.exit(0 if same and interpreters_spawned() == 2 else 1)
"""

#: The chaos gate's smallest case: a crash, a recovery, serial's metrics.
_CHAOS = """\
import sys
sys.path.insert(0, "benchmarks")
import check_chaos_equivalence as gate
from equivalence import compare_metrics
case = min(gate.CASES, key=lambda case: case[2].n)
sys.exit(0 if compare_metrics([case], "chaos", agrees=gate._recovered_once,
                              tail=gate._rerun_and_faults) else 1)
"""


def _repro(*argv: str) -> list[str]:
    return [_PY, "-m", "repro", *argv]


def roots(scratch: Path) -> list[list[tuple[str, list[str]]]]:
    """``(label, argv)`` of every root, in two batches: the second reads
    what the first wrote.  The longest root comes first; each runs in the
    checkout's root directory."""
    tcp, udp = scratch / "tcp.json", scratch / "udp.json"
    timeline = scratch / "tcp_timeline.json"
    return [[
        ("repro claims", _repro("claims")),
        ("perf ledger smoke", [_PY, "-m", "pytest", "benchmarks/ledger",
                               "-q", "-p", "no:cacheprovider"]),
        ("chaos gate, smallest case", [_PY, "-c", _CHAOS]),
        ("engine gate, one replay", [_PY, "-c", _REPLAY]),
        ("registry integrity gate",
         [_PY, "benchmarks/check_registry_integrity.py"]),
        *((f"examples/{path.name}", [_PY, f"examples/{path.name}"])
          for path in sorted((ROOT / "examples").glob("*.py"))),
        ("repro claims with ids", _repro("claims", "E1", "E9a")),
        ("repro pif async tcp", _repro(
            "pif", "--n", "4", "--seeds", "0", "--engine", "async",
            "--transport", "tcp", "--horizon", "3000",
            "--metrics", str(tcp), "--timeline", str(timeline),
            "--fault-plan", "drop ship from 1 count 1; corrupt ship from 2 "
            "count 1; duplicate ship from 3 count 1")),
        ("repro idl async udp", _repro(
            "idl", "--n", "4", "--seeds", "0", "--engine", "async",
            "--transport", "udp", "--horizon", "3000",
            "--metrics", str(udp))),
        ("repro mutex cluster fault plan", _repro(
            "mutex", "--n", "4", "--seeds", "0", "--engine", "cluster",
            "--hosts", "2", "--fault-plan",
            "crash worker 1 at round 2; cut link 0->1 at round 3 for 0.05s; "
            "corrupt ship from 1 count 1")),
        ("repro pif sharded", _repro(
            "pif", "--n", "6", "--seeds", "0", "1", "--engine", "sharded",
            "--shards", "2", "--wan", "--timeline", str(scratch / "s.json"))),
        ("repro mutex round budget", _repro(
            "mutex", "--n", "3", "--seeds", "0", "--round-budget", "100",
            "--profile", "3")),
        ("repro list", _repro("list")),
        ("repro collect async", _repro(
            "collect", "--n", "4", "--seeds", "0", "--engine", "async",
            "--topology", "star")),
        ("repro topology", _repro(
            "topology", "--n", "8", "--topology", "clustered:2",
            "--latency-map", "1-5=20:30")),
    ], [
        ("repro obs", _repro("obs", str(tcp), str(timeline), str(udp))),
    ]]


class Function(NamedTuple):
    qualname: str
    path: Path
    line: int


def _declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An abstract method, or a body that is only its docstring: it
    declares an interface and has nothing to run."""
    return (any(ast.unparse(d).endswith("abstractmethod")
                for d in node.decorator_list)
            or (len(node.body) == 1 and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)))


def functions() -> dict[tuple[str, int], Function]:
    """Every ``def`` under ``src/`` but the declarations, keyed by its
    code object's ``(co_filename, co_firstlineno)``."""
    found: dict[tuple[str, int], Function] = {}

    def visit(node: ast.AST, module: str, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = (child.decorator_list[0].lineno
                        if child.decorator_list else child.lineno)
                if not _declaration(child):
                    found[str(path), line] = Function(
                        f"{module}.{prefix}{child.name}", path, line)
                visit(child, module, f"{prefix}{child.name}.<locals>.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module.removesuffix(".__init__"),
              "", path)
    return found


def reached(dumps: Path) -> tuple[set[tuple[str, int]], dict[str, set]]:
    """What every dump in ``dumps`` reached, and per pytest node id what
    that test's own run reached."""
    anywhere: set[tuple[str, int]] = set()
    by_test: dict[str, set[tuple[str, int]]] = {}
    for dump in dumps.glob("*.json"):
        cwd, rows = json.loads(dump.read_text())
        for path, line, test in rows:
            key = (os.path.realpath(os.path.join(cwd, path)), line)
            if test is None:
                anywhere.add(key)
            else:
                by_test.setdefault(test, set()).add(key)
    return anywhere, by_test


def run(batch: list[tuple[str, list[str]]], env: dict[str, str],
        logs: Path, slots: int = 2) -> list[str]:
    """Run ``batch`` ``slots`` at a time; one line per root that failed."""
    failed: list[str] = []
    waiting = list(batch)
    running: list[tuple[str, subprocess.Popen, Path, float]] = []
    while waiting or running:
        while waiting and len(running) < slots:
            label, argv = waiting.pop(0)
            with tempfile.NamedTemporaryFile(
                    "w", dir=logs, suffix=".log", delete=False) as out:
                running.append((label, subprocess.Popen(
                    argv, cwd=ROOT, env=env, stdout=out,
                    stderr=subprocess.STDOUT), Path(out.name),
                    time.perf_counter()))
        time.sleep(0.2)
        for entry in list(running):
            label, proc, log, t0 = entry
            if time.perf_counter() - t0 > 600:
                proc.kill()
            code = proc.poll()
            if code is None:
                continue
            running.remove(entry)
            wall = time.perf_counter() - t0
            print(f"    {label}: exit {code} in {wall:.1f}s", flush=True)
            if code != 0:
                tail = log.read_text().splitlines()[-15:]
                failed.append(f"root {label!r} exited {code}:\n        "
                              + "\n        ".join(tail))
    return failed


def main() -> int:
    argparse.ArgumentParser(
        description="Every src/ function is reached by a root or "
                    "allowlisted with its test.").parse_args()
    t0 = time.perf_counter()
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        dumps, logs, scratch = (tmp_dir / "dumps", tmp_dir / "logs",
                                tmp_dir / "scratch")
        for directory in (dumps, logs, scratch):
            directory.mkdir()
        (tmp_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(out=str(dumps)))
        (tmp_dir / "reach_plugin.py").write_text(_PLUGIN)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [tmp, str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for batch in roots(scratch):
            problems += run(batch, env, logs)
        reached_by_roots, _ = reached(dumps)
        for stale in dumps.glob("*.json"):
            stale.unlink()
        tests = sorted({test for _name, test in ALLOWLIST})
        if tests:
            problems += run([("allowlisted tests", [
                _PY, "-m", "pytest", "-q", "-p", "reach_plugin",
                "-p", "no:cacheprovider", *tests])], env, logs)
        _, reached_by_test = reached(dumps)

    defs = functions()
    by_name = {fn.qualname: key for key, fn in defs.items()}
    listed = dict(ALLOWLIST)
    unreached = [fn for key, fn in sorted(defs.items(), key=lambda kv: kv[1])
                 if key not in reached_by_roots]
    for fn in unreached:
        if fn.qualname not in listed:
            problems.append(f"{fn.qualname} ({fn.path.relative_to(ROOT)}:"
                            f"{fn.line}): no root reaches it; delete it, or "
                            f"add a root or an ALLOWLIST row naming its test")
    for name, test in ALLOWLIST:
        key = by_name.get(name)
        if key is None:
            problems.append(f"{name}: allowlisted, but no such function")
        elif key in reached_by_roots:
            problems.append(f"{name}: allowlisted, but a root reaches it")
        elif key not in reached_by_test.get(test, ()):
            problems.append(f"{name}: allowlisted, but {test} does not "
                            f"reach it")
    for problem in problems:
        print("FAILED", problem)
    print(f"{len(defs)} functions, {len(unreached)} unreached by the roots, "
          f"{len(ALLOWLIST)} allowlisted; wall "
          f"{time.perf_counter() - t0:.0f}s")
    print("reachability:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
