"""CI gate: the engine and transport registries stay whole.

Asserts, without running a single trial:

* all four built-in engine backends (serial, sharded, async, cluster)
  and the three transports (loopback, tcp, udp) are registered;
* names are unique and every backend's declared capabilities are drawn
  from the known axis vocabulary (plus ``transport:*`` markers);
* every backend declares ``obs`` — observability is engine-independent;
* transport flags are coherent (a deterministic medium cannot be paced;
  socket-fabric media must declare a frame boundary to inject at);
* the static built-in tables (``BUILTIN``: name → module, imported per
  name) agree with reality: each entry's module, imported alone,
  registers that name (and nothing the table lacks), and no module of
  the built-in packages registers a name the table lacks (it would be
  unreachable until something else imported it);
* no per-engine ``if engine ==`` / ``elif engine ==`` dispatch chain has
  crept back into ``src/repro/analysis/`` or ``src/repro/cli.py`` — the
  registry is the only dispatcher (the grep guard for the PR-10
  refactor) — and nothing under ``src/repro/engine/`` or
  ``src/repro/core/`` imports from ``repro.net.cluster`` (that dragged
  asyncio into every serial trial);
* :class:`~repro.engine.TrialSpec` stays the only way in: it has no
  ``build`` field (``protocol`` is the one protocol description), and
  neither of the two keyword adapters PR 15 deleted is named anywhere
  under ``src/``;
* a send stays one path: neither the per-channel cache tuple the compiled
  link (:class:`repro.sim.runtime.Link`) replaced nor a flag / engine-type
  test selecting an unfused send is named under ``src/repro/sim/`` — the
  one engine-specific step of a send is chosen when its link is built;
* a specification stays one automaton: ``src/repro/net/monitors.py``
  defines no class besides ``LiveTrace`` and the ``SpecMonitor`` adapter,
  and ``repro.spec.temporal`` stays deleted;
* a protocol is declared once, as a row of
  :data:`repro.core.protocols.PROTOCOLS`: every row's builder registers a
  layer under the row's ``kind``, its automaton carries that tag, the
  runner's judge map has exactly the table's keys and the CLI a
  subcommand per row; the per-aspect tables the row replaced, and the
  module that held the specifications' one, are named nowhere under
  ``src/``, ``tests/``, ``benchmarks/`` (the frozen ledger aside) or
  ``examples/``;
  and no ``tag == "..."`` / ``kind == "..."`` dispatch on a protocol
  name, nor a ``"mutex"`` ↔ ``"me"`` translation, is spelled under
  ``src/repro/net/``, ``spec/``, ``analysis/``, ``engine/``, in
  ``core/protocols.py`` or ``cli.py``;
* the window protocol stays one runtime: nothing under ``src/repro``
  forks or opens a pipe, the deleted lock-step engine is named nowhere
  under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``, the
  cluster worker does not name the asyncio engine, and
  ``engine/backends/sharded.py`` is a registration — it defines no
  function or class of its own;
* there is one event loop: under ``src/repro/`` only the scheduler
  (``sim/scheduler.py``) and its wall-clock-paced subclass
  (``net/clock.py``) pop the event heap, and the virtual-time second
  spelling of ``run_until``, the actor per process, its router and their
  handoff counters are named nowhere under ``src/``;
* a shard's result stays columns end to end: nothing under
  ``src/repro/net/`` or in ``src/repro/sim/sharded.py`` materializes a
  trace (``list(trace)``, ``trace.events``), constructs a ``TraceEvent``
  or re-appends one event by event (``trace.extend(``), and no record
  under ``src/`` is keyed ``"events"`` — the object round trip the
  columnar payload replaced cannot creep back in unnoticed;
* a link's round stays one SHIP frame: nothing under ``src/`` calls the
  one-ship spellings of the ship codec (``wire.py`` keeps them, defined
  over the batch codec, for the frozen ledger probe and the wire tests),
  so a frame per cross-shard message cannot come back through them.

Usage::

    PYTHONPATH=src python benchmarks/check_registry_integrity.py
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pkgutil
import re
import subprocess
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

import repro.cli
import repro.engine.backends
import repro.net.transport
from repro.analysis.runner import _JUDGES
from repro.core.protocols import PROTOCOLS
from repro.engine.base import AXES
from repro.engine.registry import BUILTIN as BUILTIN_ENGINES
from repro.engine.registry import backends, engine_names
from repro.engine.spec import TrialSpec
from repro.errors import SpecError
from repro.net.transport import resolve_transport, transport_names
from repro.net.transport.base import BUILTIN as BUILTIN_TRANSPORTS
from repro.sim.runtime import Simulator

EXPECTED_ENGINES = ("async", "cluster", "serial", "sharded")
EXPECTED_TRANSPORTS = ("loopback", "tcp", "udp")

#: Valid capability tokens: the axis vocabulary plus transport markers.
_CAPABILITY = re.compile(
    r"^(obs|"
    + "|".join(re.escape(capability) for capability, _, _ in AXES)
    + r"|transport:\w+)$"
)

_DISPATCH = re.compile(r"^\s*(el)?if\s+.*\bengine\s*==")
_CLUSTER_IMPORT = re.compile(r"^\s*from\s+repro\.net\.cluster\s+import\b")
# The deleted keyword adapters, spelled in halves so a repo-wide grep for
# either name finds nothing — not even this guard.
_LEGACY_ADAPTER = re.compile(
    r".*\b(" + "execute" + "_trial|_base" + r"_spec)\b")

# The send path's retired cache and the switches that would fork it
# (same halves spelling): a fused/unfused flag, or a test on the engine's
# own type (``type(self).__name__`` in a repr is fine).
_SEND_FORK = re.compile(
    r".*(_chan" + r"_fast\b|\b_fused\b|\btype\(self\)\s+(is|==)"
    r"|\bisinstance\(self\b)")

# A second spelling of a protocol starts as a branch on its name (event
# kinds are compared as ``EventKind.X`` constants) or as a translation
# between its command name and its kind.
_SPEC_DISPATCH = re.compile(
    r".*(\b(tag|kind)\s*(==|!=)\s*[\"']"
    r"|[\"']mutex[\"']\s+if\b.*[\"']me[\"']|[\"']me[\"']\s+if\b.*[\"']mutex[\"'])")
_MONITOR_CLASSES = {"LiveTrace", "SpecMonitor"}
# The per-aspect protocol tables the one table replaced (halves spelling).
_OLD_TABLES = re.compile(
    r".*\b(BUIL" + r"DERS|SP" + r"ECS|TRI" + r"ALS|_TRIAL" + r"_TITLES"
    r"|(PIF|IDL|MUTEX)_HOR" + r"IZON|spec\.ta" + r"ble)\b")

# The window protocol's deleted second implementation and what it was
# made of (halves spelling again: this guard scans its own directory).
_FORK_FABRIC = re.compile(
    r".*(\bmulti" + r"processing\b|\bos\.fo" + r"rk\b|\bPi" + r"pe\()")
_LOCKSTEP_ENGINE = re.compile(
    r".*\b(Sharded" + r"Simulator|Sharded" + r"RunResult|_worker" + r"_loop"
    r"|_worker" + r"_main)\b")
_ASYNC_WORKER = re.compile(r".*\bAsync" + r"Simulator\b")

# The event loop's deleted second spelling and the actor layer it fed
# (halves spelling), and the call only a scheduler loop makes.
_ACTOR_LAYER = re.compile(
    r".*(\bVirtual" + r"Clock\b|\bProcess" + r"Actor\b|\bRoute" + r"Fn\b"
    r"|handoffs" + r"_|\bdef _ro" + r"ute\b)")
_HEAP_POP = re.compile(r".*\bheap" + r"pop\b")
_EVENT_LOOPS = ("src/repro/sim/scheduler.py:", "src/repro/net/clock.py:")

# The result path's deleted object round trip: a shard trace materialized
# to ship it, rebuilt on arrival or re-appended event by event, and the
# old payload key (as a dict key or a subscript; a ``__slots__`` name is
# not a record key).
_TRACE_OBJECTS = re.compile(
    r".*(\blist\((\w+\.)*trace\)|\btrace\.events\b|\bTraceEvent\("
    r"|\btrace\.extend\()")
_EVENTS_KEY = re.compile(
    r""".*((\[|\.get\()["']events["']|["']events["']\s*:)""")

# The per-message wire: a call (not the definition) of either one-ship
# codec spelling.
_ONE_SHIP_CALL = re.compile(r"(?!\s*def ).*\b(en|de)code_ship\(")

_SRC = Path(__file__).resolve().parent.parent / "src"


def check_registries() -> list[str]:
    problems: list[str] = []
    names = engine_names()
    if names != EXPECTED_ENGINES:
        problems.append(f"engine registry: {names} != {EXPECTED_ENGINES}")
    if len(set(names)) != len(names):
        problems.append(f"engine names overlap: {names}")
    for name, backend in backends().items():
        if name != backend.name:
            problems.append(
                f"registry key {name!r} != backend name {backend.name!r}")
        caps = backend.capabilities()
        if not isinstance(caps, frozenset):
            problems.append(f"{backend.name}: capabilities() not a frozenset")
            caps = frozenset(caps)
        if "obs" not in caps:
            problems.append(f"{backend.name}: missing the 'obs' capability")
        for cap in sorted(caps):
            if not _CAPABILITY.match(cap):
                problems.append(f"{backend.name}: unknown capability {cap!r}")

    tnames = transport_names()
    if tnames != EXPECTED_TRANSPORTS:
        problems.append(f"transport registry: {tnames} != {EXPECTED_TRANSPORTS}")
    for tname in tnames:
        kind = resolve_transport(tname)
        if kind.deterministic and kind.paced:
            problems.append(f"transport {tname}: deterministic yet paced")
        if kind.fabric_factory is not None and not kind.frame_boundary:
            problems.append(f"transport {tname}: socket fabric without frames")
    return problems


def _transport_home(name: str) -> str | None:
    try:
        return resolve_transport(name).channel_factory.__module__
    except SpecError:
        return None


def _engines_registered_by(module: str) -> set[str]:
    """The engine registry of a fresh interpreter that imported only
    ``module`` — a backend class may be registered under more than one
    name, so the class's home does not say which module registers what."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import json, {module}\n"
         "from repro.engine.registry import _BACKENDS\n"
         "print(json.dumps(sorted(_BACKENDS)))"],
        check=True, capture_output=True, text=True, timeout=60)
    return set(json.loads(done.stdout))


def check_builtin_tables() -> list[str]:
    """Each table entry's module registers that name; importing every
    module of the built-in packages registers nothing else."""
    problems: list[str] = []
    for package in (repro.engine.backends, repro.net.transport):
        for info in pkgutil.iter_modules(package.__path__):
            import_module(f"{package.__name__}.{info.name}")
    for name in sorted(backends().keys() - BUILTIN_ENGINES.keys()):
        problems.append(f"engine {name!r}: registered by a built-in "
                        f"module, missing from the table")
    engines = {}
    for name, module in BUILTIN_ENGINES.items():
        registered = _engines_registered_by(module)
        engines[name] = module if name in registered else None
        for extra in sorted(registered - BUILTIN_ENGINES.keys()):
            problems.append(f"{module} registers {extra!r}, which the "
                            f"engine table lacks")
    transports = {name: _transport_home(name) for name in transport_names()}
    for label, table, homes in (("engine", BUILTIN_ENGINES, engines),
                                ("transport", BUILTIN_TRANSPORTS, transports)):
        for name in sorted(table.keys() | homes.keys()):
            if table.get(name) != homes.get(name):
                problems.append(
                    f"{label} {name!r}: table says {table.get(name)}, "
                    f"registered by {homes.get(name)}")
    return problems


def _grep(where: str, pattern: re.Pattern[str], what: str,
          exempt: str | None = None) -> list[str]:
    """Lines matching ``pattern`` in one file, or every file of a tree
    (``where`` is relative to ``src/``); ``exempt`` names a file or a
    directory to skip."""
    root = (_SRC / where).resolve()
    return [
        f"{path.relative_to(_SRC.parent)}:{lineno}: {what}: {line.strip()}"
        for path in ([root] if root.is_file() else sorted(root.rglob("*.py")))
        if exempt not in path.relative_to(_SRC.parent).parts
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.match(line)
    ]


def check_source_guards() -> list[str]:
    problems: list[str] = []
    if "build" in {f.name for f in dataclasses.fields(TrialSpec)}:
        problems.append("TrialSpec has a 'build' field again; 'protocol' "
                        "is the one protocol description")
    return (
        problems
        + _grep("repro", _LEGACY_ADAPTER, "deleted keyword adapter")
        + _grep("repro/analysis", _DISPATCH, "per-engine dispatch chain")
        + _grep("repro/cli.py", _DISPATCH, "per-engine dispatch chain")
        # The cluster backend is the one module entitled to the runtime.
        + _grep("repro/engine", _CLUSTER_IMPORT, "imports the cluster runtime",
                exempt="cluster.py")
        + _grep("repro/core", _CLUSTER_IMPORT, "imports the cluster runtime")
        + _grep("repro/sim", _SEND_FORK, "forks the send path")
    )


def check_one_specification() -> list[str]:
    problems: list[str] = []
    monitors = ast.parse((_SRC / "repro/net/monitors.py").read_text())
    extra = sorted(
        {node.name for node in ast.walk(monitors)
         if isinstance(node, ast.ClassDef)} - _MONITOR_CLASSES)
    if extra:
        problems.append(
            f"src/repro/net/monitors.py defines {extra}: specification "
            f"clauses live in repro.spec, monitors.py holds only "
            f"{sorted(_MONITOR_CLASSES)}")
    if find_spec("repro.spec.temporal") is not None:
        problems.append("repro.spec.temporal is importable again")
    return problems


def check_one_protocol_table() -> list[str]:
    problems: list[str] = []
    for kind, row in PROTOCOLS.items():
        sim = Simulator(2, row.build())
        if not all(sim.host(pid).has_layer(kind) for pid in sim.pids):
            problems.append(f"protocol {kind!r}: its builder registers no "
                            f"layer tagged {kind!r}")
        tag = row.automaton(sim.topology).tag
        if tag != kind:
            problems.append(
                f"protocol {kind!r}: its automaton is tagged {tag!r}")
        if row.command not in repro.cli._SUBCOMMANDS:
            problems.append(f"protocol {kind!r}: the CLI has no "
                            f"{row.command!r} subcommand")
    if _JUDGES.keys() != PROTOCOLS.keys():
        problems.append(f"runner judges {sorted(_JUDGES)} != protocol "
                        f"table {sorted(PROTOCOLS)}")
    if find_spec("repro.spec." + "table") is not None:
        problems.append("the specifications' own table is importable again")
    for tree in ("repro", "../tests", "../benchmarks", "../examples"):
        problems += _grep(tree, _OLD_TABLES, "names a deleted protocol table",
                          exempt="ledger")
    for where in ("repro/net", "repro/spec", "repro/analysis", "repro/engine",
                  "repro/core/protocols.py", "repro/cli.py"):
        problems += _grep(where, _SPEC_DISPATCH,
                          "dispatch on a protocol name")
    return problems


def check_one_window_runtime() -> list[str]:
    problems = _grep("repro", _FORK_FABRIC, "forks or pipes")
    for tree in ("repro", "../tests", "../benchmarks", "../examples"):
        problems += _grep(tree, _LOCKSTEP_ENGINE,
                          "names the deleted lock-step engine")
    problems += _grep("repro/net/cluster_worker.py", _ASYNC_WORKER,
                      "the worker hosts a plain Simulator")
    sharded = ast.parse(
        (_SRC / "repro/engine/backends/sharded.py").read_text())
    bodies = sorted(
        node.name for node in ast.walk(sharded)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)))
    if bodies:
        problems.append(
            f"src/repro/engine/backends/sharded.py defines {bodies}: "
            f"'sharded' is a second registration of the cluster backend, "
            f"not a second backend")
    return problems


def check_one_event_loop() -> list[str]:
    return _grep("repro", _ACTOR_LAYER, "names the deleted actor layer") + [
        problem
        for problem in _grep("repro", _HEAP_POP, "a second event loop")
        if not problem.startswith(_EVENT_LOOPS)
    ]


def check_columnar_result_path() -> list[str]:
    problems: list[str] = []
    for where in ("repro/net", "repro/sim/sharded.py"):
        problems += _grep(where, _TRACE_OBJECTS,
                          "builds event objects on the result path")
    return problems + _grep("repro", _EVENTS_KEY,
                            "a record keyed by an event list")


def check_one_ship_frame_per_link_round() -> list[str]:
    return _grep("repro", _ONE_SHIP_CALL,
                 "ships one message per frame (use encode_ships / "
                 "decode_ships on the link's round)")


def main() -> int:
    problems = (check_registries() + check_builtin_tables()
                + check_source_guards() + check_one_specification()
                + check_one_protocol_table()
                + check_one_window_runtime() + check_one_event_loop()
                + check_columnar_result_path()
                + check_one_ship_frame_per_link_round())
    for problem in problems:
        print("FAILED", problem)
    print(f"registries: engines={engine_names()} "
          f"transports={transport_names()}")
    print("registry-integrity:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
