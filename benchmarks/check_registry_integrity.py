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
* the shapes the refactors left behind hold: :class:`~repro.engine.TrialSpec`
  has no ``build`` field (``protocol`` is the one protocol description);
  ``src/repro/net/monitors.py`` defines no class besides the
  ``SpecMonitor`` per-row adapter (a specification is one automaton, and
  the runner's pass over the finished trace is a trial's one verdict);
  every row of :data:`repro.core.protocols.PROTOCOLS` builds a layer
  under its ``kind``, its automaton carries that tag, the runner's judge
  map has exactly the table's keys and the CLI a subcommand per row;
  ``engine/backends/sharded.py`` is a registration of the cluster
  backend, defining no function or class of its own;
* every :class:`~repro.sim.process.Layer` under ``repro.core``,
  ``repro.baselines`` and ``repro.applications`` declares
  ``guards_read_clock`` exactly when a guard of its ``actions()`` reads
  ``.now`` (following ``self.<name>`` into the class's methods and
  properties): an undeclared clock-reading guard would let its process
  fall dormant while the guard's value changes;
* every such layer's :attr:`~repro.sim.process.Layer.STATE` names each
  ``self.<name>`` its ``scramble`` assigns, directly or by subscript: a
  variable the adversary writes is one a snapshot must carry, or a
  restored configuration keeps the overwritten value;
* every backticked dotted ``repro.…`` name in ``docs/*.md``,
  ``README.md`` and the verify skill resolves by import plus ``getattr``,
  every backticked ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
  ``docs/`` path there exists, so does every ``check_*.py`` /
  ``test_*.py`` file it names, and every ``repro X`` / ``python -m repro
  X`` command line there names a subcommand of ``repro.cli``;
* no line matches a row of :data:`GUARDS` — one table, one loop — and
  no module a row deleted is importable.  Each row is a pattern, the
  trees it must not match in and what it means: a per-engine dispatch
  chain (the registry is the only dispatcher), a second spelling of a
  protocol, a fork or pipe, a second event loop, an event object on the
  columnar result path, a frame per cross-shard message, or the name of
  something a refactor deleted — the keyword adapters, the per-aspect
  protocol tables, the lock-step engine, the actor layer, the crash
  repair, the bad-factor spelling of mutual exclusion, the experiments'
  pytest wrappers whose assertions ``repro claims`` now carries, the
  per-engine run-outcome types and payload-format expansions, the
  monitor copies of a trial's verdict, the best-effort window-sync
  mode, a layer's own snapshot/restore pair, the configuration's copies
  and the per-engine CI jobs — or a PIF send that builds its
  message before the link claimed a slot, an engine that picks its
  own specification monitor, a call that drives the cyclic collector
  (a finished run is freed by reference counting: ``close()`` cuts its
  cycles), or a part of the trace store beyond its columns and kind
  index (the kind-interning table, the process index, the monotone flag,
  the vendored pre-columnar store, the column-wise bulk append, the
  per-row payload-dict column, a per-row payload tuple), or any ``hashlib`` import
  under ``repro`` (it loads OpenSSL's libcrypto for a ``blake2b`` the
  interpreter builds in: ``repro.sim.determinism.blake2b``), or an
  ``asyncio`` import in the window-sync runtime (one selectors loop per
  process; asyncio loads ``ssl``).

Usage::

    PYTHONPATH=src python benchmarks/check_registry_integrity.py
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import pkgutil
import re
import subprocess
import sys
import textwrap
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path
from typing import NamedTuple

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
from repro.sim.process import Layer
from repro.sim.runtime import Simulator

EXPECTED_ENGINES = ("async", "cluster", "serial", "sharded")
EXPECTED_TRANSPORTS = ("loopback", "tcp", "udp")

#: Valid capability tokens: the axis vocabulary plus transport markers.
_CAPABILITY = re.compile(
    r"^(obs|"
    + "|".join(re.escape(capability) for capability, _, _ in AXES)
    + r"|transport:\w+)$"
)

_MONITOR_CLASSES = {"SpecMonitor"}

_SRC = Path(__file__).resolve().parent.parent / "src"


class Guard(NamedTuple):
    """No ``*.py`` line under ``trees`` (paths relative to ``src/``, a
    directory or a file) may match ``pattern``, except under ``exempt``.
    A deleted name is spelled in halves, so a repo-wide grep for it finds
    nothing — not even this table."""

    what: str
    pattern: re.Pattern[str]
    trees: tuple[str, ...] = ("repro",)
    exempt: tuple[str, ...] = ()
    #: The module the deletion removed: it must stay unimportable.
    module: str | None = None


_EVERYWHERE = ("repro", "../tests", "../benchmarks", "../examples")
_LEDGER = ("../benchmarks/ledger",)

GUARDS: tuple[Guard, ...] = (
    Guard("per-engine dispatch chain",
          re.compile(r"^\s*(el)?if\s+.*\bengine\s*=="),
          ("repro/analysis", "repro/cli.py")),
    # The cluster backend is the one module entitled to the runtime (it
    # dragged asyncio into every serial trial).
    Guard("imports the cluster runtime",
          re.compile(r"^\s*from\s+repro\.net\.cluster\s+import\b"),
          ("repro/engine", "repro/core"),
          ("repro/engine/backends/cluster.py",)),
    Guard("deleted keyword adapter",
          re.compile(r".*\b(" + "execute" + "_trial|_base" + r"_spec)\b")),
    # The send path's retired cache and the switches that would fork it:
    # a fused/unfused flag, or a test on the engine's own type
    # (``type(self).__name__`` in a repr is fine).
    Guard("forks the send path",
          re.compile(r".*(_chan" + r"_fast\b|\b_fused\b|\btype\(self\)\s+(is|==)"
                     r"|\bisinstance\(self\b)"),
          ("repro/sim",)),
    Guard("names a deleted protocol table",
          re.compile(r".*\b(BUIL" + r"DERS|SP" + r"ECS|TRI" + r"ALS|_TRIAL"
                     + r"_TITLES|(PIF|IDL|MUTEX)_HOR" + r"IZON|spec\.ta"
                     + r"ble)\b"),
          _EVERYWHERE, _LEDGER, module="repro.spec." + "table"),
    # A second spelling of a protocol starts as a branch on its name
    # (event kinds are compared as ``EventKind.X`` constants) or as a
    # translation between its command name and its kind.
    Guard("dispatch on a protocol name",
          re.compile(r".*(\b(tag|kind)\s*(==|!=)\s*[\"']"
                     r"|[\"']mutex[\"']\s+if\b.*[\"']me[\"']"
                     r"|[\"']me[\"']\s+if\b.*[\"']mutex[\"'])"),
          ("repro/net", "repro/spec", "repro/analysis", "repro/engine",
           "repro/core/protocols.py", "repro/cli.py")),
    Guard("names the deleted temporal-logic module",
          re.compile(r".*\bspec\.temp" + r"oral\b"),
          _EVERYWHERE, _LEDGER, module="repro.spec." + "temporal"),
    # The window protocol's deleted second implementation and what it
    # was made of.
    Guard("forks or pipes",
          re.compile(r".*(\bmulti" + r"processing\b|\bos\.fo" + r"rk\b"
                     r"|\bPi" + r"pe\()")),
    Guard("names the deleted lock-step engine",
          re.compile(r".*\b(Sharded" + r"Simulator|Sharded" + r"RunResult"
                     r"|_worker" + r"_loop|_worker" + r"_main)\b"),
          _EVERYWHERE),
    Guard("the worker hosts a plain Simulator",
          re.compile(r".*\bAsync" + r"Simulator\b"),
          ("repro/net/cluster_worker.py",)),
    # The event loop's deleted second spelling and the actor layer it
    # fed; and the call only a scheduler loop makes.
    Guard("names the deleted actor layer",
          re.compile(r".*(\bVirtual" + r"Clock\b|\bProcess" + r"Actor\b"
                     r"|\bRoute" + r"Fn\b|handoffs" + r"_|\bdef _ro"
                     + r"ute\b)")),
    Guard("a second event loop", re.compile(r".*\bheap" + r"pop\b"),
          exempt=("repro/sim/scheduler.py", "repro/net/clock.py")),
    # The result path's deleted object round trip: a shard trace
    # materialized to ship it, rebuilt on arrival or re-appended event by
    # event, and the old payload key (a ``__slots__`` name is not a
    # record key).
    Guard("builds event objects on the result path",
          re.compile(r".*(\blist\((\w+\.)*trace\)|\btrace\.events\b"
                     r"|\bTraceEvent\(|\btrace\.extend\()"),
          ("repro/net", "repro/sim/sharded.py")),
    Guard("a record keyed by an event list",
          re.compile(r""".*((\[|\.get\()["']events["']|["']events["']\s*:)""")),
    # ``wire.py`` keeps the one-ship codec, defined over the batch codec,
    # for the frozen ledger probe and the wire tests; nothing calls it.
    Guard("ships one message per frame (use encode_ships / decode_ships "
          "on the link's round)",
          re.compile(r"(?!\s*def ).*\b(en|de)code_ship\(")),
    # Theorem 1's construction exports a ``replay`` of its own.
    Guard("names the deleted crash repair (recovery is a re-run)",
          re.compile(r".*(\bBARRIER_SKIP" + r"_COUNT\b|\b_rewire" + r"_peer\b"
                     r"|[\"'](" + "ship" + "-log|peer" + "-update|peer"
                     + "-ok|rep" + r"lay)[\"'])"),
          exempt=("repro/impossibility",)),
    Guard("names the deleted bad-factor spelling of mutual exclusion "
          "(MutexAutomaton judges Theorem 1's replay)",
          re.compile(r".*\b(safety" + r"_distributed|Bad" + r"Factor"
                     r"|SafetyDistributed" + r"Spec|mutual_exclusion" + r"_spec"
                     r"|concurrent_cs" + r"_count)\b"),
          _EVERYWHERE, _LEDGER, module="repro.spec.safety" + "_distributed"),
    Guard("names the deleted experiment wrappers (`repro claims` checks "
          "their claims)",
          re.compile(r".*(\bbench" + r"_(e\d|topology)|pytest[-_]bench"
                     + r"mark\b|\bbenchmark\.ped" + r"antic\b)"),
          _EVERYWHERE, _LEDGER),
    # A lost send builds nothing: PIF claims the slot from the tag, then
    # builds the message (`if link.claim(tag): link.put(msg)`).
    Guard("builds a PIF message before the link claimed its slot",
          re.compile(r".*\bhost\.se" + r"nd\("), ("repro/core/pif.py",)),
    # One run outcome (every engine returns EngineRun) and one payload
    # spelling (RequestDriver takes ``payload_fmt`` itself).
    Guard("names a deleted run-outcome type or payload-format expansion",
          re.compile(r".*\b(NetRun" + r"Result|ClusterRun" + r"Result"
                     r"|normalized" + r"_driver|payload_from" + r"_fmt)\b"),
          _EVERYWHERE),
    Guard("a backend writes its own prepare (EngineBackend.prepare is "
          "the one; a backend supplies engine())",
          re.compile(r"^\s*def pre" + r"pare\("), ("repro/engine/backends",)),
    # One verdict per trial: run_trial's pass judges every engine; the
    # live and replayed monitor copies of it, and what fed them, went.
    Guard("names a deleted monitor copy of the verdict (run_trial's pass "
          "is the one)",
          re.compile(r".*\b(Live" + r"Trace|monitor" + r"_reports|monitors"
                     + r"_ok|_make" + r"_trace|collect" + r"_monitors)\b"),
          _EVERYWHERE, _LEDGER),
    # One window-sync protocol: the barrier-free mode, its round size and
    # its mode table went (async tcp/udp are the nondeterministic runs).
    Guard("names the deleted best-effort sync mode (windows are the "
          "one protocol)",
          re.compile(r".*(free" + r"run|FREE" + r"RUN_WINDOW|SYNC" + r"_MODES)")),
    Guard("picks a specification monitor outside repro.net.monitors "
          "(no engine judges its own run)",
          re.compile(r".*\bdefault_monitors\b"),
          exempt=("repro/net/monitors.py",)),
    # A finished trial frees itself: an engine's close() cuts the cycles
    # its run built, and the collector is not something to tune.
    Guard("drives the cyclic collector (a run is freed by reference "
          "counting; cut a new cycle in close())",
          re.compile(r".*\bgc\.(col" + r"lect|dis" + r"able|fre" + r"eze)\(")),
    # One event store: coded columns (a row is a shape code into the
    # shape table and one code per payload position into the object
    # table) and a kind index.  The kind-interning table, the process
    # index, the monotone flag, the vendored pre-columnar store, the
    # per-row kind and keys list columns, their shape intern table and
    # the ship-time encode of a shard's columns went.
    Guard("names a deleted trace-store part (a trace is coded columns — "
          "time, shape, process, one per payload position — their tables "
          "and a kind index)",
          re.compile(r".*\b(_KIND" + r"_IDS|_intern" + r"_kind|_proc" + r"_rows"
                     r"|_mono" + r"tone|for" + r"_process|Legacy" + r"Trace"
                     r"|Legacy" + r"Simulator|_sche" + r"mas|code" + r"_table"
                     r"|coded" + r"_columns)\b"),
          _EVERYWHERE),
    Guard("names a deleted per-row trace list column (a row's kind and "
          "payload keys are its shape code in Trace._shapes)",
          re.compile(r".*\bself\.(_ki" + r"nds|_ke" + r"ys)\b"),
          ("repro/sim/trace.py",)),
    # A row's payload is a shared keys tuple and one entry per position
    # column: the per-row payload-dict column went (a reader rebuilds the
    # dict), and so did the per-row values tuple.
    Guard("names the deleted per-row payload-dict column (a payload is "
          "a shape's keys + one code in each of Trace._fields)",
          re.compile(r".*\b_da" + r"ta\b"),
          _EVERYWHERE),
    Guard("keeps a per-row payload tuple (a payload's entries go to "
          "Trace._fields, one column per position)",
          re.compile(r".*(\b_val" + r"ues\b|\btuple\(\w+\.val" + r"ues\(\)\))"),
          ("repro/sim/trace.py",)),
    # The shard merge builds the merged trace a column at a time from the
    # shards' columns, consuming them; the bulk appends it replaced went.
    Guard("names a deleted bulk trace append (the merge builds its trace: "
          "Trace.merged)",
          re.compile(r".*\bappend" + r"_(columns|rows)\b"),
          _EVERYWHERE),
    # A channel draws from its sender's stream (semantics epoch 2): the
    # per-channel streams and their accessor went.
    Guard("names the deleted per-channel random stream (a link draws "
          "from Simulator.send_rng(src))",
          re.compile(r".*(\bchan" + r"_rng\(|\b_chan" + r"_rngs\b)"),
          _EVERYWHERE),
    # Manual mode has one transition relation (Configuration.key,
    # successors, step); Theorem 1's replay runs on it, and the abstract
    # configurations it used to collect went.
    Guard("names the deleted abstract-configuration API (a configuration's "
          "process part is Configuration.states; replay returns its peak)",
          re.compile(r".*\b(Abstract" + r"Configuration|capture" + r"_abstract"
                     r"|state" + r"_projection|sequence" + r"_projection"
                     r"|capture" + r"_every)\b"),
          _EVERYWHERE),
    # A layer names its variables in STATE and Layer writes the one
    # snapshot/restore pair; a configuration holds those frozen tuples as
    # they are, so it neither copies nor re-freezes them.
    # One engine gate replays every claims trial on every engine: the
    # per-engine CI jobs it replaced are gone, and so are their names.
    Guard("names a deleted per-engine CI job (the engine-equivalence gate "
          "replays every engine)",
          re.compile(r".*\b(cluster|async|shard)-equi" + r"valence\b"),
          _EVERYWHERE),
    Guard("a layer's own snapshot/restore pair, or a configuration that "
          "copies or re-freezes its states (Layer.STATE is the one spelling)",
          re.compile(r"^\s+def (snap" + r"shot|rest" + r"ore)\(|.*\b(_fre"
                     + r"eze\b|copy\.deep" + r"copy\b)"),
          ("repro/core", "repro/baselines", "repro/applications",
           "repro/sim/configuration.py")),
    # blake2b comes from the built-in _blake2 (repro.sim.determinism).
    Guard("loads OpenSSL for a hash the interpreter builds in",
          re.compile(r"^\s*(import|from)\s+hashlib\b")),
    # The coordinator and every worker run one selectors loop; asyncio
    # (and the ssl it loads) is the async engine's and its transports'.
    Guard("the window-sync runtime runs on asyncio",
          re.compile(r"^\s*(import|from)\s+asyncio\b"),
          ("repro/net/coordinator.py", "repro/net/cluster_worker.py",
           "repro/net/registry.py", "repro/net/grant.py", "repro/net/cluster.py",
           "repro/chaos/backoff.py")),
)


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


def check_structure() -> list[str]:
    problems: list[str] = []
    if "build" in {f.name for f in dataclasses.fields(TrialSpec)}:
        problems.append("TrialSpec has a 'build' field again; 'protocol' "
                        "is the one protocol description")
    monitors = ast.parse((_SRC / "repro/net/monitors.py").read_text())
    extra = sorted(
        {node.name for node in ast.walk(monitors)
         if isinstance(node, ast.ClassDef)} - _MONITOR_CLASSES)
    if extra:
        problems.append(
            f"src/repro/net/monitors.py defines {extra}: specification "
            f"clauses live in repro.spec, monitors.py holds only "
            f"{sorted(_MONITOR_CLASSES)}")
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


#: The packages whose layers are held to their ``guards_read_clock``.
_LAYER_PACKAGES = ("repro.core", "repro.baselines", "repro.applications")


def _layer_classes() -> list[type]:
    """Every :class:`Layer` subclass defined under :data:`_LAYER_PACKAGES`."""
    for package in _LAYER_PACKAGES:
        path = import_module(package).__path__
        for info in pkgutil.walk_packages(path, package + "."):
            import_module(info.name)
    found: list[type] = []
    stack: list[type] = [Layer]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return [cls for cls in found
            if cls.__module__.startswith(_LAYER_PACKAGES)]


def _source_tree(function) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


def _guards_read_clock(cls: type) -> bool:
    """Whether a guard of an ``Action(...)`` in ``cls.actions()`` reads
    ``.now``, following ``self.<name>`` into the class's methods and
    properties."""
    pending: list[ast.AST] = []
    for node in ast.walk(_source_tree(cls.actions)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Action":
            pending += node.args[1:2]
            pending += [kw.value for kw in node.keywords if kw.arg == "guard"]
    followed: set[str] = set()
    while pending:
        for node in ast.walk(pending.pop()):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "now":
                return True
            if (isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in followed):
                followed.add(node.attr)
                member = inspect.getattr_static(cls, node.attr, None)
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    pending.append(_source_tree(member))
    return False


def check_clock_guards() -> list[str]:
    problems: list[str] = []
    for cls in _layer_classes():
        name = f"{cls.__module__}.{cls.__qualname__}"
        reads = _guards_read_clock(cls)
        if reads and not cls.guards_read_clock:
            problems.append(
                f"{name}: a guard reads .now, but the layer does not declare "
                f"guards_read_clock — its process would fall dormant while "
                f"the guard's value changes with time")
        if cls.__dict__.get("guards_read_clock") and not reads:
            problems.append(
                f"{name}: declares guards_read_clock, but no guard of its "
                f"actions() reads .now")
    return problems


def _scramble_writes(cls: type) -> set[str]:
    """Every ``self.<name>`` that ``cls.scramble`` assigns, directly or by
    subscript."""
    names: set[str] = set()
    for node in ast.walk(_source_tree(cls.scramble)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        names.update(
            sub.attr for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self")
    return names


def check_layer_state() -> list[str]:
    problems: list[str] = []
    for cls in _layer_classes():
        missing = sorted(_scramble_writes(cls) - set(cls.STATE))
        if missing:
            problems.append(
                f"{cls.__module__}.{cls.__qualname__}: scramble writes "
                f"{missing}, which STATE lacks — a snapshot would not carry "
                f"them, and a restore would keep the overwritten values")
    return problems


#: A backticked dotted name under ``repro``, optionally called: ``repro.x.f()``.
_DOC_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path under the
    longest importable module prefix of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


#: A backticked path under a top-level tree, up to its first space or
#: colon (so ``path --flag``, ``path:line`` and ``path::test`` name a file).
_DOC_PATH = re.compile(r"`((?:src|tests|benchmarks|examples|docs)/[^`\s:]*)")
#: A gate or test file, backticked or not, named with or without its
#: directory.
_DOC_FILE = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*(?:check|test)_\w+\.py)\b")
_TREES = ("src", "tests", "benchmarks", "examples", "docs")
#: A command line: ``repro X`` after a space, a backtick, ``$``, ``(`` or
#: at the start of a line, ``python -m repro X`` among them.
_DOC_COMMAND = re.compile(r"(?:^|[\s`$(])repro ([a-z][\w-]*)")


def check_doc_names() -> list[str]:
    problems: list[str] = []
    root = _SRC.parent
    files = {p.name for tree in _TREES for p in (root / tree).rglob("*.py")}
    docs = (sorted(root.glob("docs/*.md")) + [root / "README.md"]
            + [root / ".claude/skills/verify/SKILL.md"])
    for path in docs:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stale = [name for name in _DOC_NAME.findall(line)
                     if not _resolves(name)]
            stale += [ref for ref in _DOC_PATH.findall(line)
                      if not any(root.glob(ref.rstrip("/")))]
            stale += [ref for ref in _DOC_FILE.findall(line)
                      if not ((root / ref).is_file() if "/" in ref
                              else ref in files)]
            stale += [f"repro {command}"
                      for command in _DOC_COMMAND.findall(line)
                      if command not in repro.cli._SUBCOMMANDS]
            problems.extend(
                f"{path.relative_to(root)}:{lineno}: `{name}` does not "
                f"resolve (renamed or deleted?)" for name in dict.fromkeys(stale))
    return problems


def check_guards() -> list[str]:
    problems: list[str] = []
    for guard in GUARDS:
        if guard.module is not None and find_spec(guard.module) is not None:
            problems.append(f"{guard.module} is importable again: {guard.what}")
        skip = [(_SRC / exempt).resolve() for exempt in guard.exempt]
        for tree in guard.trees:
            root = (_SRC / tree).resolve()
            for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
                if any(path == s or s in path.parents for s in skip):
                    continue
                for lineno, line in enumerate(
                        path.read_text().splitlines(), start=1):
                    if guard.pattern.match(line):
                        problems.append(
                            f"{path.relative_to(_SRC.parent)}:{lineno}: "
                            f"{guard.what}: {line.strip()}")
    return problems


def main() -> int:
    problems = (check_registries() + check_builtin_tables()
                + check_structure() + check_clock_guards()
                + check_layer_state() + check_doc_names() + check_guards())
    for problem in problems:
        print("FAILED", problem)
    print(f"registries: engines={engine_names()} "
          f"transports={transport_names()}")
    print("registry-integrity:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
