"""Cold start: a process imports only what its trial uses.

Checked by module set, not by stopwatch: each case runs a snippet in a
fresh interpreter and reads back ``sys.modules``.  A name in a ``HEAVY``
list stands for itself and everything under it.

Only the snippet is judged, not the interpreter it runs in: ``site`` may
run ``.pth`` hooks that import, say, ``tempfile`` before any snippet
line.  So the child first unloads every judged module it already holds —
whatever start-up loaded on top of a bare ``python -c pass`` — and a
judged name still loaded at the end is one the snippet imported itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim import determinism

_SRC = str(Path(repro.__file__).resolve().parents[1])

_UNLOAD = """\
import sys
for _name in [m for m in sys.modules
              if any(m == j or m.startswith(j + ".") for j in {judged!r})]:
    del sys.modules[_name]
"""


def _loaded_after(snippet: str, judged: tuple[str, ...] = ()) -> set[str]:
    """Run ``snippet`` in a fresh interpreter; the modules it left loaded,
    with the ``judged`` ones counted only if the snippet imported them."""
    code = (_UNLOAD.format(judged=judged) + snippet
            + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": _SRC},
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def _present(loaded: set[str], names: tuple[str, ...]) -> list[str]:
    return sorted(
        module for module in loaded
        if any(module == name or module.startswith(name + ".") for name in names)
    )


def test_import_repro_loads_only_leaves():
    loaded = _loaded_after("import repro")
    ours = {m for m in loaded if m == "repro" or m.startswith("repro.")}
    assert ours <= {"repro", "repro._lazy", "repro.errors", "repro.types"}
    # ...and from that cold state the whole surface is one attribute away.
    loaded = _loaded_after(
        "import repro\n"
        "assert repro.sim.Simulator.__module__ == 'repro.sim.runtime'\n"
        "assert repro.net.ClusterSimulator.__module__ == 'repro.net.cluster'\n"
        "assert repro.PifLayer is repro.core.pif.PifLayer\n"
    )
    assert "repro.net.cluster" in loaded


_SERIAL_HEAVY = (
    "asyncio", "ssl", "multiprocessing", "repro.net.cluster",
    "repro.net.engine", "repro.net.monitors", "repro.sim.sharded",
    "repro.chaos.plan", "repro.analysis.experiments",
    "repro.analysis.ablations", "repro.baselines", "repro.applications",
    "repro.impossibility", "repro.analysis.claims", "hashlib", "_hashlib",
)

_TRIAL = "import repro.engine, repro.analysis.runner\n"


def test_serial_trial_process_loads_no_other_engine():
    trial = _TRIAL + "repro.engine.resolve('serial')\n"
    assert _present(_loaded_after(trial, _SERIAL_HEAVY), _SERIAL_HEAVY) == []


def test_trial_hash_is_hashlibs_blake2b():
    """The built-in constructor a trial hashes with is the very object
    ``hashlib`` exports, so no seed or digest can drift from it."""
    assert determinism.blake2b is hashlib.blake2b


#: What ``prepare`` must not pay for: the pool, the coordinator and the
#: worker are first touched in ``run_trial``.
_PREPARE_HEAVY = (
    "asyncio", "ssl", "subprocess", "multiprocessing", "repro.chaos.plan",
    "repro.net.coordinator", "repro.net.registry", "repro.net.cluster_worker",
    "repro.net.engine",
)


@pytest.mark.parametrize("engine", ["sharded", "cluster"])
def test_window_sync_prepare_loads_no_event_loop(engine):
    """Both names of the one runtime: resolving the backend and running
    ``prepare`` loads the trial description (``repro.net.cluster``, the
    keyed-trace halves) and nothing that needs an event loop."""
    loaded = _loaded_after(
        _TRIAL +
        "from repro.engine import TrialSpec\n"
        f"backend = repro.engine.resolve({engine!r})\n"
        "backend.prepare(TrialSpec(\n"
        f"    n=8, topology='ring', engine={engine!r},\n"
        "    protocol={'kind': 'pif'}, horizon=1000,\n"
        "    driver=dict(tag='pif', requests_per_process=1)))\n",
        _PREPARE_HEAVY,
    )
    assert {"repro.net.cluster", "repro.sim.sharded"} <= loaded
    assert _present(loaded, _PREPARE_HEAVY) == []


#: What a window-sync coordinator never runs: the simulator, the
#: adversary and the obs recorder live in the workers, and its one
#: selectors loop needs no asyncio (which loads ``ssl``).
_COORDINATOR_HEAVY = (
    "repro.sim.runtime", "repro.sim.process", "repro.sim.scheduler",
    "repro.sim.network", "repro.sim.adversary", "repro.obs.recorder",
    "repro.obs.metrics", "asyncio", "ssl",
)


def test_window_sync_trial_coordinator_loads_no_simulator():
    """A whole tiny ``sharded`` trial, not ``prepare`` alone: the merge is
    imported at run time, and the workers run every shard's simulator."""
    loaded = _loaded_after(
        _TRIAL +
        "from repro.engine import TrialSpec\n"
        "run = repro.engine.execute(TrialSpec(\n"
        "    n=8, topology='ring', engine='sharded',\n"
        "    protocol={'kind': 'pif'}, horizon=100_000,\n"
        "    driver=dict(tag='pif', requests_per_process=1,\n"
        "                payload_fmt='m-{pid}-{k}')))\n"
        "assert run.completed, run\n",
        _COORDINATOR_HEAVY,
    )
    assert {"repro.net.coordinator", "repro.sim.sharded"} <= loaded
    assert _present(loaded, _COORDINATOR_HEAVY) == []


#: What a worker interpreter must not import before it serves its shard.
_WORKER_HEAVY = (
    "repro.net.cluster", "repro.net.coordinator", "repro.chaos.plan",
    "repro.analysis", "repro.engine", "repro.spec", "repro.applications",
    "repro.baselines", "repro.impossibility", "multiprocessing",
    "tempfile", "repro.net.engine", "repro.net.clock",
    "repro.net.transport", "repro.net.monitors", "hashlib", "_hashlib",
    "asyncio", "ssl", "repro.obs.recorder", "repro.obs.metrics",
)


def test_cluster_worker_boot_imports_only_the_worker_closure():
    # Everything ``python -m repro cluster-worker`` imports before
    # run_cluster_worker takes over (the stub stands in for serving).
    loaded = _loaded_after(
        "import repro.net.cluster_worker\n"
        "repro.net.cluster_worker.run_cluster_worker = lambda *a, **k: 0\n"
        "from repro.cli import main\n"
        "assert main(['cluster-worker', '--registry', '127.0.0.1:9',\n"
        "             '--shard', '0']) == 0\n",
        _WORKER_HEAVY,
    )
    assert "repro.net.cluster_worker" in loaded
    assert _present(loaded, _WORKER_HEAVY) == []


#: What naming the registries must not import.
_REGISTRY_HEAVY = (
    "repro.engine.backends.serial", "repro.engine.backends.sharded",
    "repro.engine.backends.async_", "repro.engine.backends.cluster",
    "repro.net.transport.loopback", "repro.net.transport.tcp",
    "repro.net.transport.udp", "repro.net.engine", "repro.sim.sharded",
    "asyncio",
)


def test_registry_names_import_nothing_and_see_plugins():
    loaded = _loaded_after(
        "from repro.engine import EngineBackend, engine_names, register\n"
        "from repro.net.transport import (\n"
        "    TransportKind, register_transport, transport_names)\n"
        "assert engine_names() == ('async', 'cluster', 'serial', 'sharded')\n"
        "assert transport_names() == ('loopback', 'tcp', 'udp')\n"
        "class Plugin(EngineBackend):\n"
        "    name = 'plugin'\n"
        "    capabilities = engine = run = None\n"
        "register(Plugin())\n"
        "register_transport(TransportKind(\n"
        "    name='pigeon', deterministic=False, paced=True,\n"
        "    frame_boundary=False, channel_factory=None))\n"
        "assert 'plugin' in engine_names(), engine_names()\n"
        "assert 'pigeon' in transport_names(), transport_names()\n",
        _REGISTRY_HEAVY,
    )
    assert _present(loaded, _REGISTRY_HEAVY) == []
