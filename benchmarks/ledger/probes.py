"""Per-layer probes: every layer timed from outside, one named metric each.

Two kinds, both independent of the workload being traced:

* **micro-probes** call one public function of one layer in a tight
  loop and report the median of several repeats in µs/op or ops/s;
* **macro-probes** run small fixed trials (the engine grid, the
  transports, the fixed cost of a distributed trial, one crash
  recovery) and read what the program already reports —
  :class:`~repro.analysis.runner.TrialResult` and run provenance.

A probe is a generator of ``(name, value, unit, info)`` tuples; the
worker emits each as it completes, so a hung probe trips the runner's
per-line deadline instead of stalling the run.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.messages import PifMessage
from repro.core.pif import PifLayer
from repro.engine import (
    ChaosOpts,
    ClusterOpts,
    ObsOpts,
    ShardingOpts,
    TransportOpts,
    TrialSpec,
    check_capabilities,
    engine_names,
    resolve,
)
from repro.analysis.runner import run_idl_trial, run_mutex_trial, run_pif_trial
from repro.net import wire
from repro.net.monitors import default_monitors
from repro.net.transport import resolve_transport, transport_names
from repro.sim.channel import BoundedChannel
from repro.sim.partition import partition_topology
from repro.sim.runtime import Simulator
from repro.sim.scheduler import Scheduler
from repro.sim.topology import topology_from_spec
from repro.sim.trace import Trace, canonical_trace_hash
from repro.spec.idl_spec import check_idl
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.spec.waves import extract_waves

from tracing import patched_trial_path
from workloads import WORKERS, WORKLOADS, grid_probe_spec

__all__ = ["FULL", "TINY", "ProbeScale", "run_probes"]

Probe = Iterator[tuple[str, float, str, dict[str, Any]]]


@dataclass(frozen=True)
class ProbeScale:
    #: ``full`` or ``tiny`` (the smoke test's size).
    name: str
    #: Seconds one timed repeat of a micro-probe must last, and how many
    #: repeats the median is taken over.
    min_time: float
    repeats: int
    #: Repeats of each macro-probe trial (median wall).
    macro_repeats: int
    grid_n: int
    transport_n: int
    trace_n: int


FULL = ProbeScale(name="full", min_time=0.03, repeats=7, macro_repeats=3,
                  grid_n=32, transport_n=8, trace_n=16)
TINY = ProbeScale(name="tiny", min_time=0.002, repeats=3, macro_repeats=1,
                  grid_n=6, transport_n=4, trace_n=4)

#: Seed of every fixed probe trial (probes do not vary with ``--seed``:
#: they are the same work on every run, so runs compare).
PROBE_SEED = 7


# -- the micro harness ---------------------------------------------------


def _seconds_per_op(
    scale: ProbeScale,
    run: Callable[[Any], None],
    ops: int,
    setup: Callable[[], Any] = lambda: None,
) -> float:
    """Median seconds per operation of ``run(state)``, which performs
    ``ops`` operations on a fresh, untimed ``setup()`` state.  The batch
    count doubles until one repeat lasts ``scale.min_time``."""
    clock = time.perf_counter

    def timed(batches: int) -> float:
        elapsed = 0.0
        for _ in range(batches):
            state = setup()
            t0 = clock()
            run(state)
            elapsed += clock() - t0
        return elapsed

    batches = 1
    while timed(batches) < scale.min_time:
        batches *= 2
    samples = [timed(batches) / (batches * ops) for _ in range(scale.repeats)]
    return statistics.median(samples)


def _us(seconds: float) -> float:
    return seconds * 1e6


# -- micro-probes, one function per layer ---------------------------------


def _probe_engine_spec(scale: ProbeScale) -> Probe:
    backend = resolve("serial")

    def run(_state) -> None:
        for seed in range(100):
            spec = TrialSpec(n=32, seed=seed, topology="ring", loss=0.1,
                             horizon=1000, driver={"tag": "pif"})
            spec.validate()
            check_capabilities(spec, backend)

    yield "engine.spec_build_us", _us(_seconds_per_op(scale, run, 100)), "us", {}


def _probe_sim_core(scale: ProbeScale) -> Probe:
    tags = [f"t{i}" for i in range(1000)]
    messages = [PifMessage(tag, "b", "f", 0, 0) for tag in tags]

    # Capacity is per tag: the first send of a tag is admitted (latency
    # draw + delivery scheduled), the second finds the slot full and is
    # dropped — the 1:1 admitted/rejected mix of the dense workload.
    def transmit(sim: Simulator) -> None:
        send = sim.transmit
        for msg in messages:
            send(1, 2, msg)
            send(1, 2, msg)

    yield ("sim.runtime.transmit_us",
           _us(_seconds_per_op(scale, transmit, 2 * len(messages),
                               setup=lambda: Simulator(2))),
           "us", {"mix": "half admitted, half dropped on a full slot"})

    message = messages[0]

    def admit_remove(channel: BoundedChannel) -> None:
        admit, remove = channel.try_admit, channel.remove
        for now in range(1000):
            remove(admit(message, now))

    yield ("sim.channel.admit_remove_us",
           _us(_seconds_per_op(scale, admit_remove, 1000,
                               setup=lambda: BoundedChannel(1, 2))),
           "us", {})

    def noop() -> None:
        pass

    def post_pop(scheduler: Scheduler) -> None:
        post_at = scheduler.post_at
        for i in range(1000):
            post_at(1 + (i & 63), noop, i)
        scheduler.run_until(64)

    yield ("sim.scheduler.post_pop_us",
           _us(_seconds_per_op(scale, post_pop, 1000, setup=Scheduler)),
           "us", {})

    # A valid message that changes no flag and triggers no reply: the
    # bare dispatch + receive-action cost (sending is transmit's probe).
    sim = Simulator(2, lambda host: host.register(PifLayer("pif")), auto=False)
    host = sim.host(2)
    layer = host.layer("pif")
    settled = PifMessage("pif", "b", "f", layer.max_state, layer.max_state)

    def dispatch(_state) -> None:
        deliver = host.dispatch
        for _ in range(1000):
            deliver(1, settled)

    yield ("core.pif.dispatch_us",
           _us(_seconds_per_op(scale, dispatch, 1000)), "us", {})

    def emit(trace: Trace) -> None:
        for t in range(1000):
            trace.emit(t, "receive-brd", 1 + (t & 7), tag="pif",
                       sender=2, payload="m", wave=(2, t))

    yield ("sim.trace.emit_us",
           _us(_seconds_per_op(scale, emit, 1000, setup=Trace)), "us", {})


def _recorded_run(run_trial, spec: TrialSpec, **kwargs):
    """One small serial trial's :class:`EngineRun` (trace + finals)."""
    with patched_trial_path("serial") as captured:
        result = run_trial(spec=spec, **kwargs)
    if not result.ok:
        raise RuntimeError(f"probe trial failed its specification: {result}")
    return captured[0]


def _probe_spec(scale: ProbeScale) -> Probe:
    n = scale.trace_n
    pif = _recorded_run(
        run_pif_trial, TrialSpec(n=n, seed=PROBE_SEED, loss=0.1),
        requests_per_process=2)
    idl = _recorded_run(
        run_idl_trial, TrialSpec(n=n, seed=PROBE_SEED), requests_per_process=2)
    mutex = _recorded_run(
        run_mutex_trial, TrialSpec(n=max(4, n // 2), seed=PROBE_SEED),
        requests_per_process=1)

    def rate(run, fn: Callable[[Any], Any], setup=lambda: None) -> float:
        return 1.0 / _seconds_per_op(scale, fn, len(run.trace), setup)

    info = {"rows": len(pif.trace)}
    yield ("sim.trace.hash_rows_per_s",
           rate(pif, lambda _s: canonical_trace_hash(pif.trace)), "1/s", info)
    yield ("spec.check_pif_rows_per_s",
           rate(pif, lambda _s: check_pif(
               pif.trace, "pif", pif.pids, final_requests=pif.finals)),
           "1/s", info)
    yield ("spec.extract_waves_rows_per_s",
           rate(pif, lambda _s: extract_waves(pif.trace, "pif")), "1/s", info)
    yield ("spec.check_idl_rows_per_s",
           rate(idl, lambda _s: check_idl(
               idl.trace, "idl", {p: p for p in idl.pids},
               final_requests=idl.finals)),
           "1/s", {"rows": len(idl.trace)})
    yield ("spec.check_mutex_rows_per_s",
           rate(mutex, lambda _s: check_mutex(
               mutex.trace, "me", horizon=mutex.final_time,
               require_all_served=True)),
           "1/s", {"rows": len(mutex.trace)})

    rows = list(pif.trace.scan())

    def observe(monitors) -> None:
        for t, kind, process, data in rows:
            for monitor in monitors:
                monitor.observe(t, kind, process, data)

    yield ("net.monitors.observe_rows_per_s",
           rate(pif, observe,
                setup=lambda: default_monitors("pif", pif.topology)),
           "1/s", info)


def _probe_topology(scale: ProbeScale) -> Probe:
    for label, spec, n in (("ring256", "ring", 256), ("wan128", "wan:4", 128)):
        yield (f"sim.topology.build_{label}_us",
               _us(_seconds_per_op(
                   scale, lambda _s: topology_from_spec(spec, n), 1)),
               "us", {})
    wan = topology_from_spec("wan:4", 128)
    yield ("sim.partition.split_us",
           _us(_seconds_per_op(
               scale, lambda _s: partition_topology(wan, WORKERS), 1)),
           "us", {"topology": "wan:4 n=128", "shards": WORKERS})


def _probe_wire(scale: ProbeScale) -> Probe:
    message = PifMessage("pif", "msg-3-1", "f0", 2, 1, (3, 1))
    frame = wire.encode_ship(3, 9, message, 1234, 17, 5)
    payload = frame[6:]
    count = 1000

    def pack(_state) -> None:
        for _ in range(count):
            wire.pack_frame(wire.SHIP, payload)

    yield ("net.wire.pack_frames_per_s",
           1.0 / _seconds_per_op(scale, pack, count), "1/s",
           {"frame_bytes": len(frame)})

    def split(_state) -> None:
        for _ in range(count):
            wire.split_frame(frame)

    yield ("net.wire.split_frames_per_s",
           1.0 / _seconds_per_op(scale, split, count), "1/s", {})

    stream = frame * count

    async def read_all() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        for _ in range(count):
            await wire.read_frame(reader)

    yield ("net.wire.read_frames_per_s",
           1.0 / _seconds_per_op(
               scale, lambda _s: asyncio.run(read_all()), count),
           "1/s", {"includes": "one event-loop start per 1000 frames"})

    def codec(_state) -> None:
        for _ in range(count):
            _kind, body, _rest = wire.split_frame(
                wire.encode_ship(3, 9, message, 1234, 17, 5))
            wire.decode_ship(body)

    seconds = _seconds_per_op(scale, codec, count)
    yield "net.wire.ship_codec_us", _us(seconds), "us", {}
    yield ("net.wire.mb_per_s", len(frame) / seconds / 1e6, "MB/s",
           {"what": "SHIP frame bytes through encode+split+decode"})


# -- macro-probes: small fixed trials --------------------------------------


def _timed_pif(spec: TrialSpec) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = run_pif_trial(spec=spec, requests_per_process=1)
    wall = time.perf_counter() - t0
    if not result.ok or result.provenance.get("monitors_ok") is False:
        raise RuntimeError(f"probe trial failed its specification: {result}")
    return wall, result


def _median_pif(scale: ProbeScale, spec: TrialSpec) -> tuple[float, Any]:
    """Median wall over ``macro_repeats`` runs, with the last result."""
    runs = [_timed_pif(spec) for _ in range(scale.macro_repeats)]
    return statistics.median(wall for wall, _ in runs), runs[-1][1]


def _probe_engine_grid(scale: ProbeScale) -> Probe:
    walls: dict[str, float] = {}
    for engine in engine_names():
        spec = grid_probe_spec(engine, n=scale.grid_n, seed=PROBE_SEED)
        wall, result = _median_pif(scale, spec)
        walls[engine] = wall
        messages = result.measurements["messages"]
        yield (f"engine.{engine}.us_per_msg", _us(wall / messages), "us",
               {"n": scale.grid_n, "messages": messages})
        prov = result.provenance
        layer = {"sharded": "sim.sharded", "cluster": "net.cluster"}.get(engine)
        if layer is None or not prov.get("barriers"):
            continue
        info = {"barriers": prov["barriers"], "window": prov["window"]}
        yield (f"{layer}.barrier_round_us",
               _us(prov["sync_wall_s"] / prov["barriers"]), "us", info)
        yield (f"{layer}.sync_share",
               prov["sync_wall_s"] / prov["wall_clock_s"], "fraction", info)
        if "worker_wall_s" in prov:
            yield (f"{layer}.worker_compute_share",
                   max(prov["worker_wall_s"].values()) / prov["wall_clock_s"],
                   "fraction", {})
    for engine, layer in (("async", "engine.async"), ("cluster", "net.cluster")):
        yield (f"{layer}.over_serial",
               walls[engine] / walls["serial"], "ratio",
               {"base": f"serial grid_probe wall {walls['serial']:.4f} s"})


def _probe_transports(scale: ProbeScale) -> Probe:
    for name in transport_names():
        spec = TrialSpec(n=scale.transport_n, seed=PROBE_SEED, engine="async",
                         transport=TransportOpts(transport=name))
        wall, result = _median_pif(scale, spec)
        yield (f"net.transport.{name}.us_per_msg",
               _us(wall / result.measurements["messages"]), "us",
               # A paced transport's wall is ticks x tick length, not code.
               {"paced": resolve_transport(name).paced})


def _probe_fixed_cost(scale: ProbeScale, out_dir: Path) -> Probe:
    tiny = TrialSpec(n=4, seed=PROBE_SEED)
    sharded = replace(tiny, engine="sharded",
                      sharding=ShardingOpts(shards=WORKERS))
    cluster = replace(tiny, engine="cluster",
                      cluster=ClusterOpts(hosts=WORKERS))
    yield ("sim.sharded.fixed_cost_s", _median_pif(scale, sharded)[0], "s",
           {"what": "n=4 one-request trial: fork + pipes + ship + merge"})
    yield ("net.cluster.fixed_cost_s", _median_pif(scale, cluster)[0], "s",
           {"what": "n=4 one-request trial: spawn + rendezvous + ship + merge"})
    # The rendezvous wall is only reported through the obs histogram.
    metrics_path = out_dir / "probe-rendezvous.metrics.json"
    _timed_pif(replace(cluster, obs=ObsOpts(metrics=str(metrics_path))))
    hists = json.loads(metrics_path.read_text(encoding="utf-8"))["hists"]
    count, total, _lo, _hi = hists["registry.rendezvous_wall_s"]
    yield "net.registry.rendezvous_s", total / count, "s", {}


def _probe_sharded_speedup(scale: ProbeScale) -> Probe:
    spec = WORKLOADS["wan_sharded"].spec(PROBE_SEED, 0, scale.name)
    sharded_wall, _ = _timed_pif(spec)
    serial_wall, _ = _timed_pif(
        replace(spec, engine="serial", sharding=ShardingOpts()))
    yield ("sim.sharded.speedup_vs_serial", serial_wall / sharded_wall,
           "ratio", {"base": f"serial wall {serial_wall:.4f} s, one pair"})


def _probe_chaos(scale: ProbeScale) -> Probe:
    clean = TrialSpec(n=6, seed=PROBE_SEED, engine="cluster",
                      cluster=ClusterOpts(hosts=WORKERS))
    crashed = replace(
        clean, chaos=ChaosOpts(plan="crash worker 0 at round 1"))
    clean_wall, _ = _median_pif(scale, clean)
    crash_wall, result = _median_pif(scale, crashed)
    yield ("chaos.crash_recovery_extra_s", crash_wall - clean_wall, "s",
           {"base": f"fault-free wall {clean_wall:.4f} s"})
    yield ("chaos.replayed_rounds", result.provenance["replayed_rounds"],
           "count", {})


def _probe_cli(scale: ProbeScale) -> Probe:
    walls = []
    for _ in range(scale.macro_repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", "list"], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        walls.append(time.perf_counter() - t0)
    yield "cli.startup_s", statistics.median(walls), "s", {}


def run_probes(scale: ProbeScale, out_dir: Path) -> Probe:
    """Every probe, in layer order."""
    yield from _probe_engine_spec(scale)
    yield from _probe_sim_core(scale)
    yield from _probe_spec(scale)
    yield from _probe_topology(scale)
    yield from _probe_wire(scale)
    yield from _probe_engine_grid(scale)
    yield from _probe_transports(scale)
    yield from _probe_fixed_cost(scale, out_dir)
    yield from _probe_sharded_speedup(scale)
    yield from _probe_chaos(scale)
    yield from _probe_cli(scale)
