"""The one trial pipeline every engine runs behind.

:func:`execute` replaces the four hand-threaded dispatch branches the
runner used to carry: validate the spec → resolve the backend from the
registry → check the spec against the backend's capability declaration
(one uniform :class:`~repro.errors.SpecError` for any unsupported axis)
→ prepare → run → harvest observability → close the engine → return
the :class:`~repro.engine.base.EngineRun`.  Nothing in this module knows
any backend by name.
"""

from __future__ import annotations

import time

from repro.core.protocols import protocol_of
from repro.errors import SpecError
from repro.engine.base import EngineRun, check_capabilities
from repro.engine.registry import resolve
from repro.engine.spec import TrialSpec

__all__ = ["execute"]


def execute(spec: TrialSpec) -> EngineRun:
    """Run one driven trial as described by ``spec``.

    The shape is identical on every backend: build the system, scramble
    it into an arbitrary initial configuration, let the request driver
    issue and await every request (up to ``spec.horizon``), then drain
    :data:`~repro.engine.base.DRAIN_TICKS` more ticks.  Deterministic
    backends (serial, sharded, async-loopback, cluster) return
    bit-identical traces, stats, finals and completions for the same
    spec; run provenance (engine, transport, wall clock, barriers)
    rides on the :class:`EngineRun` without entering the compared state.
    The run carries no verdict: :func:`repro.analysis.runner.run_trial`
    judges the returned trace once, whatever the engine.

    ``spec.obs`` switches on the :mod:`repro.obs` instruments; they read
    wall clocks and passive counters only, so enabling them never
    changes the trace, stats or canonical hash of a deterministic run
    (see docs/observability.md).
    """
    spec.validate()
    if spec.horizon is None:
        raise SpecError(
            "spec names no horizon; set one (or run it through "
            "run_trial, which fills in its protocol's default)",
            field="horizon")
    if not spec.driver:
        raise SpecError(
            "spec names no driver config (which layer serves requests, "
            "and how many)", field="driver")
    if not spec.protocol:
        raise SpecError(
            "spec names no protocol; set protocol={'kind': ..., **params}",
            field="protocol")
    kind = protocol_of(spec.protocol).kind
    if spec.driver["tag"] != kind:
        raise SpecError(
            f"driver tag {spec.driver['tag']!r} is not a layer of protocol "
            f"{kind!r}; its requests are served by tag {kind!r}",
            field="driver")
    backend = resolve(spec.engine)
    check_capabilities(spec, backend)
    backend.validate(spec)

    obs = None
    if spec.obs.active:
        from repro.obs.recorder import ObsRecorder

        obs = ObsRecorder(
            metrics=spec.obs.metrics is not None,
            timeline=spec.obs.timeline is not None,
        )
        obs.mark_wire_baseline()

    start_clock = time.perf_counter()
    prepared = backend.prepare(spec, obs)
    try:
        run = backend.run(prepared)
        run.wall_clock_s = time.perf_counter() - start_clock

        if obs is not None:
            backend.collect_obs(prepared, run)
            obs.collect_wire()
            obs.write(
                spec.obs.metrics,
                spec.obs.timeline,
                context={
                    "engine": spec.engine,
                    "n": len(run.pids),
                    "seed": spec.seed,
                    "loss": spec.loss,
                    "topology": run.topology.name,
                    "tag": prepared.tag,
                    "transport": run.transport,
                    "wall_clock_s": round(run.wall_clock_s, 4),
                },
            )
    finally:
        # A finished trial frees itself: with its cycles cut, the engine
        # goes by reference counting when the caller drops the run.
        prepared.sim.close()
    return run
