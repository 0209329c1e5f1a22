"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import ast
import copy
import inspect
import random
import textwrap
from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications.collect import CollectLayer
from repro.applications.termination_detection import TerminationDetectorLayer
from repro.baselines.naive_pif import NaivePifLayer
from repro.baselines.self_stab_mutex import TokenMutexLayer
from repro.core.idl import IdlLayer
from repro.core.messages import PifMessage
from repro.core.mutex import MutexLayer
from repro.core.pif import PifLayer
from repro.core.requests import RequestDriver
from repro.sim.channel import BoundedChannel, UnboundedChannel
from repro.sim.configuration import capture, restore
from repro.sim.runtime import Simulator
from repro.sim.scheduler import Scheduler
from repro.spec.pif_spec import check_pif
from repro.types import RequestState


@dataclass(frozen=True)
class Msg:
    tag: str
    body: int = 0


# ---------------------------------------------------------------------------
# Scheduler properties
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_scheduler_executes_in_time_order(times):
    sched = Scheduler()
    seen = []
    for t in times:
        sched.schedule_at(t, lambda t=t: seen.append(t))
    sched.run_until(2000)
    assert seen == sorted(times)
    assert len(seen) == len(times)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=100),
)
def test_scheduler_horizon_splits_events_exactly(times, horizon):
    sched = Scheduler()
    seen = []
    for t in times:
        sched.schedule_at(t, lambda t=t: seen.append(t))
    sched.run_until(horizon)
    assert seen == sorted(t for t in times if t <= horizon)


# ---------------------------------------------------------------------------
# Channel properties
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60),
)
def test_bounded_channel_capacity_invariant(capacity, tags):
    channel = BoundedChannel(1, 2, capacity=capacity)
    for tag in tags:
        channel.try_admit(Msg(tag), 0)
        # Invariant after every admission attempt.
        for t in ("a", "b", "c"):
            assert channel.occupancy(t) <= capacity


@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_channel_contents_preserve_fifo(bodies):
    channel = UnboundedChannel(1, 2)
    for body in bodies:
        channel.try_admit(Msg("t", body), 0)
    assert [m.body for m in channel.contents()] == bodies


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_fifo_delivery_times_strictly_increase_per_tag(proposals):
    channel = UnboundedChannel(1, 2)
    times = [channel.fifo_delivery_time("t", p) for p in proposals]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(t >= p for t, p in zip(times, proposals))


# ---------------------------------------------------------------------------
# PIF handshake properties
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # msg.state
            st.integers(min_value=0, max_value=4),  # msg.echo
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pif_flag_monotone_and_bounded_under_any_messages(messages):
    """State_p[q] never decreases and never leaves {0..4} within a wave,
    no matter what message garbage arrives."""
    sim = Simulator(
        2, lambda h: h.register(PifLayer("pif")), auto=False
    )
    layer: PifLayer = sim.layer(1, "pif")
    layer.request_broadcast("m")
    sim.activate(1)
    assert layer.state[2] == 0
    previous = 0
    for state, echo in messages:
        layer.on_message(2, PifMessage("pif", "b", "f", state=state, echo=echo))
        assert 0 <= layer.state[2] <= 4
        assert layer.state[2] >= previous
        assert layer.state[2] - previous <= 1  # one increment per receipt
        previous = layer.state[2]


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_pif_increment_iff_exact_echo(flag, echo):
    sim = Simulator(2, lambda h: h.register(PifLayer("pif")), auto=False)
    layer: PifLayer = sim.layer(1, "pif")
    layer.state[2] = flag
    layer.on_message(2, PifMessage("pif", "b", "f", state=0, echo=echo))
    if flag == echo and flag < 4:
        assert layer.state[2] == flag + 1
    else:
        assert layer.state[2] == flag


# ---------------------------------------------------------------------------
# Snap-stabilization as a property: random scrambles never break the spec
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=4))
def test_pif_spec_holds_from_random_configurations(seed, n):
    sim = Simulator(n, lambda h: h.register(PifLayer("pif")), seed=seed)
    sim.scramble(seed=seed ^ 0xABCD)
    driver = RequestDriver(
        sim, "pif", requests_per_process=1, payload=lambda pid, k: f"m{pid}"
    )
    assert sim.run(2_000_000, until=lambda s: driver.done)
    sim.run(sim.now + 300)
    finals = {p: sim.layer(p, "pif").request for p in sim.pids}
    verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals)
    assert verdict.ok, verdict.summary()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_determinism_same_seed_same_execution(seed):
    def fingerprint():
        sim = Simulator(3, lambda h: h.register(PifLayer("pif")), seed=seed)
        sim.scramble(seed=seed)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("d")
        sim.run(100_000, until=lambda s: layer.request is RequestState.DONE)
        return (
            sim.now,
            sim.stats.sent,
            tuple((e.time, e.kind, e.process) for e in sim.trace),
        )

    assert fingerprint() == fingerprint()


# ---------------------------------------------------------------------------
# Scramble domain properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=100_000))
def test_scramble_always_yields_valid_domains(seed):
    sim = Simulator(3, lambda h: h.register(PifLayer("pif")), auto=False)
    rng = random.Random(seed)
    for host in sim.hosts.values():
        host.scramble(rng)
    for pid in sim.pids:
        layer: PifLayer = sim.layer(pid, "pif")
        assert layer.request in set(RequestState)
        for q in sim.network.peers_of(pid):
            assert 0 <= layer.state[q] <= layer.max_state
            assert 0 <= layer.neig_state[q] <= layer.max_state


#: (layer, n): PIF, IDL, ME, the naive PIF, the token mutex and the two
#: applications over PIF; IDL, ME and the applications bring their
#: embedded instances.
_RESTORED = (
    (PifLayer, 3), (IdlLayer, 3), (MutexLayer, 3), (NaivePifLayer, 3),
    (TokenMutexLayer, 4), (TerminationDetectorLayer, 3), (CollectLayer, 3),
)


def _scramble_writes(cls) -> set[str]:
    """Every ``self.<name>`` that ``cls.scramble`` assigns, directly or
    by subscript."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls.scramble)))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        names |= {sub.attr for target in targets for sub in ast.walk(target)
                  if isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    return names


def _variables(sim: Simulator) -> dict:
    """Every layer's STATE and scramble-written attributes, by value (a
    dict as its items, so a restored map must keep its order)."""
    variables = {}
    for pid, host in sim.hosts.items():
        for layer in host.layers:
            for name in set(layer.STATE) | _scramble_writes(type(layer)):
                value = copy.deepcopy(getattr(layer, name))
                variables[pid, layer.tag, name] = (
                    type(value),
                    list(value.items()) if isinstance(value, dict) else value)
    return variables


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_RESTORED), st.integers(min_value=0, max_value=10_000))
def test_snapshot_restore_is_identity(case, seed):
    """Auto mode: scramble, capture, run, restore — every live variable
    is back at its value at capture."""
    cls, n = case
    sim = Simulator(n, lambda h: h.register(cls(cls.__name__)), seed=seed)
    sim.scramble(seed=seed)
    config = capture(sim)
    before = _variables(sim)
    hash(config.key())
    for state in config.states.values():
        for _, values in state:
            assert not any(isinstance(v, (dict, list)) for v in values)
    sim.run(sim.now + 3_000)
    restore(sim, config)
    assert _variables(sim) == before


# ---------------------------------------------------------------------------
# Metrics properties
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                max_size=200))
def test_summary_bounds(values):
    from repro.analysis.metrics import summarize

    s = summarize(values)
    assert s.minimum <= s.p50 <= s.maximum
    assert s.minimum <= s.p95 <= s.maximum
    assert s.minimum <= s.mean <= s.maximum
    assert s.count == len(values)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50))
def test_p50_majorized_by_p95(values):
    from repro.analysis.metrics import summarize

    s = summarize(values)
    assert s.p50 <= s.p95
