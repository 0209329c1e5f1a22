"""Hypothesis property fuzz: serial execution is the loopback oracle.

Fuzzes the scenario axes (topology family × loss × scramble × capacity ×
seed) and asserts, for every generated configuration, that ``engine=async``
with the loopback transport reproduces the serial engine bit for bit.
Complements the deterministic seeded sweep in ``tests/test_net.py`` (which
runs without the hypothesis dependency); this variant explores the axis
product adaptively and shrinks counterexamples.

The channel-capacity axis rides in both the fuzzed equivalence property and
a dedicated capacity-focused variant (wider flag domains per the paper's
"capacity-c extension": ``max_state = capacity + 3``), closing the
ROADMAP's "capacity axis still unfuzzed" gap with serial output as the
oracle.  A third property fuzzes per-edge latency maps: arbitrary (lo, hi)
bounds drawn for a subset of a Ring/Clustered base's edges, wrapped in
:class:`~repro.sim.topology.Weighted` — weighted draws must stay engine-
independent because each channel owns its RNG stream.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine import TrialSpec, execute  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.sim.topology import Weighted, topology_from_spec  # noqa: E402

def _serial_and_loopback(n, *, max_state=4, **axes):
    return [
        execute(TrialSpec(
            n=n, protocol={"kind": "pif", "max_state": max_state},
            driver=dict(tag="pif", requests_per_process=1,
                        payload_fmt="m-{pid}-{k}"),
            horizon=2_000_000, engine=engine, **axes))
        for engine in ("serial", "async")
    ]


def _assert_bit_identical(serial, loopback) -> None:
    assert [(e.time, e.kind, e.process, e.data) for e in serial.trace] == [
        (e.time, e.kind, e.process, e.data) for e in loopback.trace
    ]
    assert serial.trace.canonical_hash() == loopback.trace.canonical_hash()
    assert serial.stats.as_dict() == loopback.stats.as_dict()
    assert serial.finals == loopback.finals
    assert serial.completions == loopback.completions
    assert serial.final_time == loopback.final_time


@given(
    topology=st.sampled_from([None, "ring", "star", "grid", "clustered:2", "gnp:0.5"]),
    loss=st.sampled_from([0.0, 0.1, 0.25]),
    scramble=st.booleans(),
    capacity=st.sampled_from([1, 2]),
    n=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_loopback_matches_serial_on_fuzzed_axes(
    topology, loss, scramble, capacity, n, seed
):
    if topology is not None:
        try:  # not every family admits every n (grid needs a rectangle, ...)
            topology_from_spec(topology, n, seed=seed)
        except SimulationError:
            assume(False)

    # The paper's capacity-c extension: flag domain scales with capacity.
    _assert_bit_identical(*_serial_and_loopback(
        n, max_state=capacity + 3, topology=topology, seed=seed, loss=loss,
        scramble=scramble, capacity=capacity))


@given(
    capacity=st.integers(min_value=1, max_value=4),
    loss=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_capacity_axis_fuzz_serial_oracle(capacity, loss, seed):
    """Channel capacity fuzz (ROADMAP: 'capacity axis still unfuzzed').

    For every drawn capacity the loopback engine must reproduce the serial
    engine bit for bit — capacity changes the channels' admission behaviour
    (per-tag slot budgets), which exercises the sender-owned accounting on
    both engines — and the trial must still satisfy Specification 1 when
    the flag domain is sized for the capacity (``max_state = capacity + 3``).
    """

    serial, loopback = _serial_and_loopback(
        5, max_state=capacity + 3, seed=seed, loss=loss, capacity=capacity)
    _assert_bit_identical(serial, loopback)

    from repro.spec.pif_spec import check_pif

    verdict = check_pif(
        serial.trace, "pif", serial.pids, final_requests=serial.finals
    )
    assert verdict.ok, verdict.summary()


@given(
    spec=st.sampled_from(["ring", "clustered:2"]),
    n=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    directed=st.booleans(),
    data=st.data(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_per_edge_latency_map_fuzz_serial_oracle(spec, n, seed, directed, data):
    """Per-edge latency-map fuzz: weighted draws are engine-independent.

    Draws arbitrary (lo, hi) bounds for a subset of a Ring/Clustered base's
    edges — undirected (expanded to both directions) or directed (reverse
    direction falls back to the global latency) — and asserts the loopback
    engine reproduces the serial engine bit for bit.  This holds because
    each directed channel owns its RNG stream, so a weighted edge's draw
    sequence depends only on (root seed, channel, draw count), never on
    which engine interleaved the other edges' events around it.
    """
    try:  # clustered:2 needs an even n
        base = topology_from_spec(spec, n, seed=seed)
    except SimulationError:
        assume(False)
    edges = sorted(base.edges())
    picked = data.draw(
        st.lists(st.sampled_from(edges), unique=True,
                 min_size=1, max_size=len(edges)),
        label="weighted edges",
    )
    latency = {}
    for u, v in picked:
        lo = data.draw(st.integers(min_value=1, max_value=8),
                       label=f"lo {u}-{v}")
        hi = lo + data.draw(st.integers(min_value=0, max_value=8),
                            label=f"hi-lo {u}-{v}")
        latency[(u, v)] = (lo, hi)
    top = Weighted(base, latency=latency, directed=directed)

    _assert_bit_identical(*_serial_and_loopback(n, topology=top, seed=seed))
