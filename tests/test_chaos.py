"""Fault injection + crash recovery (repro.chaos) against real workers.

Three layers of coverage:

* **Unit** — the :class:`~repro.chaos.Backoff` schedule pinned with a
  seeded jitter stream and a fake clock (no sleeping), and the FaultPlan
  DSL parser with its validation surface.
* **Integration** — a real two-worker cluster trial killed at every
  supported phase (rendezvous / peering / barrier / mid-round): the run
  must either surface a :class:`~repro.errors.WorkerCrashed` diagnostic
  carrying the shard id and stderr tail within seconds (never by timing
  out), or recover — stop the survivors, respawn the dead shard, run the
  trial again — and stay bit-identical to the serial oracle.  Ship
  faults (drop/duplicate/corrupt), link cuts and stalls must likewise
  leave the canonical trace untouched.
* **Property** — a hypothesis fuzz over fault schedules (crash round x
  shard x link cuts) asserting post-recovery bit-identity against the
  serial oracle.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace

import pytest

from repro.analysis.runner import run_pif_trial
from repro.chaos import Backoff, FaultPlan, parse_fault_plan, retry_async
from repro.engine import (
    ChaosOpts,
    ClusterOpts,
    TransportOpts,
    TrialSpec,
    execute,
)
from repro.errors import ConfigurationError, SimulationError, WorkerCrashed
from repro.sim.trace import canonical_trace_hash

# -- Backoff: schedule + retry loop under a fake clock --------------------


def test_backoff_delays_grow_to_cap_deterministically():
    policy = Backoff(initial=0.1, factor=2.0, cap=0.8, jitter=0.0)
    gen = policy.delays()
    assert [round(next(gen), 6) for _ in range(6)] == [
        0.1, 0.2, 0.4, 0.8, 0.8, 0.8
    ]


def test_backoff_seeded_jitter_is_reproducible_and_bounded():
    policy = Backoff(initial=0.1, factor=2.0, cap=1.0, jitter=0.5, seed=7)
    first = [next(policy.delays()) for _ in range(1)]
    a = policy.delays()
    b = policy.delays()
    seq_a = [next(a) for _ in range(8)]
    seq_b = [next(b) for _ in range(8)]
    assert seq_a == seq_b  # same seed, same stream
    assert first[0] == seq_a[0]
    nominal = 0.1
    for delay in seq_a:
        assert 0.5 * nominal <= delay <= 1.5 * nominal
        nominal = min(nominal * 2.0, 1.0)


def test_backoff_rejects_bad_parameters():
    with pytest.raises(SimulationError, match="initial"):
        Backoff(initial=0.0)
    with pytest.raises(SimulationError, match="factor"):
        Backoff(factor=0.5)
    with pytest.raises(SimulationError, match="cap"):
        Backoff(initial=1.0, cap=0.5)
    with pytest.raises(SimulationError, match="jitter"):
        Backoff(jitter=1.0)


def test_retry_async_retries_then_succeeds_without_sleeping():
    fake_now = [0.0]
    slept: list[float] = []

    async def fake_sleep(delay: float) -> None:
        slept.append(delay)
        fake_now[0] += delay

    attempts = [0]

    async def op() -> str:
        attempts[0] += 1
        if attempts[0] < 4:
            raise OSError("connection refused")
        return "connected"

    retries: list[float] = []

    async def main():
        return await retry_async(
            op,
            backoff=Backoff(initial=0.05, factor=2.0, cap=2.0, jitter=0.0),
            timeout=30.0,
            describe="test dial",
            clock=lambda: fake_now[0],
            sleep=fake_sleep,
            on_retry=retries.append,
        )

    assert asyncio.run(main()) == "connected"
    assert attempts[0] == 4
    assert slept == [0.05, 0.1, 0.2]
    assert retries == slept


def test_retry_async_deadline_raises_simulation_error():
    fake_now = [0.0]

    async def fake_sleep(delay: float) -> None:
        fake_now[0] += delay

    async def op() -> None:
        raise OSError("still down")

    async def main():
        await retry_async(
            op,
            backoff=Backoff(initial=1.0, factor=2.0, cap=8.0, jitter=0.0),
            timeout=5.0,
            describe="doomed dial",
            clock=lambda: fake_now[0],
            sleep=fake_sleep,
        )

    with pytest.raises(SimulationError, match="doomed dial failed after 5s"):
        asyncio.run(main())


def test_retry_async_passes_through_non_retryable():
    async def op() -> None:
        raise ValueError("logic bug")

    async def main():
        await retry_async(
            op, backoff=Backoff(jitter=0.0), timeout=5.0, describe="dial"
        )

    with pytest.raises(ValueError, match="logic bug"):
        asyncio.run(main())


# -- FaultPlan DSL: parsing + validation ----------------------------------


def test_parse_every_statement_form():
    plan = parse_fault_plan(
        """
        # a comment line
        crash worker 2 at barrier 5
        crash worker 0 at rendezvous; crash worker 1 at round 3
        cut link 1->3 for rounds 4..8
        cut link 0->2 at round 2 for 1.5s
        drop ship from 1 to 3 round 2..4 count 2
        duplicate ship from 2
        corrupt ship to 4 count 3
        stall worker 1 at round 2 for 0.5s
        stall registry 2s
        """
    )
    assert len(plan.faults) == 10
    assert plan.crash_token(2) == "barrier:5"
    assert plan.crash_token(0) == "rendezvous"
    assert plan.crash_token(1) == "round:3"
    assert plan.crash_token(9) is None
    assert plan.requires_cluster()
    assert bool(plan)
    assert not bool(FaultPlan.parse(""))


def test_parse_cut_round_range_converts_to_seconds():
    plan = parse_fault_plan("cut link 1->3 for rounds 4..8")
    cut = plan.faults[0]
    assert (cut.src_shard, cut.dst_shard) == (1, 3)
    assert cut.start_round == 4
    assert cut.seconds == pytest.approx(5 * 0.25)


@pytest.mark.parametrize("bad, match", [
    ("crash worker 1 at nowhere", "unknown crash phase"),
    ("crash worker 1 at barrier 0", "rounds are 1-based"),
    ("explode worker 1", "unknown fault"),
    ("drop ship count 0", "count"),
    ("cut link 3 for rounds 1..2", "A->B"),
    ("cut link 1->2 for rounds 5..4", "range"),
])
def test_parse_rejects_malformed_statements(bad, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_fault_plan(bad)


def test_worker_slice_routes_faults_to_owning_shard():
    plan = parse_fault_plan(
        "cut link 0->1 at round 2 for 1s\n"
        "drop ship from 3 count 2\n"
        "duplicate ship\n"
        "stall worker 1 at round 4 for 0.5s\n"
        "crash worker 0 at barrier 2"
    )
    shard_of = {1: 0, 2: 0, 3: 1, 4: 1}
    slice0 = plan.worker_slice(0, shard_of)
    slice1 = plan.worker_slice(1, shard_of)
    assert slice0["cuts"] == [(1, 2, 1.0)]
    # pid 3 lives on shard 1; the from-less duplicate applies everywhere.
    assert [s[0] for s in slice0["ships"]] == ["duplicate"]
    assert [s[0] for s in slice1["ships"]] == ["drop", "duplicate"]
    assert slice0["stalls"] == []
    assert slice1["stalls"] == [(4, 0.5)]


def test_validate_for_cluster_rejects_bad_targets():
    plan = parse_fault_plan("crash worker 5 at barrier 1")
    with pytest.raises(ConfigurationError, match="shard 5"):
        plan.validate_for_cluster(2, (1, 2, 3, 4), spawned=True)
    plan = parse_fault_plan("crash worker 0 at barrier 1")
    with pytest.raises(ConfigurationError, match="hand-launched"):
        plan.validate_for_cluster(2, (1, 2, 3, 4), spawned=False)
    plan = parse_fault_plan("drop ship from 9")
    with pytest.raises(ConfigurationError, match="pid 9"):
        plan.validate_for_cluster(2, (1, 2, 3, 4), spawned=True)


def test_validate_for_async_rejects_cluster_only_faults():
    with pytest.raises(ConfigurationError, match="cluster"):
        parse_fault_plan("crash worker 0 at barrier 1").validate_for_async("tcp")
    with pytest.raises(ConfigurationError, match="loopback"):
        parse_fault_plan("drop ship from 1").validate_for_async("loopback")
    parse_fault_plan("drop ship from 1").validate_for_async("tcp")


def test_execute_guards_fault_plan_engine_axis():
    with pytest.raises(SimulationError, match="fault_plan requires"):
        execute(TrialSpec(
            n=4, protocol={"kind": "pif"},
            driver=dict(tag="pif", requests_per_process=1),
            horizon=100_000, engine="serial", chaos="drop ship from 1",
        ))


# -- cluster integration: kill a real worker at every phase ---------------

SERIAL_ORACLE: dict = {}

#: (n, topology, hosts) of the default chaos trial and of the four-shard
#: WAN ring, where shards 0 and 2 (1 and 3) are not adjacent.
SMALL = (6, None, 2)
WAN_RING = (16, "wan:4", 4)


def _serial(seed: int, shape=SMALL):
    n, topology, _hosts = shape
    if (seed, shape) not in SERIAL_ORACLE:
        SERIAL_ORACLE[seed, shape] = run_pif_trial(
            TrialSpec(n=n, topology=topology, seed=seed))
    return SERIAL_ORACLE[seed, shape]


def _cluster_trial(seed: int, plan, shape=SMALL):
    """One PIF trial (n=6 on two cluster workers by default) under
    ``plan``."""
    n, topology, hosts = shape
    return run_pif_trial(TrialSpec(
        n=n, topology=topology, seed=seed, engine="cluster",
        cluster=ClusterOpts(hosts=hosts), chaos=ChaosOpts(plan=plan)))


@pytest.mark.parametrize("phase, plan", [
    ("peering", "crash worker 1 at peering"),
    ("barrier", "crash worker 1 at barrier 3"),
    ("round", "crash worker 0 at round 2"),
])
def test_worker_crash_recovers_bit_identically(phase, plan):
    serial = _serial(3)
    trial = _cluster_trial(3, plan)
    assert trial.ok
    assert trial.measurements == serial.measurements
    assert trial.provenance["recoveries"] == 1
    assert trial.provenance["fault_counts"]["worker.crashed"] == 1
    assert trial.provenance["fault_counts"]["fault.injected.crash"] == 1


def test_rendezvous_crash_surfaces_diagnostic_fast_not_timeout():
    started = time.monotonic()
    with pytest.raises(WorkerCrashed) as excinfo:
        _cluster_trial(3, "crash worker 0 at rendezvous")
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"diagnosis took {elapsed:.1f}s (timeout path?)"
    crash = excinfo.value
    assert crash.shard == 0
    assert crash.exit_code == 70
    assert "chaos: injected crash at rendezvous" in (crash.stderr_tail or "")
    assert "shard 0" in str(crash)


def test_crash_with_recovery_disabled_is_a_fast_diagnostic():
    from repro.net.cluster import ClusterSimulator

    driver = dict(tag="pif", requests_per_process=2,
                  payload_fmt="m-{pid}-{k}")
    sim = ClusterSimulator(
        6, {"kind": "pif"}, seed=3, hosts=2,
        fault_plan="crash worker 1 at barrier 2", recover=False,
    )
    started = time.monotonic()
    with pytest.raises(WorkerCrashed) as excinfo:
        sim.run_trial(horizon=2_000_000, scramble_seed=3 ^ 0x5EED,
                      driver=driver)
    assert time.monotonic() - started < 30.0
    crash = excinfo.value
    assert crash.shard == 1
    assert crash.round == 2
    assert crash.phase == "barrier"
    assert "chaos: injected crash at barrier 2" in (crash.stderr_tail or "")


def test_ship_faults_and_cuts_recover_bit_identically():
    serial = _serial(3)
    trial = _cluster_trial(
        3,
        "drop ship from 1 round 2..9 count 2\n"
        "corrupt ship from 4 count 1\n"
        "cut link 0->1 for rounds 2..3",
    )
    assert trial.ok
    assert trial.measurements == serial.measurements
    counts = trial.provenance["fault_counts"]
    assert counts["fault.injected.drop"] == 2
    assert counts["fault.injected.cut"] == 1
    assert counts["ship.resent"] >= 2  # NAK/resend healed the drops


def test_duplicate_ship_is_absorbed_by_receiver_dedup():
    """``duplicate`` writes the matching ship twice in its link-round's
    SHIP frame; the receiver's ``_seen`` set drops the second copy and
    nothing needs healing."""
    trial = _cluster_trial(3, "duplicate ship from 1 count 2")
    assert trial.ok
    assert trial.measurements == _serial(3).measurements
    counts = trial.provenance["fault_counts"]
    assert counts["fault.injected.duplicate"] == 2
    assert counts["ship.duplicate_dropped"] == 2
    assert "ship.nak_sent" not in counts


def test_corrupt_ship_takes_its_frame_and_one_nak_heals_the_round():
    """``corrupt`` truncates the frame that carries the matching ship:
    the receiver counts one undecodable frame, the link-round comes up
    short of its barrier count, and NAK -> resend re-ships the round."""
    trial = _cluster_trial(3, "corrupt ship from 4 count 1")
    assert trial.ok
    assert trial.measurements == _serial(3).measurements
    counts = trial.provenance["fault_counts"]
    assert counts["fault.injected.corrupt"] == 1
    assert counts["ship.corrupt_received"] == 1
    assert counts["ship.nak_sent"] >= 1
    assert counts["ship.resent"] >= 1


def test_two_faults_in_one_link_round_heal_in_one_nak():
    """Pid 1 ships to the other shard more than once in round 2: its
    first ship spends the drop, its second the corrupt — both in the one
    frame of link 0->1, round 2, which a single NAK re-ships."""
    trial = _cluster_trial(
        11,
        "drop ship from 1 round 2..2 count 1\n"
        "corrupt ship from 1 round 2..2 count 1",
    )
    assert trial.ok
    assert trial.measurements == _serial(11).measurements
    counts = trial.provenance["fault_counts"]
    assert counts["fault.injected.drop"] == 1
    assert counts["fault.injected.corrupt"] == 1
    assert counts["ship.corrupt_received"] == 1
    assert counts["ship.nak_sent"] == 1


def test_two_crashes_are_two_recoveries():
    """Worker 1's crash point lies beyond the round the first attempt
    dies at, so its token stays armed through that attempt and fires in
    the re-run: a second recovery, and the trial still equals serial."""
    trial = _cluster_trial(
        3, "crash worker 0 at round 1; crash worker 1 at round 3")
    assert trial.ok
    assert trial.measurements == _serial(3).measurements
    assert trial.provenance["recoveries"] == 2
    counts = trial.provenance["fault_counts"]
    assert counts["worker.crashed"] == 2
    assert counts["fault.injected.crash"] == 2


def test_recovered_fault_counts_are_the_crash_free_plans():
    """A recovery re-runs the trial under the whole plan, so the ship
    faults of the attempt that finished are all counted — once — and
    nothing of the aborted attempt is; what the crash adds is the crash
    itself and the recovery's own counters."""
    crash_free = _cluster_trial(0, "drop ship from 1 count 2")
    recovered = _cluster_trial(
        0, "crash worker 0 at round 1; drop ship from 1 count 2")
    assert recovered.provenance["recoveries"] == 1

    def comparable(counts):
        return {
            name: n for name, n in counts.items()
            if name not in ("backoff.retries", "worker.crashed",
                            "fault.injected.crash")
            and not name.startswith("recovery.")
        }

    counts = recovered.provenance["fault_counts"]
    assert comparable(counts) == comparable(
        crash_free.provenance["fault_counts"])
    assert counts["fault.injected.drop"] == 2
    assert counts["worker.crashed"] == counts["fault.injected.crash"] == 1
    assert counts["recovery.respawns"] == 1


def test_crash_plus_link_cut_compose():
    serial = _serial(5)
    trial = _cluster_trial(
        5, "crash worker 1 at barrier 2\ncut link 0->1 for rounds 4..5")
    assert trial.ok
    assert trial.measurements == serial.measurements
    assert trial.provenance["recoveries"] == 1


def test_crash_of_a_worker_owing_a_resend_recovers():
    """The crashed worker dies before answering the NAK for a ship it
    dropped, so the survivor's barrier can only be completed by the
    replacement's re-ships: the survivor reports itself blocked on the
    lost peer instead of waiting out the worker timeout.  (Seed 1: pid 1
    scrambles three messages into the other shard, so both drops fall in
    its round-0 frame and one NAK asks for them.)"""
    serial = _serial(1)
    trial = _cluster_trial(
        1, "crash worker 0 at round 1; drop ship from 1 count 2")
    assert trial.ok
    assert trial.measurements == serial.measurements
    assert trial.provenance["recoveries"] == 1
    assert trial.provenance["fault_counts"]["ship.nak_sent"] == 1


def test_blocked_worker_serves_control_without_handing_the_round_back(
    monkeypatch,
):
    """The control reader runs beside the round loop: a survivor blocked
    on its dead peer's barrier answers ``stop`` from inside that wait,
    and the CONTROL transcript of the whole recovered trial holds the
    granted-round ops and the pooled lifecycle only — no per-round
    advance, ack or hand-back, and nothing that repairs a live trial."""
    from repro.net import registry

    transcript: list[tuple[int, str, tuple]] = []
    send, recv = registry._WorkerHandle.send, registry._WorkerHandle.recv

    async def logged_send(handle, message):
        transcript.append((handle.shard, "to", message))
        await send(handle, message)

    async def logged_recv(handle):
        message = await recv(handle)
        transcript.append((handle.shard, "from", message))
        return message

    monkeypatch.setattr(registry._WorkerHandle, "send", logged_send)
    monkeypatch.setattr(registry._WorkerHandle, "recv", logged_recv)
    trial = _cluster_trial(
        0, "crash worker 0 at round 1; drop ship from 1 count 2")
    assert trial.ok and trial.provenance["recoveries"] == 1

    ops = {message[0] for _shard, _way, message in transcript}
    # The pooled lifecycle adds the ``idle`` acknowledgement after
    # ``stop`` (and ``exit``, sent outside a trial) — nothing per round.
    assert ops <= {
        "spec", "ready", "grant", "report", "nak", "resend", "result",
        "stop", "idle", "exit",
    }
    assert {"nak", "grant", "report", "stop", "idle"} <= ops
    # After its blocked report the survivor sent the coordinator nothing
    # but ``idle`` (it never left the wait) and then, re-run from the
    # spec, ``ready``.
    survivor = [m for shard, way, m in transcript
                if shard == 1 and way == "from"]
    blocked = next(i for i, m in enumerate(survivor)
                   if m[0] == "report" and m[5] and m[5][0] == "blocked")
    assert survivor[blocked][5][:2] == ("blocked", 0)
    assert [m[0] for m in survivor[blocked + 1:blocked + 3]] == [
        "idle", "ready"]
    # Sparse control traffic: a handful of grants and reports, not one
    # exchange per round.
    rounds = trial.provenance["barriers"]
    per_round = [m for _s, _w, m in transcript if m[0] in ("grant", "report")]
    assert len(per_round) < rounds


def test_no_worker_stderr_file_outlives_a_trial(tmp_path, monkeypatch):
    """Worker stderr goes to a tempfile so WorkerCrashed can quote it;
    neither a recovery (which opens a second file for the shard) nor a
    fatal crash may leave one behind."""
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    trial = _cluster_trial(3, "crash worker 0 at round 1")
    assert trial.provenance["recoveries"] == 1
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(WorkerCrashed) as excinfo:
        _cluster_trial(3, "crash worker 0 at rendezvous")
    assert excinfo.value.stderr_tail  # read before the file went
    assert list(tmp_path.iterdir()) == []


def test_fault_free_plan_machinery_keeps_canonical_hash():
    """An *empty* fault plan arms the chaos machinery (dedup sets,
    tolerant pumps) without injecting anything: the trace hash must not
    move."""
    spec = TrialSpec(
        n=6, protocol={"kind": "pif"}, seed=0,
        driver=dict(tag="pif", requests_per_process=1,
                    payload_fmt="m-{pid}-{k}"),
        horizon=2_000_000, engine="cluster", cluster=ClusterOpts(hosts=2),
    )
    base = execute(spec)
    armed = execute(replace(spec, chaos=FaultPlan.parse("")))
    assert canonical_trace_hash(base.trace) == canonical_trace_hash(armed.trace)
    assert armed.fault_counts == {}


# -- async tcp: frame faults at the MESSAGE boundary ----------------------


def test_async_tcp_ship_faults_count_and_monitors_hold():
    trial = run_pif_trial(TrialSpec(
        n=6, seed=3, engine="async", transport=TransportOpts(transport="tcp"),
        horizon=60_000,
        chaos="duplicate ship from 1 count 2; corrupt ship from 2 count 1",
    ))
    assert (trial.ok, trial.violations) == (True, 0)
    counts = trial.provenance["fault_counts"]
    assert counts["fault.injected.duplicate"] == 2
    assert counts["fault.injected.corrupt"] == 1
    assert counts["ship.duplicate_dropped"] == 2
    assert counts["ship.corrupt_received"] == 1


# -- property: fault schedules keep the serial bit-identity ---------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def fault_schedules(draw) -> str:
    statements = []
    if draw(st.booleans()):
        shard = draw(st.integers(min_value=0, max_value=1))
        phase = draw(st.sampled_from(["barrier", "round"]))
        round_no = draw(st.integers(min_value=1, max_value=4))
        statements.append(f"crash worker {shard} at {phase} {round_no}")
    if draw(st.booleans()):
        src = draw(st.integers(min_value=0, max_value=1))
        start = draw(st.integers(min_value=1, max_value=3))
        statements.append(
            f"cut link {src}->{1 - src} for rounds {start}..{start + 1}"
        )
    if draw(st.booleans()):
        pid = draw(st.integers(min_value=1, max_value=6))
        count = draw(st.integers(min_value=1, max_value=2))
        statements.append(f"drop ship from {pid} count {count}")
    return "\n".join(statements)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_text=fault_schedules(),
    seed=st.integers(min_value=0, max_value=3),
    shape=st.just(SMALL),
)
# Found by this test: crash + unanswered NAK deadlocked until PR 14.
@example(plan_text="crash worker 0 at round 1\ndrop ship from 1 count 2",
         seed=1, shape=SMALL)
@example(plan_text="crash worker 0 at round 1\ndrop ship from 3 count 2",
         seed=0, shape=SMALL)
# The same shape with the drop on the survivor's side: the NAK comes from
# the worker that dies, the resend is owed to its replacement.
@example(plan_text="crash worker 0 at round 1\ndrop ship from 4 count 2",
         seed=0, shape=SMALL)
# A late crash, after several grant extensions, with a survivor that is
# not adjacent to the dead shard running ahead of the two that are.
@example(plan_text="crash worker 2 at round 40", seed=0, shape=WAN_RING)
def test_fault_schedule_fuzz_preserves_serial_identity(plan_text, seed, shape):
    serial = _serial(seed, shape)
    trial = _cluster_trial(seed, plan_text or None, shape)
    assert trial.ok
    assert trial.measurements == serial.measurements
