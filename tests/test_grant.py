"""The grant arithmetic (repro.net.grant), with no sockets.

A worker's :class:`RoundGrid` and the coordinator's :class:`GrantLedger`
are pure state machines, so the whole granted run can be played here as
a message-passing model — reports and grants in FIFO queues, delivered
in an arbitrary order drawn by hypothesis — and compared with the
lock-step recurrence the grants replaced (one ``adv``/``adv-ok`` per
round, completion checked at every round boundary).

Both take a *quiet-stretch oracle* ``next_event(t)``: the global
next-event bound the barrier after a round ending at ``t`` reports —
the first tick after ``t`` on which anything happens (``NO_EVENT`` when
nothing ever does).  Without one every tick is busy and no round jumps.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.net.grant import Grant, GrantLedger, RoundGrid, report_every
from repro.net.wire import NO_EVENT


def lockstep(done_ticks, window, drain, horizon, next_event=None):
    """The coordinator loop the grants replaced: every worker runs every
    target together, and the coordinator looks at all ``done_at`` values
    after each round; a round after which nothing happens before ``G``
    targets ``max(t + window, G + window - 1)``, capped the same way.
    Returns (targets, final_target, completed)."""
    t, final, completed, targets = -1, None, False, []
    while final is None or t < final:
        step = t + window
        if next_event is not None:
            step = max(step, next_event(t) + window - 1)
        t = min(step, horizon if final is None else final)
        targets.append(t)
        if final is None:
            if all(d is not None and d <= t for d in done_ticks):
                completed, final = True, max(done_ticks) + drain
            elif t >= horizon:
                final = horizon + drain
    return targets, final, completed


class Model:
    """N workers and a coordinator exchanging reports and grants.

    The worker side mirrors ``_Trial._rounds``: run while the grid
    yields a target (after the peer barrier, if ``barriers``), jumping
    by the barrier's bound when there is an oracle and parking again if
    the jump outruns the credit; report when parked, when finished and
    when the grid says one is due.  The coordinator side mirrors
    ``_Coordinator._granted_rounds``: fold a report in, send every worker
    whose last grant differs the new one.
    """

    def __init__(self, done_ticks, window, drain, horizon, barriers,
                 next_event=None):
        n = len(done_ticks)
        self.done_ticks = done_ticks
        self.barriers = barriers
        self.next_event = next_event
        self.grids = [RoundGrid(window, horizon, drain) for _ in range(n)]
        self.targets: list[list[int]] = [[] for _ in range(n)]
        self.ledger = GrantLedger(n, window, drain, horizon)
        self.sent = [Grant(-1, None)] * n
        self.grants: list[deque] = [deque() for _ in range(n)]
        self.reports: list[deque] = [deque() for _ in range(n)]
        #: The limit a parked worker last reported itself parked at.
        self.parked_at: list[int | None] = [None] * n
        self.final_reported = [False] * n
        self._issue()

    def _done_at(self, i):
        done = self.done_ticks[i]
        return done if done is not None and done <= self.grids[i].t else None

    def _report(self, i):
        grid = self.grids[i]
        grid.reported(self._done_at(i))
        self.reports[i].append((grid.reached, self._done_at(i)))

    def _issue(self):
        grant = self.ledger.grant()
        for i, last in enumerate(self.sent):
            if last != grant:
                self.sent[i] = grant
                self.grants[i].append(grant)

    def _may_run(self, i):
        grid = self.grids[i]
        if grid.next_target() is None:
            return False
        return not self.barriers or all(
            other.round >= grid.round for other in self.grids
        )

    def actions(self):
        """Every step some actor could take now."""
        out = []
        for i, grid in enumerate(self.grids):
            if self._may_run(i):
                out.append(("run", i))
            elif grid.finished:
                if not self.final_reported[i]:
                    out.append(("finish", i))
            elif grid.next_target() is None and self.parked_at[i] != grid.limit:
                out.append(("park", i))
            if self.grants[i]:
                out.append(("grant", i))
            if self.reports[i]:
                out.append(("report", i))
        return out

    def step(self, action):
        kind, i = action
        grid = self.grids[i]
        if kind == "run":
            if self.next_event is not None:
                # Past the barrier: its bound may move the target.
                grid.skip_to(self.next_event(grid.t))
            target = grid.next_target()
            if target is None:  # the jump outran the credit
                self.parked_at[i] = grid.limit
                self._report(i)
                return
            assert self.ledger.final is None or target <= self.ledger.final
            self.targets[i].append(target)
            grid.advance(target)
            self.parked_at[i] = None
            if grid.report_due(self._done_at(i)):
                self._report(i)
        elif kind == "park":
            self.parked_at[i] = grid.limit
            self._report(i)
        elif kind == "finish":
            self.final_reported[i] = True
            self._report(i)
        elif kind == "grant":
            grid.accept(*self.grants[i].popleft())
        else:
            self.ledger.report(i, *self.reports[i].popleft())
            self._issue()

    @property
    def finished(self):
        return all(self.final_reported) and not any(self.reports)


def play(model, choose):
    """Run the model to completion, ``choose`` picking each step.  A
    state with work left and no possible step is a worker out of credit
    that nobody will ever extend."""
    steps = 0
    while not model.finished:
        actions = model.actions()
        assert actions, (
            "deadlock: t=%s limits=%s final=%s" % (
                [g.t for g in model.grids],
                [g.limit for g in model.grids], model.ledger.final))
        model.step(choose(actions))
        steps += 1
        assert steps < 100_000
    return model


def check_against_lockstep(done_ticks, window, drain, horizon, barriers, choose,
                           next_event=None):
    targets, final, completed = lockstep(
        done_ticks, window, drain, horizon, next_event)
    model = play(
        Model(done_ticks, window, drain, horizon, barriers, next_event), choose)
    for grid, ran in zip(model.grids, model.targets):
        assert ran == targets
        assert grid.round == len(targets)  # == the trial's ``barriers``
        assert grid.t == final
    assert model.ledger.final == final
    assert model.ledger.completed == completed
    if completed:
        assert model.ledger.done_tick == max(done_ticks)
    else:
        assert final == horizon + drain


# -- fixed cases -----------------------------------------------------------


def test_report_every_is_a_quarter_of_the_credit():
    assert report_every(1, 200) == 50
    assert report_every(16, 200) == 3
    assert report_every(64, 200) == 1
    assert report_every(5, 5) == 1


def test_first_grant_is_one_drain_of_credit():
    ledger = GrantLedger(2, window=1, drain=200, horizon=10_000)
    assert ledger.grant() == Grant(199, None)
    ledger.report(0, 49, None)
    assert ledger.grant() == Grant(199, None)  # shard 1 is still at -1
    ledger.report(1, 49, None)
    assert ledger.grant() == Grant(249, None)


def test_done_shards_stop_bounding_the_limit():
    ledger = GrantLedger(2, window=1, drain=200, horizon=10_000)
    ledger.report(0, 30, 25)
    ledger.report(1, 80, None)
    assert ledger.grant() == Grant(280, None)
    ledger.report(1, 120, 100)
    assert ledger.grant() == Grant(300, 300)
    assert (ledger.completed, ledger.done_tick) == (True, 100)


def test_a_late_done_report_cannot_move_the_final_target():
    ledger = GrantLedger(1, window=4, drain=8, horizon=10)
    ledger.report(0, 10, None)
    assert ledger.grant() == Grant(18, 18)
    ledger.report(0, 14, 12)
    assert ledger.grant() == Grant(18, 18)
    assert not ledger.completed


def test_grid_parks_without_credit_and_at_the_horizon():
    grid = RoundGrid(window=4, horizon=10, drain=8)
    assert grid.next_target() is None  # no grant yet
    grid.accept(7, None)
    assert grid.next_target() == 3
    grid.advance(3)
    assert grid.next_target() == 7
    grid.advance(7)
    assert grid.next_target() is None  # out of credit
    grid.accept(10, None)
    assert grid.next_target() == 10  # capped at the horizon
    grid.advance(10)
    assert grid.next_target() is None  # at the horizon, awaiting the verdict
    grid.accept(5, None)
    assert grid.limit == 10  # credit only grows
    grid.accept(18, 18)
    assert [grid.next_target(), grid.finished] == [14, False]
    grid.advance(14)
    grid.advance(18)
    assert grid.finished and grid.next_target() is None


def test_the_step_to_the_horizon_waits_for_a_report_from_the_last_grid_point():
    # Grid -1, 3, 7, (10 = horizon).  A shard busy at 3 would earn
    # 3 + 8 = 11 -> 10 of credit, but whether 7 -> 10 or 7 -> 11 comes
    # next depends on whether the trial completed by 7: the credit stops
    # a tick short of the horizon until a report comes from within a
    # window of it.
    ledger = GrantLedger(1, window=4, drain=8, horizon=10)
    ledger.report(0, 3, None)
    assert ledger.grant() == Grant(9, None)
    grid = RoundGrid(window=4, horizon=10, drain=8)
    grid.accept(*ledger.grant())
    grid.advance(3)
    grid.advance(7)
    assert grid.next_target() is None  # 7 -> 10 waits for the verdict at 7
    ledger.report(0, 7, None)
    assert ledger.grant() == Grant(10, None)


def test_a_final_target_learnt_early_keeps_the_horizon_cap_until_detection():
    # Found by the property test below.  Shard 0 goes idle at tick 4 =
    # the horizon; lock step sees that at the capped step 3 -> 4 and
    # carries on 6, 8.  A shard still at 3 when the final grant (8)
    # arrives must take the same capped step, not 3 -> 5.
    grid = RoundGrid(window=2, horizon=4, drain=4)
    grid.accept(3, None)
    grid.advance(1)
    grid.advance(3)
    grid.accept(8, 8)
    assert grid.next_target() == 4
    grid.advance(4)
    assert grid.next_target() == 6
    check_against_lockstep([4, 0], 2, 4, 4, False, lambda a: a[0])


@pytest.mark.parametrize("barriers", [True, False])
def test_eager_and_lazy_delivery_agree_with_lockstep(barriers):
    case = ([37, 12, None], 3, 9, 50)
    for choose in (lambda a: a[0], lambda a: a[-1]):
        check_against_lockstep(*case, barriers, choose)
    check_against_lockstep([37, 12, 20], 3, 9, 50, barriers, lambda a: a[0])


# -- quiet stretches: the lookahead jump -----------------------------------


def quiet_stretches(done_ticks, stretches, tail):
    """The oracle of a trial on which nothing happens on the ``(start,
    length)`` stretches nor from ``tail`` on — except the done ticks: a
    driver goes idle in an event of its own, so a tail starts after the
    last of them."""
    done = {tick for tick in done_ticks if tick is not None}
    quiet = set()
    for start, length in stretches:
        quiet.update(range(start, start + length))
    quiet -= done
    if tail is not None:
        tail = max(tail, max(done, default=-1) + 1)

    def next_event(t):
        tick = t + 1
        while tick in quiet:
            tick += 1
        return NO_EVENT if tail is not None and tick >= tail else tick

    return next_event


def test_a_quiet_drain_is_one_round():
    # Every driver idle by 5, nothing after 6: lock step runs 0..6 one
    # tick a round, then jumps straight to the final target 5 + 200.
    oracle = quiet_stretches([5, 3], [], 7)
    targets, final, _ = lockstep([5, 3], 1, 200, 10_000, oracle)
    assert targets == [0, 1, 2, 3, 4, 5, 6, 205] and final == 205
    for barriers in (True, False):
        check_against_lockstep(
            [5, 3], 1, 200, 10_000, barriers, lambda a: a[0], oracle)


def test_a_jump_past_the_credit_parks_after_the_barrier():
    # Busy at 9 with 200 of credit; the barrier says nothing happens
    # before 400 — the jump (to 400) outruns the limit (209), so the
    # worker parks, reporting that it leaves from 399, and the credit
    # that report earns covers the jump.
    grid = RoundGrid(window=1, horizon=10_000, drain=200)
    grid.accept(209, None)
    grid.t = 9
    assert grid.next_target() == 10  # the plain target: past the park
    grid.skip_to(400)
    assert grid.next_target() is None and grid.reached == 399
    ledger = GrantLedger(1, window=1, drain=200, horizon=10_000)
    ledger.report(0, grid.reached, None)
    grid.accept(*ledger.grant())
    assert grid.next_target() == 400
    grid.advance(400)
    assert (grid.reached, grid.next_target()) == (400, 401)  # bound spent


def test_a_jump_stops_at_the_horizon_and_the_final_target():
    grid = RoundGrid(window=2, horizon=50, drain=20)
    grid.accept(50, None)
    grid.t = 9
    grid.skip_to(NO_EVENT)
    assert grid.next_target() == 50
    grid.advance(50)
    grid.accept(70, 70)  # horizon blown: final = horizon + drain
    grid.skip_to(NO_EVENT)
    assert grid.next_target() == 70
    grid.advance(70)
    assert grid.finished


@pytest.mark.parametrize("barriers", [True, False])
def test_quiet_stretches_before_and_after_completion_agree_with_lockstep(
    barriers,
):
    oracle = quiet_stretches([37, 12, 20], [(5, 6), (14, 30)], 45)
    for choose in (lambda a: a[0], lambda a: a[-1]):
        check_against_lockstep(
            [37, 12, 20], 3, 9, 50, barriers, choose, oracle)
    # A stretch across the horizon: 38 -> 50 = horizon.
    check_against_lockstep(
        [37, None], 3, 9, 50, barriers, lambda a: a[0],
        quiet_stretches([37, None], [(38, 40)], None))


# -- property --------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def trials(draw):
    """A trial's arithmetic and, half the time, its quiet stretches:
    ``(start, length)`` ranges anywhere — before, between and after the
    done ticks — and maybe a quiet tail after the last of them."""
    window = draw(st.integers(min_value=1, max_value=6))
    drain = draw(st.integers(min_value=window, max_value=window * 14))
    horizon = draw(st.integers(min_value=0, max_value=90))
    done_ticks = draw(st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
        min_size=1, max_size=4))
    quiet = draw(st.one_of(st.none(), st.tuples(
        st.lists(st.tuples(st.integers(min_value=0, max_value=130),
                           st.integers(min_value=1, max_value=40)),
                 max_size=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=140)))))
    return done_ticks, window, drain, horizon, quiet


@settings(max_examples=400, deadline=None)
@given(trial=trials(), barriers=st.booleans(), rng=st.randoms(use_true_random=False))
def test_granted_rounds_equal_lockstep_under_any_delivery_order(
    trial, barriers, rng
):
    """Same target sequence, round count and final target as lock step
    for arbitrary done ticks, quiet stretches and report/grant delays;
    never a target beyond the final one; never a worker stuck without
    credit; a blown horizon still ends at ``horizon + drain``."""
    *case, quiet = trial
    oracle = None if quiet is None else quiet_stretches(case[0], *quiet)
    check_against_lockstep(*case, barriers, rng.choice, oracle)
