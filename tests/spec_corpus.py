"""The specification corpus: every trace a Specification 1–3 verdict is pinned on.

Two parts, both consumed by ``tests/test_spec.py`` and by the generator at
the bottom of this file:

* :data:`CASES` — the crafted row sequences (one table; each is judged
  through the finished-trace driver, :func:`check_case`, *and* row by
  row through a :class:`~repro.net.monitors.SpecMonitor`,
  :func:`live_case`);
* :func:`simulated` — recorded runs that, unlike the equivalence gates',
  contain violations: the ``naive_pif`` / ``self_stab_mutex`` baselines
  under their own tags, the ``analysis.ablations`` runs expected to fail,
  the out-of-model rows of the fault sweep and the attacks of
  ``examples/fault_injection.py``.  They are captured as the
  ``(trace, arguments)`` of the ``check_*`` calls those scenarios make.

``tests/data/spec_verdicts.json`` holds, per entry, the per-property
violation counts and ``info`` of the *offline* ``check_*``.  Its crafted
part was recorded at the commit before Specifications 1–3 became one
automaton each and stays as recorded (``tests/test_spec.py`` states the
deliberate drifts against it); its simulated part names one semantics
epoch's draws and is re-recorded by ``tests/data/regenerate.py`` when the
epoch moves.
"""

from __future__ import annotations

import importlib
import importlib.util
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from repro.sim.trace import EventKind as K
from repro.sim.trace import Trace
from repro.types import RequestState

VERDICTS_PATH = Path(__file__).parent / "data" / "spec_verdicts.json"
PROPERTIES = ("Start", "Correctness", "Termination", "Decision")

#: ``check_*`` keywords that scope a specification to a topology (the
#: automaton's constructor takes them; the rest go to ``finish``).
SCOPE_KEYS = ("neighbors", "clusters")

#: Closing time handed to ``check_mutex`` for every crafted ME case.
HORIZON = 100


class Case(NamedTuple):
    """One crafted trace and how it is judged."""

    spec: str                      # "pif" | "idl" | "me" (also the tag)
    rows: tuple                    # (time, kind, process, data) rows
    truth: tuple = ()              # ground truth: (pids,) / (idents,) / ()
    scope: dict = {}               # topology scoping: neighbors / clusters
    finish: dict = {}              # end-of-run arguments

    def trace(self) -> Trace:
        return trace_of(self.rows)


def trace_of(rows) -> Trace:
    trace = Trace()
    for time, kind, process, data in rows:
        trace.emit(time, kind, process, **data)
    return trace


def ev(time: int, kind: str, process: int | None, **data: Any) -> tuple:
    return (time, kind, process, data)


# -- crafted rows --------------------------------------------------------

PIDS = (1, 2, 3)
IDENTS = {1: 1, 2: 2, 3: 3}
W = (1, 1)

_REQUEST = ev(0, K.REQUEST, 1, tag="pif", payload="m")
_START = ev(1, K.START, 1, tag="pif", wave=W, payload="m")
_BRD2 = ev(3, K.RECEIVE_BRD, 2, tag="pif", sender=1, payload="m", wave=W)
_BRD3 = ev(4, K.RECEIVE_BRD, 3, tag="pif", sender=1, payload="m", wave=W)
_FCK2 = ev(6, K.RECEIVE_FCK, 1, tag="pif", sender=2, payload="f2", wave=W)
_FCK3 = ev(7, K.RECEIVE_FCK, 1, tag="pif", sender=3, payload="f3", wave=W)
_DECIDE = ev(8, K.DECIDE, 1, tag="pif", wave=W)

#: A perfect single-wave trace: request, start, brds, fcks, decide.
GOOD_PIF = (_REQUEST, _START, _BRD2, _BRD3, _FCK2, _FCK3, _DECIDE)


def _idl(min_id=1, id_tab=None) -> tuple:
    return (
        ev(0, K.REQUEST, 2, tag="idl"),
        ev(1, K.START, 2, tag="idl"),
        ev(9, K.DECIDE, 2, tag="idl", min_id=min_id,
           id_tab={1: 1, 3: 3} if id_tab is None else id_tab),
    )


def _cs(*rows) -> tuple:
    """``(time, "enter"|"exit", pid[, requested])`` shorthand for ME rows."""
    out = []
    for time, what, pid, *requested in rows:
        if what == "enter":
            out.append(ev(time, K.CS_ENTER, pid, tag="me",
                          requested=requested[0] if requested else True))
        else:
            out.append(ev(time, K.CS_EXIT, pid, tag="me"))
    return tuple(out)


def _pif(rows, **kw) -> Case:
    return Case("pif", tuple(rows), (PIDS,), **kw)


def _me(rows, **kw) -> Case:
    kw.setdefault("finish", {"require_all_served": False})
    return Case("me", tuple(rows), (), **kw)


CASES: dict[str, Case] = {
    # Specification 1.
    "pif-good": _pif(GOOD_PIF),
    "pif-missing-start": _pif([ev(0, K.REQUEST, 1, tag="pif")]),
    "pif-unfinished-wave": _pif([ev(0, K.START, 1, tag="pif", wave=W, payload="m")]),
    "pif-unfinished-wave-tolerated": _pif(
        [ev(0, K.START, 1, tag="pif", wave=W, payload="m")],
        finish={"require_all_decided": False}),
    "pif-still-in-at-end": _pif(
        GOOD_PIF,
        finish={"final_requests": {1: RequestState.DONE, 2: RequestState.IN,
                                   3: RequestState.DONE}}),
    "pif-missing-broadcast-receipt": _pif(r for r in GOOD_PIF if r is not _BRD3),
    "pif-corrupted-payload": _pif([
        _START,
        ev(3, K.RECEIVE_BRD, 2, tag="pif", sender=1, payload="WRONG", wave=W),
        _BRD3, _FCK2, _FCK3, _DECIDE]),
    "pif-missing-ack": _pif([_START, _BRD2, _BRD3, _FCK2, _DECIDE]),
    "pif-duplicate-ack": _pif([
        _REQUEST, _START, _BRD2, _BRD3, _FCK2, _FCK3,
        ev(7, K.RECEIVE_FCK, 1, tag="pif", sender=3, wave=W), _DECIDE]),
    "pif-triple-ack": _pif([
        _REQUEST, _START, _BRD2, _BRD3, _FCK2, _FCK3,
        ev(7, K.RECEIVE_FCK, 1, tag="pif", sender=3, wave=W),
        ev(7, K.RECEIVE_FCK, 1, tag="pif", sender=3, wave=W), _DECIDE]),
    "pif-garbage-without-wave": _pif(GOOD_PIF + (
        ev(2, K.RECEIVE_BRD, 2, tag="pif", sender=1, payload="garbage", wave=None),)),
    "pif-other-tag-invisible": _pif(GOOD_PIF + (
        ev(2, K.START, 2, tag="other", wave=(2, 1), payload="x"),)),
    "pif-ring-scoped": _pif(
        [_REQUEST, _START, _BRD2, _FCK2, _DECIDE],
        scope={"neighbors": {1: (2,), 2: (1, 3), 3: (2,)}}),
    "pif-ring-scoped-missing-neighbour": _pif(
        [_REQUEST, _START, _BRD3, _FCK3, _DECIDE],
        scope={"neighbors": {1: (2,), 2: (1, 3), 3: (2,)}}),
    # Specification 2.
    "idl-good": Case("idl", _idl(), (IDENTS,)),
    "idl-wrong-minimum": Case("idl", _idl(min_id=2), (IDENTS,)),
    "idl-wrong-table": Case("idl", _idl(id_tab={1: 1, 3: 99}), (IDENTS,)),
    "idl-never-started-decide": Case(
        "idl", (ev(9, K.DECIDE, 2, tag="idl", min_id=42, id_tab={}),), (IDENTS,)),
    "idl-unserved-request": Case(
        "idl", (ev(0, K.REQUEST, 2, tag="idl"),), ({1: 1, 2: 2},)),
    "idl-undecided": Case("idl", _idl()[:2], (IDENTS,)),
    "idl-ring-scoped": Case(
        "idl", _idl(min_id=2, id_tab={3: 3}), (IDENTS,),
        scope={"neighbors": {1: (3,), 2: (3,), 3: (1, 2)}}),
    # Specification 3.
    "me-requesters-overlap": _me(_cs(
        (10, "enter", 1), (12, "enter", 2), (15, "exit", 1), (16, "exit", 2))),
    "me-requester-vs-zombie": _me(_cs(
        (0, "enter", 1, False), (2, "enter", 2), (5, "exit", 1), (6, "exit", 2))),
    "me-zombie-only-overlap": _me(_cs(
        (0, "enter", 1, False), (0, "enter", 2, False),
        (5, "exit", 1), (5, "exit", 2))),
    "me-sequential": _me(_cs(
        (0, "enter", 1), (5, "exit", 1), (5, "enter", 2), (9, "exit", 2))),
    "me-open-interval": _me(_cs(
        (0, "enter", 1), (50, "enter", 2), (55, "exit", 2))),
    "me-unserved-request": _me(
        [ev(0, K.REQUEST, 1, tag="me")], finish={}),
    "me-intervals": _me(_cs(
        (1, "enter", 1), (4, "exit", 1), (6, "enter", 1, False))),
    # The four per-row monitor cases that used to live in tests/test_net.py.
    "net-mutex-overlap": _me(_cs((1, "enter", 1), (2, "enter", 2))),
    "net-mutex-cross-cluster": _me(
        _cs((1, "enter", 1), (2, "enter", 3)),
        scope={"clusters": [{1, 2}, {3, 4}]}),
    "net-mutex-same-cluster": _me(
        _cs((1, "enter", 1), (2, "enter", 2)),
        scope={"clusters": [{1, 2}, {3, 4}]}),
    "net-pif-missing-ack": _pif([
        ev(1, K.START, 1, tag="pif", wave=W, payload="x"),
        ev(2, K.RECEIVE_BRD, 2, tag="pif", wave=W, sender=1, payload="x"),
        ev(3, K.RECEIVE_BRD, 3, tag="pif", wave=W, sender=1, payload="x"),
        ev(4, K.RECEIVE_FCK, 1, tag="pif", wave=W, sender=2),
        ev(5, K.DECIDE, 1, tag="pif", wave=W)]),
    "net-unanswered-request": _pif([ev(1, K.REQUEST, 1, tag="pif")]),
    # The three traces on which the offline checkers and the online
    # monitors used to disagree (see docs/async.md, "resolved readings").
    "drift-a-same-tick-enter-before-exit": _me(_cs(
        (1, "enter", 1), (5, "enter", 2), (5, "exit", 1), (9, "exit", 2))),
    "drift-b-ack-after-decide-same-tick": _pif(GOOD_PIF + (
        ev(8, K.RECEIVE_FCK, 1, tag="pif", sender=3, wave=W),)),
    "drift-c-decide-without-start": _pif([
        ev(1, K.REQUEST, 1, tag="pif"), ev(2, K.DECIDE, 1, tag="pif")]),
}


# -- simulated runs ------------------------------------------------------

class Recorded(NamedTuple):
    """One captured ``check_*`` call of a simulated scenario."""

    spec: str
    trace: Trace
    args: tuple          # positional arguments after the trace (tag, truth)
    kwargs: dict


_CHECKERS = {
    "pif": ("repro.spec.pif_spec", "check_pif"),
    "idl": ("repro.spec.idl_spec", "check_idl"),
    "me": ("repro.spec.mutex_spec", "check_mutex"),
}


def checker(spec: str):
    module, name = _CHECKERS[spec]
    return getattr(importlib.import_module(module), name)


@contextmanager
def _captured(*consumers) -> Iterator[list[Recorded]]:
    """Record every ``check_pif`` / ``check_mutex`` call the given modules
    (and function-local ``from repro.spec... import``s) make."""
    calls: list[Recorded] = []
    undo = []

    def wrap(spec: str, real):
        def recording(trace, *args, **kwargs):
            calls.append(Recorded(spec, trace, args, kwargs))
            return real(trace, *args, **kwargs)
        return recording

    for spec, (module, name) in _CHECKERS.items():
        real = checker(spec)
        wrapped = wrap(spec, real)
        for holder in (importlib.import_module(module), *consumers):
            if getattr(holder, name, None) is real:
                undo.append((holder, name, real))
                setattr(holder, name, wrapped)
    try:
        yield calls
    finally:
        for holder, name, real in undo:
            setattr(holder, name, real)


def _baseline_runs() -> Iterator[tuple[str, Recorded]]:
    from repro.baselines.naive_pif import NaiveMessage, NaivePifLayer
    from repro.baselines.self_stab_mutex import TokenMutexLayer
    from repro.core.requests import RequestDriver
    from repro.sim.channel import BernoulliLoss
    from repro.sim.runtime import Simulator

    def naive(host) -> None:
        host.register(NaivePifLayer("np"))

    def token(host) -> None:
        host.register(TokenMutexLayer("tok"))

    # Seed 0 deadlocks, 1 decides on garbage, 5 does both (a scrambled
    # peer's wave decides while the initiator's own never does).
    for seed in (0, 1, 5):
        sim = Simulator(3, naive, seed=seed, loss=BernoulliLoss(0.1))
        sim.scramble(seed=seed ^ 0xFADE)
        layer = sim.layer(1, "np")
        layer.request_broadcast("payload")
        sim.run(30_000, until=lambda s: layer.request is RequestState.DONE)
        yield f"naive-np-seed{seed}", Recorded(
            "pif", sim.trace, ("np", sim.pids), {"require_all_decided": False})

    # tests/test_baselines.py::test_believes_stale_feedback
    sim = Simulator(2, naive, seed=2, auto=False)
    layer = sim.layer(1, "np")
    sim.inject(2, 1, NaiveMessage("np", "fck", "stale"), schedule=False)
    sim.inject(1, 2, NaiveMessage("np", "brd", "old-garbage"), schedule=False)
    layer.request_broadcast("m")
    sim.activate(1)
    sim.step_deliver(2, 1)
    sim.activate(1)
    yield "naive-np-stale-feedback", Recorded(
        "pif", sim.trace, ("np", sim.pids), {"require_all_decided": False})

    # tests/test_baselines.py::test_can_violate_safety_from_forged_tokens
    for seed in (0, 1, 2):
        sim = Simulator(4, token, seed=seed)
        for pid in sim.pids:
            forged = sim.layer(pid, "tok")
            forged.have_token = True
            forged.token_epoch = 0
        driver = RequestDriver(sim, "tok", requests_per_process=1)
        sim.run(2_000_000, until=lambda s: driver.done)
        yield f"token-tok-forged-seed{seed}", Recorded(
            "me", sim.trace, ("tok",),
            {"horizon": sim.now, "require_all_served": False})


def _example_module():
    path = Path(__file__).parent.parent / "examples" / "fault_injection.py"
    spec = importlib.util.spec_from_file_location("_fault_injection", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simulated() -> list[tuple[str, Recorded]]:
    """Every simulated entry of the corpus, labelled, in a fixed order."""
    from repro.analysis import ablations, experiments
    from repro.sim.channel import BernoulliLoss, DropFirstK

    entries = list(_baseline_runs())

    def labelled(prefix: str, calls: list[Recorded]) -> None:
        entries.extend((f"{prefix}-{i}", call) for i, call in enumerate(calls))

    for max_state in (1, 2, 3, 4):
        with _captured(ablations) as calls:
            ablations.run_flag_ablation(max_state)
        labelled(f"flag-ablation-max_state{max_state}", calls)
    with _captured(ablations) as calls:
        ablations.run_naive_ablation(seeds=[0, 1, 2])
    labelled("naive-ablation", calls)
    with _captured(experiments) as calls:
        experiments.run_fault_model_sweep(seeds=[0, 1, 2])
    labelled("fault-sweep", calls)
    example = _example_module()
    with _captured(example) as calls:
        for name, loss in (("bernoulli", BernoulliLoss(0.5)),
                           ("drop-first", DropFirstK(30)), ("scramble", None)):
            example.attack(name, loss, seed=1)
    labelled("fault-injection", calls)
    return entries


# -- verdict records -----------------------------------------------------

def record(verdict) -> dict[str, Any]:
    """What ``spec_verdicts.json`` pins of one verdict."""
    counts = {
        prop: len(verdict.by_property(prop))
        for prop in PROPERTIES if verdict.by_property(prop)
    }
    assert sum(counts.values()) == len(verdict.violations)
    return {"violations": counts, "info": dict(verdict.info)}


def check_case(case: Case):
    """The finished-trace driver over one crafted case."""
    options = {**case.scope, **case.finish}
    if case.spec == "me":
        options["horizon"] = HORIZON
    return checker(case.spec)(case.trace(), case.spec, *case.truth, **options)


# -- the per-row driver --------------------------------------------------

def _live(spec: str, tag: str, truth, scope: dict, rows, finish: dict):
    """Judge ``rows`` one at a time through a SpecMonitor."""
    from repro.net.monitors import SpecMonitor
    from repro.spec import IdlAutomaton, MutexAutomaton, PifAutomaton

    automaton = {
        "pif": PifAutomaton, "idl": IdlAutomaton, "me": MutexAutomaton,
    }[spec](tag, *truth, **scope)
    monitor = SpecMonitor(automaton)
    for row in rows:
        monitor.observe(*row)
    return monitor.report(**finish)


def live_case(case: Case):
    """The per-row driver over one crafted case."""
    return _live(case.spec, case.spec, case.truth, case.scope, case.rows,
                 case.finish)


def live_recorded(call: Recorded):
    """The per-row driver over one captured ``check_*`` call."""
    tag, *truth = call.args
    scope = {k: v for k, v in call.kwargs.items() if k in SCOPE_KEYS}
    finish = {k: v for k, v in call.kwargs.items()
              if k not in SCOPE_KEYS and k != "horizon"}
    return _live(call.spec, tag, truth, scope, call.trace.scan(), finish)
