"""Unit tests for traces and semantic events."""

from __future__ import annotations

import pickle

import repro.sim.trace as trace_module
from repro.sim.trace import EventKind, Trace, TraceEvent


def make_trace() -> Trace:
    trace = Trace()
    trace.emit(0, EventKind.REQUEST, 1, tag="pif")
    trace.emit(2, EventKind.START, 1, tag="pif", wave=(1, 1))
    trace.emit(5, EventKind.RECEIVE_BRD, 2, tag="pif", sender=1, payload="m")
    trace.emit(8, EventKind.RECEIVE_FCK, 1, tag="pif", sender=2, payload="f")
    trace.emit(9, EventKind.DECIDE, 1, tag="pif", wave=(1, 1))
    return trace


class TestEmitAndQuery:
    def test_length_and_iteration(self):
        trace = make_trace()
        assert len(trace) == 5
        assert [e.kind for e in trace] == [
            EventKind.REQUEST, EventKind.START, EventKind.RECEIVE_BRD,
            EventKind.RECEIVE_FCK, EventKind.DECIDE,
        ]

    def test_of_kind(self):
        trace = make_trace()
        assert len(trace.of_kind(EventKind.START)) == 1
        assert len(trace.of_kind(EventKind.START, EventKind.DECIDE)) == 2

    def test_for_process(self):
        trace = make_trace()
        assert len(trace.for_process(1)) == 4
        assert len(trace.for_process(2)) == 1
        assert len(trace.for_process(1, EventKind.DECIDE)) == 1

    def test_between(self):
        trace = make_trace()
        assert [e.kind for e in trace.between(2, 8)] == [
            EventKind.START, EventKind.RECEIVE_BRD, EventKind.RECEIVE_FCK,
        ]

    def test_where(self):
        trace = make_trace()
        assert len(trace.where(sender=1)) == 1
        assert len(trace.where(tag="pif")) == 5
        assert trace.where(sender=99) == []

    def test_first_and_last(self):
        trace = make_trace()
        first = trace.first(EventKind.START)
        assert first is not None and first.time == 2
        assert trace.first(EventKind.CS_ENTER) is None
        last = trace.last(EventKind.DECIDE, wave=(1, 1))
        assert last is not None and last.time == 9

    def test_getitem_and_data_access(self):
        trace = make_trace()
        event = trace[2]
        assert event["sender"] == 1
        assert event.get("missing", "default") == "default"

    def test_events_property_is_tuple(self):
        trace = make_trace()
        assert isinstance(trace.events, tuple)

    def test_slicing(self):
        trace = make_trace()
        assert [e.kind for e in trace[1:3]] == [
            EventKind.START, EventKind.RECEIVE_BRD,
        ]
        assert [e.time for e in trace[-2:]] == [8, 9]
        assert trace[-1].kind == EventKind.DECIDE

    def test_extend(self):
        trace = Trace()
        trace.extend([TraceEvent(0, EventKind.NOTE, None)])
        assert len(trace) == 1


class TestColumns:
    """``columns`` / ``append_columns``: the bulk path a trace merge uses."""

    def test_round_trip_equals_the_source(self):
        source = make_trace()
        copy = Trace()
        copy.append_columns(*pickle.loads(pickle.dumps(source.columns())))
        assert list(copy.scan()) == list(source.scan())
        assert copy.canonical_hash() == source.canonical_hash()
        assert copy.events == source.events

    def test_kinds_interned_in_another_order_map_on_arrival(self, monkeypatch):
        # Another interpreter's kind table: ids follow *its* first-use
        # order, and "foreign-kind" is a vocabulary this process never saw.
        def emit_all(trace: Trace) -> None:
            trace.emit(1, "foreign-kind", 3, note="custom")
            trace.emit(2, EventKind.DECIDE, 1, tag="pif")
            trace.emit(2, EventKind.REQUEST, None)
            trace.emit(4, "foreign-kind", 1)
            trace.emit(5, EventKind.DECIDE, 3, tag="pif")

        with monkeypatch.context() as foreign:
            foreign.setattr(trace_module, "_KIND_IDS", {})
            foreign.setattr(trace_module, "_KIND_NAMES", [])
            theirs = Trace()
            emit_all(theirs)
            assert theirs._kind_ids == [0, 1, 2, 0, 1]
            shipped = pickle.dumps(theirs.columns())
        assert "foreign-kind" not in trace_module._KIND_IDS

        arrived = Trace()
        arrived.emit(0, EventKind.NOTE, None)
        arrived.append_columns(*pickle.loads(shipped))
        ours = Trace()
        ours.emit(0, EventKind.NOTE, None)
        emit_all(ours)
        assert arrived.canonical_hash() == ours.canonical_hash()
        for kinds in (("foreign-kind",), (EventKind.DECIDE,),
                      ("foreign-kind", EventKind.REQUEST), (EventKind.START,)):
            assert arrived.rows_of(*kinds) == ours.rows_of(*kinds)
            assert arrived.count(*kinds) == ours.count(*kinds)
            assert arrived.of_kind(*kinds) == ours.of_kind(*kinds)
        for pid in (1, 3, 7):
            assert arrived.for_process(pid) == ours.for_process(pid)
        assert arrived.for_process(1, "foreign-kind") == ours.for_process(1, "foreign-kind")

    def test_bulk_append_keeps_cache_and_monotone_flag_honest(self):
        trace = make_trace()
        assert len(trace.events) == 5  # fills the cache
        # A merged trace's shape: time-0 markers after later rows.
        trace.append_columns(
            [0, 0], [EventKind.SCRAMBLE, EventKind.INJECT], [None, None],
            [{"what": "processes"}, {"src": 1, "dst": 2}])
        assert len(trace.events) == 7
        assert trace.events[5].kind == EventKind.SCRAMBLE
        assert not trace._monotone
        assert [e.kind for e in trace.between(0, 0)] == [
            EventKind.REQUEST, EventKind.SCRAMBLE, EventKind.INJECT]

    def test_bulk_append_of_sorted_times_stays_monotone(self):
        trace = make_trace()
        trace.append_columns([9, 9, 12], [EventKind.NOTE] * 3, [None] * 3,
                             [{}, {}, {}])
        assert trace._monotone
        assert len(trace.between(9, 9)) == 3
        late = Trace()
        late.append_columns([3, 2], [EventKind.NOTE] * 2, [None] * 2, [{}, {}])
        assert not late._monotone
        stale = make_trace()
        stale.append_columns([8], [EventKind.NOTE], [None], [{}])
        assert not stale._monotone  # 8 after the 9 already stored

    def test_bulk_append_builds_no_event(self, built_events):
        trace = Trace()
        trace.append_columns(*make_trace().columns())
        assert list(trace.scan(EventKind.START)) and trace.canonical_hash()
        assert built_events == []
        assert trace[0].kind == EventKind.REQUEST and len(built_events) == 1

    def test_extend_reuses_the_given_views(self):
        events = [TraceEvent(0, EventKind.NOTE, None), TraceEvent(1, "my-kind", 2)]
        trace = Trace()
        trace.extend(iter(events))
        assert trace[0] is events[0] and trace[1] is events[1]
        assert trace.rows_of("my-kind") == [1]


class TestStats:
    def test_counters(self):
        from repro.sim.stats import SimStats

        stats = SimStats()
        stats.record_send("a")
        stats.record_send("a")
        stats.record_send("b")
        stats.record_delivery("a")
        stats.dropped_full += 1
        stats.dropped_loss += 1
        assert stats.sent == 3
        assert stats.delivered == 1
        assert stats.dropped == 2
        assert stats.sent_by_tag["a"] == 2
        assert stats.delivered_by_tag["a"] == 1
        assert 0 < stats.delivery_ratio < 1

    def test_delivery_ratio_empty(self):
        from repro.sim.stats import SimStats

        assert SimStats().delivery_ratio == 1.0

    def test_as_dict(self):
        from repro.sim.stats import SimStats

        d = SimStats().as_dict()
        assert set(d) >= {"sent", "delivered", "dropped_full", "dropped_loss"}
