"""Unit tests for traces and semantic events."""

from __future__ import annotations

import operator
import pickle
import tracemalloc

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

    def test_first(self):
        trace = make_trace()
        first = trace.first(EventKind.START)
        assert first is not None and first.time == 2
        assert trace.first(EventKind.CS_ENTER) is None
        assert trace.first(EventKind.DECIDE, wave=(1, 1)).time == 9
        assert trace.first(EventKind.DECIDE, wave=(2, 1)) is None

    def test_getitem_and_data_access(self):
        trace = make_trace()
        event = trace[2]
        assert event["sender"] == 1
        assert event.get("missing", "default") == "default"

    def test_slicing(self):
        trace = make_trace()
        assert [e.kind for e in trace[1:3]] == [
            EventKind.START, EventKind.RECEIVE_BRD,
        ]
        assert [e.time for e in trace[-2:]] == [8, 9]
        assert trace[-1].kind == EventKind.DECIDE

    def test_a_view_is_built_per_read(self, built_events):
        trace = make_trace()
        assert trace[0] == trace[0] and trace[0] is not trace[0]
        assert len(built_events) == 4

    def test_a_read_payload_is_a_fresh_dict(self):
        trace = make_trace()
        data = trace.data_at(2)
        assert data == {"tag": "pif", "sender": 1, "payload": "m"}
        data["sender"] = 9
        assert trace.data_at(2)["sender"] == 1 and trace[2]["sender"] == 1

    def test_a_repeated_kind_reads_a_row_once(self):
        trace = make_trace()
        assert trace.rows_of(EventKind.DECIDE, EventKind.DECIDE) == [4]
        assert trace.rows_of(EventKind.START, EventKind.DECIDE,
                             EventKind.START) == [1, 4]
        assert trace.count(EventKind.DECIDE, EventKind.DECIDE) == 1
        assert [row[0] for row in trace.scan(
            EventKind.DECIDE, EventKind.DECIDE)] == [9]
        assert len(trace.of_kind(EventKind.START, EventKind.START)) == 1


class TestColumns:
    """``columns`` out, ``append_rows`` in: the store a shard ships and the
    row stream a trace merge appends."""

    def test_round_trip_equals_the_source(self):
        source = make_trace()
        copy = Trace()
        shipped = pickle.loads(pickle.dumps(source.columns()))
        assert len(shipped) == 5  # times, kinds, procs, keys, values
        copy.append_rows(zip(*shipped))
        assert list(copy.scan()) == list(source.scan())
        # A row's values tuple is kept, not copied ...
        assert all(map(operator.is_, copy.columns()[4], shipped[4]))
        # ... and the keys tuples stay shared: one object per payload shape.
        keys = copy.columns()[3]
        assert len({id(k) for k in keys}) == len(set(keys)) == 3
        assert copy.canonical_hash() == source.canonical_hash()
        assert list(copy) == list(source)

    def test_a_kind_never_emitted_here_arrives_indexed(self):
        # "foreign-kind" is no EventKind: the receiving trace meets it
        # first in the shipped columns.
        def emit_all(trace: Trace) -> None:
            trace.emit(1, "foreign-kind", 3, note="custom")
            trace.emit(2, EventKind.DECIDE, 1, tag="pif")
            trace.emit(2, EventKind.REQUEST, None)
            trace.emit(4, "foreign-kind", 1)
            trace.emit(5, EventKind.DECIDE, 3, tag="pif")

        theirs = Trace()
        emit_all(theirs)
        shipped = pickle.dumps(theirs.columns())

        arrived = Trace()
        arrived.emit(0, EventKind.NOTE, None)
        arrived.append_rows(zip(*pickle.loads(shipped)))
        ours = Trace()
        ours.emit(0, EventKind.NOTE, None)
        emit_all(ours)
        assert arrived.canonical_hash() == ours.canonical_hash()
        assert list(arrived.kind_rows("foreign-kind")) == [1, 4]
        for kinds in (("foreign-kind",), (EventKind.DECIDE,),
                      ("foreign-kind", EventKind.REQUEST), (EventKind.START,)):
            assert arrived.rows_of(*kinds) == ours.rows_of(*kinds)
            assert arrived.count(*kinds) == ours.count(*kinds)
            assert list(arrived.scan(*kinds)) == list(ours.scan(*kinds))
            assert arrived.of_kind(*kinds) == ours.of_kind(*kinds)
        assert arrived.first("foreign-kind", note="custom") == TraceEvent(
            1, "foreign-kind", 3, {"note": "custom"})

    def test_bulk_append_keeps_the_rows_in_append_order(self):
        trace = make_trace()
        # A merged trace's shape: time-0 markers after later rows.
        trace.append_rows(zip(
            [0, 0], [EventKind.SCRAMBLE, EventKind.INJECT], [None, None],
            [("what",), ("src", "dst")], [("processes",), (1, 2)]))
        assert [e.time for e in trace] == [0, 2, 5, 8, 9, 0, 0]
        assert trace[5].kind == EventKind.SCRAMBLE
        assert trace.data_at(6) == {"src": 1, "dst": 2}
        assert trace.rows_of(EventKind.INJECT, EventKind.REQUEST) == [0, 6]
        trace.emit(10, EventKind.SCRAMBLE, None)
        assert trace.rows_of(EventKind.SCRAMBLE) == [5, 7]

    def test_bulk_append_builds_no_event(self, built_events):
        trace = Trace()
        times, kinds, procs, keys, values = make_trace().columns()
        trace.append_rows(zip(times, kinds, procs, keys, values))
        assert list(trace.scan(EventKind.START)) and trace.canonical_hash()
        assert built_events == []
        assert trace[0].kind == EventKind.REQUEST and len(built_events) == 1

    def test_a_row_costs_at_most_140_bytes(self):
        # A receive-brd row whose values (tick, tag, sender, payload, wave)
        # are shared objects, as in a trial: what is measured is the store.
        # A row kept as a payload dict costs about 254 bytes.
        rows = 10_000
        now, wave = 10_000, (2, 7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = Trace()
            for t in range(rows):
                trace.emit(now, EventKind.RECEIVE_BRD, 1 + (t & 7), tag="pif",
                           sender=2, payload="m", wave=wave)
            per_row = (tracemalloc.get_traced_memory()[0] - before) / rows
        finally:
            tracemalloc.stop()
        assert len(trace) == rows
        assert per_row <= 140, f"{per_row:.0f} B a trace row"


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
