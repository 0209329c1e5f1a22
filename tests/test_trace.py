"""Unit tests for traces and semantic events."""

from __future__ import annotations

import operator
import pickle
import tracemalloc

import pytest

from repro.sim.trace import EventKind, Trace, TraceEvent, narrowest


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
        assert [row[0] for row in trace.scan(
            EventKind.DECIDE, EventKind.DECIDE)] == [9]
        assert len(trace.of_kind(EventKind.START, EventKind.START)) == 1


def merged(*traces: Trace) -> Trace:
    """``Trace.merged`` of each trace's rows in turn, as one run each."""
    return Trace.merged([list(trace.store()) for trace in traces],
                        [(source, len(trace)) for source, trace in enumerate(traces)])


class TestColumns:
    """``store`` out, ``Trace.merged`` in: the coded store a shard ships
    and the trace a shard merge builds from the shipped stores."""

    def test_the_store_returns_the_very_objects_emitted(self):
        # Codes index one table of objects by identity, not equality: 1,
        # True and 1.0 stay three objects, two equal strings stay two, and
        # an unhashable payload is coded like any other.
        first, second = "".join(["pay", "load"]), "".join(["pay", "load"])
        assert first == second and first is not second
        table = {"id_tab": {1: 50}}
        values = [1, True, 1.0, first, second, table, None, first, True]
        trace = Trace()
        for t, value in enumerate(values):
            trace.emit(t, EventKind.NOTE, 1, tag="x", v=value)
        copy = merged(make_trace(), trace)
        for store, rows in ((trace, range(len(values))),
                            (copy, range(5, 5 + len(values)))):
            scanned = [data["v"] for *_, data in store.scan(EventKind.NOTE)]
            read = [store.data_at(row)["v"] for row in rows]
            for got in (scanned, read):
                assert all(map(operator.is_, got, values)), got
        assert len(trace.store()[1]) == len(values) - 1  # None is code 0
        # A whole-trace read dropped the id → code map: rows after it
        # code the same objects with the codes they had.
        for t, value in enumerate(values):
            trace.emit(t, EventKind.NOTE, 1, tag="x", v=value)
        assert len(trace.store()[1]) == len(values) - 1
        scanned = [data["v"] for *_, data in trace.scan(EventKind.NOTE)]
        assert all(map(operator.is_, scanned, values * 2)), scanned

    def test_codes_widen_with_the_table(self):
        # Two bytes a code while the table holds 65 536 objects, four past
        # it; every value reads back, the earlier rows' too.
        for distinct, typecode in ((65_536, "H"), (65_537, "I")):
            values = [object() for _ in range(distinct - 1)]
            trace = Trace()
            for t, value in enumerate(values):
                trace.emit(t, EventKind.NOTE, None, v=value)
            trace.emit(len(values), EventKind.NOTE, None, v=values[0])
            times, shapes, procs, codes = trace.columns()
            assert len(trace.store()[1]) == distinct
            assert codes.typecode == typecode and shapes.typecode == "B"
            assert codes[-1] == codes[0] == 1 and codes[-2] == distinct - 1
            got = [data["v"] for *_, data in trace.scan()]
            assert all(map(operator.is_, got, values + values[:1]))
        # A shape a tag: past 256 shapes the shape column widens to two
        # bytes, in a trace and in a merge whose tables pass 256 together;
        # a tag scan and data_at read every row back.
        tags = [f"t{i}" for i in range(300)]
        trace, low, high = Trace(), Trace(), Trace()
        for t, tag in enumerate(tags * 2):
            trace.emit(t, EventKind.NOTE, 1, tag=tag, v=t)
            (low if t % 300 < 150 else high).emit(t, EventKind.NOTE, 1, tag=tag, v=t)
        copy = merged(low, high)
        assert [store.columns()[1].typecode for store in (trace, low, copy)] == [
            "H", "B", "H"]
        for store, order in ((trace, range(600)),
                             (copy, [*range(150), *range(300, 450),
                                     *range(150, 300), *range(450, 600)])):
            rows = [store.data_at(row) for row in range(len(store))]
            assert rows == [{"tag": tags[t % 300], "v": t} for t in order]
            for tag in tags:
                assert [data["v"] for *_, data in store.scan(
                    EventKind.NOTE, tag=tag)] == [
                    t for t in order if tags[t % 300] == tag]
        assert [narrowest(top) for top in (0, 255, 256, 65_535, 65_536,
                                           (1 << 32) - 1, 1 << 32)] == [
            "B", "B", "H", "H", "I", "I", "Q"]

    def test_round_trip_equals_the_source(self):
        source = make_trace()
        shipped = list(pickle.loads(pickle.dumps(source.store())))
        copy = Trace.merged([shipped], [(0, len(source))])
        assert shipped == [None] * len(shipped), "the merge consumes its sources"
        assert len(copy) == len(source)
        assert list(copy.scan()) == list(source.scan())
        assert [copy.data_at(row) for row in range(len(copy))] == [
            source.data_at(row) for row in range(len(source))]
        for kinds in ((EventKind.START,), (EventKind.DECIDE, EventKind.REQUEST)):
            assert list(copy.scan(*kinds)) == list(source.scan(*kinds))
        # The shape table arrives as it was: one keys tuple per shape.
        assert copy.store()[0] == [
            ("request", ("tag",), "pif"), ("start", ("tag", "wave"), "pif"),
            ("receive-brd", ("tag", "sender", "payload"), "pif"),
            ("receive-fck", ("tag", "sender", "payload"), "pif"),
            ("decide", ("tag", "wave"), "pif")]
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
        shipped = list(pickle.loads(pickle.dumps(theirs.store())))

        note = Trace()
        note.emit(0, EventKind.NOTE, None)
        arrived = Trace.merged([list(note.store()), shipped], [(0, 1), (1, 5)])
        ours = Trace()
        ours.emit(0, EventKind.NOTE, None)
        emit_all(ours)
        assert arrived.canonical_hash() == ours.canonical_hash()
        assert list(arrived.kind_rows("foreign-kind")) == [1, 4]
        for kinds in (("foreign-kind",), (EventKind.DECIDE,),
                      ("foreign-kind", EventKind.REQUEST), (EventKind.START,)):
            assert arrived.rows_of(*kinds) == ours.rows_of(*kinds)
            assert list(arrived.scan(*kinds)) == list(ours.scan(*kinds))
            assert arrived.of_kind(*kinds) == ours.of_kind(*kinds)
        assert arrived.first("foreign-kind", note="custom") == TraceEvent(
            1, "foreign-kind", 3, {"note": "custom"})

    def test_sources_of_different_widths_interleave(self):
        # A merged row pads to the widest payload of every source, and a
        # wider row arriving later opens its columns.
        narrow, wide, serial = Trace(), Trace(), Trace()
        narrow.emit(1, EventKind.DECIDE, 2, tag="pif")
        narrow.emit(3, EventKind.CS_EXIT, None)
        wide.emit(2, EventKind.RECEIVE_BRD, 1, tag="pif", sender=2,
                  payload="m", wave=(2, 1))
        for row in (narrow[0], wide[0], narrow[1]):
            serial.emit(row.time, row.kind, row.process, **row.data)
        note = Trace()
        note.emit(0, EventKind.NOTE, None)
        serial_merged = merged(note, serial)
        interleaved = Trace.merged(
            [list(note.store()), list(narrow.store()),
             list(wide.store())],
            [(0, 1), (1, 1), (2, 1), (1, 1)])
        assert list(interleaved.scan()) == list(serial_merged.scan())
        assert interleaved.data_at(3) == {}
        assert interleaved.canonical_hash() == serial_merged.canonical_hash()
        interleaved.emit(4, EventKind.REQUEST, 5, tag="pif", payload="x")
        assert interleaved.data_at(4) == {"tag": "pif", "payload": "x"}
        assert interleaved[4].process == 5 and interleaved[3].process is None

    def test_bulk_append_keeps_the_rows_in_append_order(self):
        # A merged trace's shape: time-0 markers after later rows.
        markers = Trace()
        markers.emit(0, EventKind.SCRAMBLE, None, what="processes")
        markers.emit(0, EventKind.INJECT, None, src=1, dst=2)
        trace = merged(make_trace(), markers)
        assert [e.time for e in trace] == [0, 2, 5, 8, 9, 0, 0]
        assert trace[5].kind == EventKind.SCRAMBLE
        assert trace.data_at(6) == {"src": 1, "dst": 2}
        assert trace.rows_of(EventKind.INJECT, EventKind.REQUEST) == [0, 6]
        trace.emit(10, EventKind.SCRAMBLE, None)
        assert trace.rows_of(EventKind.SCRAMBLE) == [5, 7]

    def test_bulk_append_builds_no_event(self, built_events):
        trace = merged(make_trace())
        assert list(trace.scan(EventKind.START)) and trace.canonical_hash()
        assert built_events == []
        assert trace[0].kind == EventKind.REQUEST and len(built_events) == 1

    def test_a_long_trace_reads_back_what_was_emitted(self):
        # Enough rows to settle the pending payload entries several times
        # and to gather a sparse scan in several chunks; the widest shape
        # arrives late, so earlier rows are padded after the fact.
        shapes = [
            (EventKind.RECEIVE_BRD, lambda t: {"tag": "pif", "sender": t % 5,
                                               "payload": "m", "wave": (1, t)}),
            (EventKind.DECIDE, lambda t: {"tag": "pif", "wave": (1, t)}),
            (EventKind.CS_EXIT, lambda t: {"tag": "me"}),
            (EventKind.NOTE, lambda t: {}),
        ]
        rows = []
        for t in range(6000):
            kind, make = shapes[t % 7 % 4]
            data = make(t)
            if t > 4500 and t % 11 == 0:
                kind, data = EventKind.INJECT, {"src": 1, "dst": 2, "tag": "x",
                                                "a": t, "b": None}
            rows.append((t, kind, None if t % 13 == 0 else t % 9, data))
        trace = Trace()
        for row in rows:
            trace.emit(row[0], row[1], row[2], **row[3])
        assert list(trace.scan()) == rows
        assert [trace.data_at(i) for i in range(len(rows))] == [r[3] for r in rows]
        for kinds in ((EventKind.RECEIVE_BRD, EventKind.DECIDE,
                       EventKind.CS_EXIT),                    # dense
                      (EventKind.RECEIVE_BRD,),  # sparse, two chunks
                      (EventKind.INJECT,), (EventKind.NOTE,)):
            assert list(trace.scan(*kinds)) == [r for r in rows if r[1] in kinds]
        expected = Trace()
        for row in rows:
            expected.emit(row[0], row[1], row[2], **row[3])
            expected.data_at(0)  # settles after every row
        assert trace.canonical_hash() == expected.canonical_hash()

    def test_a_tagged_scan_builds_only_that_instances_rows(self):
        # One kind in one shape (its tag first, or not), one kind in four
        # shapes (one without a tag, one whose first value looks like the
        # tag), a lone row, and scans sparse and dense.
        trace, rows = Trace(), []

        def emit(t, kind, **data):
            trace.emit(t, kind, t % 3, **data)
            rows.append((t, kind, t % 3, data))

        for t in range(400):
            instance = "me" if t % 10 == 0 else "idl"
            emit(t, EventKind.RECEIVE_BRD, tag=instance, wave=(1, t))
            emit(t, EventKind.INJECT, src=1, dst=2, tag=instance)
            emit(t, EventKind.CS_ENTER, **[
                {"tag": instance}, {"requested": True, "tag": instance},
                {"requested": False}, {"note": "me", "tag": "idl"}][t % 4])
        emit(400, EventKind.DECIDE, tag="me")
        # The same rows arrived from a shard (shapes the store never
        # interned), and a trace of one instance (the dense path's case).
        arrived = merged(trace)
        alone = Trace()
        for t in range(50):
            alone.emit(t, EventKind.RECEIVE_BRD, 1, tag="idl", wave=(1, t))
        alone.emit(50, EventKind.NOTE, None, what="idl")
        for store, expected in ((trace, rows), (arrived, rows),
                                (alone, [(e.time, e.kind, e.process, e.data)
                                         for e in alone])):
            for kinds in ((EventKind.RECEIVE_BRD,), (EventKind.INJECT,),
                          (EventKind.CS_ENTER,), (EventKind.DECIDE,),
                          (EventKind.RECEIVE_BRD, EventKind.INJECT,
                           EventKind.CS_ENTER, EventKind.DECIDE)):
                # None picks the rows without a tag, as data.get reads them.
                for tag in ("me", "idl", "gossip", None):
                    assert list(store.scan(*kinds, tag=tag)) == [
                        r for r in expected
                        if r[1] in kinds and r[3].get("tag") == tag], (kinds, tag)

    def test_a_process_outside_the_column_is_refused(self):
        # The process column holds ints and None; anything else is an
        # emitter's error, never stored as "no process".
        # A refused row leaves the store as it was: no column grows.
        trace = Trace()
        trace.emit(0, EventKind.NOTE, 1, text="kept")
        before = list(trace.scan())
        for process in ("p1", -1, 1 << 32):
            with pytest.raises((TypeError, OverflowError)):
                trace.emit(1, EventKind.NOTE, process, text="refused")
        assert len(trace) == 1
        assert list(trace.scan()) == before
        assert list(trace.scan(EventKind.NOTE)) == before
        assert trace.kind_rows(EventKind.NOTE).tolist() == [0]
        trace.emit(2, EventKind.NOTE, None, text="next")
        assert [row[2] for row in trace.scan()] == [1, None]

    def test_a_time_outside_the_column_is_refused(self):
        # The time column is a 4-byte array("I") like the process column:
        # a tick it cannot hold is refused, and the refused row leaves no
        # column grown (the process column is written first).
        trace = Trace()
        trace.emit(0, EventKind.NOTE, 1, text="kept")
        before = list(trace.scan())
        for time in (-1, 1 << 32, "t1", 1.5):
            with pytest.raises((TypeError, OverflowError)):
                trace.emit(time, EventKind.NOTE, 2, text="refused")
        assert len(trace) == 1 and trace.columns()[2].tolist() == [1]
        assert list(trace.scan()) == before
        assert list(trace.scan(EventKind.NOTE)) == before
        assert trace.kind_rows(EventKind.NOTE).tolist() == [0]
        assert trace.canonical_hash() == merged(trace).canonical_hash()
        trace.emit((1 << 32) - 1, EventKind.NOTE, None, text="next")
        assert [row[:3] for row in trace.scan()] == [
            (0, EventKind.NOTE, 1), ((1 << 32) - 1, EventKind.NOTE, None)]

    def test_a_row_costs_at_most_28_bytes(self):
        # A receive-brd row whose values (tick, tag, sender, payload, wave)
        # are shared objects, as in a trial: what is measured is the store,
        # ~23 B a row of codes.  A row kept as a payload dict costs about
        # 254 bytes, as a keys tuple plus a values tuple about 155, as
        # per-position columns of references about 66.
        per_row, _ = _bytes_a_row(lambda t: (2, 7))
        assert per_row <= 28, f"{per_row:.0f} B a trace row"

    def test_a_row_of_fresh_objects_is_reported(self, record_property):
        # A new wave tuple a row: the table holds every one of them, and
        # the id → code map their codes, so such a row costs more than a
        # column of references would (~206 B against ~153) until a
        # whole-trace read drops the map (~117 B).  Reported, not bounded.
        per_row, read = _bytes_a_row(lambda t: (2, t))
        record_property("fresh_wave_bytes_a_row", round(per_row))
        record_property("fresh_wave_bytes_a_row_read", round(read))
        print(f"a row with a fresh wave tuple: {per_row:.0f} B, {read:.0f} B read")

    def test_an_unhashable_tag_is_refused_whole(self):
        # The tag keys the row's shape: a tag the shape table cannot key
        # is refused like a refused time, and no column grows.
        trace = Trace()
        trace.emit(0, EventKind.NOTE, 1, tag="kept")
        for tag in ({"t": 1}, ["t"]):
            with pytest.raises(TypeError):
                trace.emit(1, "new-kind", 2, tag=tag)
            with pytest.raises(TypeError):
                trace.emit(1, EventKind.NOTE, 2, tag=tag)
        assert list(trace.scan()) == [(0, EventKind.NOTE, 1, {"tag": "kept"})]
        assert [len(column) for column in trace.columns()] == [1, 1, 1, 1]
        assert trace.kind_rows(EventKind.NOTE).tolist() == [0]
        assert trace.rows_of("new-kind") == []


def _bytes_a_row(wave) -> tuple[float, float]:
    """Traced bytes a receive-brd row of 20 000 costs, ``wave(t)`` its
    wave entry (the other values shared, as in a trial): as emitted, and
    after a whole-trace read (which drops the ``id`` → code map)."""
    rows = 20_000
    now = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace()
        for t in range(rows):
            trace.emit(now, EventKind.RECEIVE_BRD, 1 + (t & 7), tag="pif",
                       sender=2, payload="m", wave=wave(t))
        per_row = (tracemalloc.get_traced_memory()[0] - before) / rows
        trace.columns()
        read = (tracemalloc.get_traced_memory()[0] - before) / rows
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    return per_row, read


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
