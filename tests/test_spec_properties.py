"""Hypothesis property: the two drivers of a specification automaton agree.

Generates row sequences over each specification's alphabet — pids 1–4, at
most three wave ids, same-tick rows in every emission order, garbage rows
without a ``wave``, rows of a foreign tag, the odd row without a process —
and asserts that ``check_*`` over the finished trace and a ``SpecMonitor``
fed the rows one at a time return the same verdict, violation for violation, on
the complete-graph reading and on the ``neighbors`` / ``clusters``-scoped
one.  The crafted table lives in ``tests/test_spec.py``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.trace import EventKind as K  # noqa: E402

import spec_corpus  # noqa: E402
from spec_corpus import check_case, live_case  # noqa: E402

_PID = st.integers(min_value=1, max_value=4)
_PROCESS = st.one_of(_PID, _PID, _PID, st.none())
_RING = {1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (1, 3)}
_WAVES = [(1, 1), (2, 1), (1, 2)]


def _tagged(tag: str, fields: dict) -> st.SearchStrategy:
    """Event data: mostly ``tag``, sometimes a foreign instance's."""
    return st.fixed_dictionaries(
        {"tag": st.sampled_from([tag, tag, tag, "other"])}, optional=fields)


_ALPHABET = {
    "pif": (
        (K.REQUEST, K.START, K.DECIDE, K.RECEIVE_BRD, K.RECEIVE_FCK),
        _tagged("pif", {
            # ≤ 3 wave ids; garbage rows carry none (absent or None).
            "wave": st.one_of(st.sampled_from(_WAVES), st.none()),
            "sender": _PID,
            "payload": st.sampled_from(["m", "x"]),
        }),
    ),
    "idl": (
        (K.REQUEST, K.START, K.DECIDE),
        _tagged("idl", {
            "min_id": st.integers(min_value=1, max_value=3),
            "id_tab": st.dictionaries(_PID, _PID, max_size=4),
        }),
    ),
    "me": (
        (K.REQUEST, K.DECIDE, K.CS_ENTER, K.CS_EXIT),
        _tagged("me", {"requested": st.booleans()}),
    ),
}

_TRUTH = {"pif": ((1, 2, 3, 4),), "idl": ({1: 1, 2: 2, 3: 3, 4: 4},), "me": ()}
_SCOPES = {
    "pif": {"neighbors": _RING},
    "idl": {"neighbors": _RING},
    "me": {"clusters": [{1, 2}, {3, 4}]},
}


@st.composite
def _cases(draw) -> spec_corpus.Case:
    spec = draw(st.sampled_from(sorted(_ALPHABET)))
    kinds, data = _ALPHABET[spec]
    steps = draw(st.lists(
        # Delta 0 twice: same-tick rows in every emission order.
        st.tuples(st.sampled_from([0, 0, 1, 2]), st.sampled_from(kinds),
                  _PROCESS, data),
        max_size=30))
    rows, now = [], 0
    for delta, kind, process, fields in steps:
        now += delta
        rows.append((now, kind, process, fields))
    scoped = draw(st.booleans())
    return spec_corpus.Case(
        spec, tuple(rows), _TRUTH[spec], _SCOPES[spec] if scoped else {})


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_drivers_agree_on_generated_rows(case):
    offline, live = check_case(case), live_case(case)
    assert offline.violations == live.violations
    assert offline.info == live.info
    assert live.events_observed == sum(
        1 for _t, _k, _p, data in case.rows if data["tag"] == case.spec)
