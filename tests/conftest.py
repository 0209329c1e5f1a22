"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

import repro.sim.trace as trace_module
from repro.core.idl import IdlLayer
from repro.core.mutex import MutexLayer
from repro.core.pif import PifLayer
from repro.core.protocols import PROTOCOLS
from repro.engine import TrialSpec
from repro.sim.runtime import Simulator


def build_pif(host) -> None:
    host.register(PifLayer("pif"))


def build_idl(host) -> None:
    host.register(IdlLayer("idl"))


def build_me(host) -> None:
    host.register(MutexLayer("me"))


def trial_spec(kind: str, n: int, **axes) -> TrialSpec:
    """A one-request-per-process trial of ``kind``: ``axes`` are
    :class:`TrialSpec` fields, the experiment half is the protocol row's."""
    return PROTOCOLS[kind].describe(
        TrialSpec(n=n, **axes), requests_per_process=1)


@pytest.fixture
def pif_sim() -> Simulator:
    """A three-process system running one PIF instance."""
    return Simulator(3, build_pif, seed=0)


@pytest.fixture
def pif_pair() -> Simulator:
    """A two-process system running one PIF instance, manual mode."""
    return Simulator(2, build_pif, seed=0, auto=False)


@pytest.fixture
def idl_sim() -> Simulator:
    return Simulator(4, build_idl, seed=0)


@pytest.fixture
def me_sim() -> Simulator:
    return Simulator(4, build_me, seed=0)


@pytest.fixture
def built_events(monkeypatch) -> list:
    """Every :class:`~repro.sim.trace.TraceEvent` built while the test
    runs — by a view (``Trace._event``) or by unpickling one off the
    wire; both look the class up in its module."""
    built: list = []

    class Counted(trace_module.TraceEvent):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(trace_module, "TraceEvent", Counted)
    return built
