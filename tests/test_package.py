"""Package-level tests: public API surface, errors, types."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ChannelError,
    ConfigurationError,
    ImpossibilityConstructionError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
)
from repro.types import RequestState


class TestPublicApi:
    def test_version(self):
        # Written once, in repro/__init__.py; pyproject reads it from there.
        assert repro.__version__ == "0.8.0"
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert 'version = {attr = "repro.__version__"}' in text
        assert "\nversion = \"" not in text

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        """The lazy package surfaces (repro._lazy) offer exactly what the
        eager ones did: every ``__all__`` name resolves, is listed by
        ``dir``, survives a star import, and a miss is AttributeError."""
        for package in ("repro", "repro.analysis", "repro.applications",
                        "repro.baselines", "repro.chaos", "repro.core",
                        "repro.engine", "repro.net", "repro.net.transport",
                        "repro.obs", "repro.sim", "repro.spec"):
            module = importlib.import_module(package)
            listed = dir(module)
            for name in module.__all__:
                assert hasattr(module, name), f"{package}.{name}"
                assert name in listed, f"dir({package}) misses {name}"
            namespace: dict = {}
            exec(f"from {package} import *", namespace)
            assert set(module.__all__) <= set(namespace), package
            with pytest.raises(AttributeError):
                module.no_such_name


class TestErrors:
    def test_hierarchy(self):
        for exc in (SimulationError, SchedulerError, ChannelError,
                    ConfigurationError, ProtocolError,
                    ImpossibilityConstructionError):
            assert issubclass(exc, ReproError)
        assert issubclass(SchedulerError, SimulationError)
        assert issubclass(ChannelError, SimulationError)


class TestRequestState:
    def test_three_states(self):
        assert {s.value for s in RequestState} == {"Wait", "In", "Done"}

    def test_repr(self):
        assert repr(RequestState.WAIT) == "RequestState.WAIT"
