"""The engine registry: adding a backend is one ``register`` call.

Built-in backends live in :mod:`repro.engine.backends`, one module each,
listed in :data:`BUILTIN` and imported when first resolved (import =
registration) — ``engine=serial`` never loads asyncio or the cluster
runtime.  Anything else (a plugin, a test double) calls :func:`register`
with an :class:`~repro.engine.base.EngineBackend` instance.
:func:`resolve` is the only lookup the pipeline performs — there is no
name dispatch anywhere else.
"""

from __future__ import annotations

from importlib import import_module

from repro.errors import SpecError
from repro.engine.base import EngineBackend

__all__ = ["BUILTIN", "register", "resolve", "unregister", "backends",
           "engine_names"]

#: Built-in backends: name → the module that registers it.
BUILTIN: dict[str, str] = {
    "async": "repro.engine.backends.async_",
    "cluster": "repro.engine.backends.cluster",
    "serial": "repro.engine.backends.serial",
    "sharded": "repro.engine.backends.sharded",
}

_BACKENDS: dict[str, EngineBackend] = {}


def _load_builtin(name: str) -> None:
    if name in BUILTIN and name not in _BACKENDS:
        import_module(BUILTIN[name])


def register(backend: EngineBackend) -> EngineBackend:
    """Register a backend under its :attr:`~EngineBackend.name`.

    Names are a flat namespace shared with the built-ins; a collision is
    an error (two engines answering ``engine=x`` would make provenance
    ambiguous) — :func:`unregister` first to replace one deliberately.
    """
    if not backend.name:
        raise SpecError("backend declares no name", field="engine")
    _load_builtin(backend.name)  # no-op while that built-in itself registers
    if backend.name in _BACKENDS:
        raise SpecError(
            f"engine name {backend.name!r} is already registered "
            f"(by {type(_BACKENDS[backend.name]).__name__})",
            field="engine")
    _BACKENDS[backend.name] = backend
    return backend


def unregister(name: str) -> None:
    """Remove a registered backend (test doubles, plugin reload)."""
    _load_builtin(name)  # so a later lazy import cannot bring it back
    _BACKENDS.pop(name, None)


def resolve(name: str) -> EngineBackend:
    """The backend answering ``engine=name``; :class:`SpecError` if none."""
    _load_builtin(name)
    try:
        return _BACKENDS[name]
    except KeyError:
        raise SpecError(
            f"unknown engine {name!r}; expected one of {engine_names()}",
            field="engine") from None


def backends() -> dict[str, EngineBackend]:
    """Snapshot of the registry (name → backend), every built-in loaded."""
    for name in BUILTIN:
        _load_builtin(name)
    return dict(_BACKENDS)


def engine_names() -> tuple[str, ...]:
    """Built-in and registered engine names, sorted (CLI choices, error
    messages); imports no backend."""
    return tuple(sorted(BUILTIN.keys() | _BACKENDS.keys()))
