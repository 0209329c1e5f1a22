"""Picklable protocol and payload descriptions.

Worker interpreters cannot inherit closures, so a trial that crosses an
interpreter boundary describes its protocol as a ``{"kind": ..., **params}``
dict (:func:`build_protocol` turns it back into a build function on the
far side) and its request payloads as a format string
(:func:`payload_from_fmt`).  In-process engines accept the same
spellings, so one spec runs everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runtime import BuildFn

__all__ = ["BUILDERS", "build_protocol", "payload_from_fmt"]


def _build_pif(*, tag: str = "pif", max_state: int = 4) -> BuildFn:
    from repro.core.pif import PifLayer

    def build(host) -> None:
        host.register(PifLayer(tag, max_state=max_state))

    return build


def _build_idl(
    *, tag: str = "idl", idents: dict[int, int] | None = None
) -> BuildFn:
    from repro.core.idl import IdlLayer

    def build(host) -> None:
        ident = idents[host.pid] if idents else None
        host.register(IdlLayer(tag, ident=ident))

    return build


def _build_me(
    *, tag: str = "me", cs_duration: int = 3, use_paper_modulus: bool = False
) -> BuildFn:
    from repro.core.mutex import MutexLayer

    def build(host) -> None:
        host.register(
            MutexLayer(
                tag, cs_duration=cs_duration, use_paper_modulus=use_paper_modulus
            )
        )

    return build


#: Named protocol builders: worker interpreters reconstruct the build
#: closure from a picklable ``{"kind": ..., **params}`` spec.
BUILDERS: dict[str, Callable[..., BuildFn]] = {
    "pif": _build_pif,
    "idl": _build_idl,
    "me": _build_me,
}


def build_protocol(spec: dict[str, Any]) -> BuildFn:
    """Turn a protocol spec into a build function (worker side)."""
    params = dict(spec)
    kind = params.pop("kind", None)
    factory = BUILDERS.get(kind)
    if factory is None:
        raise SimulationError(
            f"unknown protocol kind {kind!r}; expected one of {sorted(BUILDERS)}"
        )
    return factory(**params)


def payload_from_fmt(fmt: str) -> Callable[[int, int], str]:
    """The picklable replacement for driver payload callables: a format
    string over ``pid``/``k`` (``"msg-{pid}-{k}"`` reproduces the serial
    runners' payloads byte for byte)."""

    def payload(pid: int, k: int) -> str:
        return fmt.format(pid=pid, k=k)

    return payload
