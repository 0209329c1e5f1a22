"""The one protocol description: ``{"kind": ..., **params}``.

A :class:`~repro.engine.TrialSpec` describes its protocol as a plain
dict and its request payloads as a format string, so every spec is
picklable and JSON-codable.  Each engine — and each cluster worker
interpreter — turns the dict into a build function with
:func:`build_protocol` and the format into a payload callable with
:func:`payload_from_fmt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SpecError

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


#: Named protocol builders, keyed by the spec's ``kind``.
BUILDERS: dict[str, Callable[..., BuildFn]] = {
    "pif": _build_pif,
    "idl": _build_idl,
    "me": _build_me,
}


def build_protocol(spec: dict[str, Any]) -> BuildFn:
    """Turn a protocol spec into the per-host build function."""
    params = dict(spec)
    kind = params.pop("kind", None)
    factory = BUILDERS.get(kind)
    if factory is None:
        raise SpecError(
            f"unknown protocol kind {kind!r}; expected one of "
            f"{sorted(BUILDERS)}", field="protocol")
    return factory(**params)


def payload_from_fmt(fmt: str) -> Callable[[int, int], str]:
    """The picklable replacement for driver payload callables: a format
    string over ``pid``/``k`` (``"msg-{pid}-{k}"`` reproduces the serial
    runners' payloads byte for byte)."""

    def payload(pid: int, k: int) -> str:
        return fmt.format(pid=pid, k=k)

    return payload
