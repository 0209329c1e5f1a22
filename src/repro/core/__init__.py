"""The paper's protocols: PIF (Alg. 1), IDL (Alg. 2), ME (Alg. 3)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.core.idl import IDL_PAYLOAD, IdlLayer
    from repro.core.messages import PifMessage
    from repro.core.mutex import ASK, EXIT, EXITCS, NO, OK, YES, MutexLayer
    from repro.core.pif import DEFAULT_MAX_STATE, PifClient, PifLayer
    from repro.core.requests import CompletedRequest, RequestDriver

__all__ = [
    "ASK",
    "CompletedRequest",
    "DEFAULT_MAX_STATE",
    "EXIT",
    "EXITCS",
    "IDL_PAYLOAD",
    "IdlLayer",
    "MutexLayer",
    "NO",
    "OK",
    "PifClient",
    "PifLayer",
    "PifMessage",
    "RequestDriver",
    "YES",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "idl": ("IDL_PAYLOAD", "IdlLayer"),
    "messages": ("PifMessage",),
    "mutex": ("ASK", "EXIT", "EXITCS", "NO", "OK", "YES", "MutexLayer"),
    "pif": ("DEFAULT_MAX_STATE", "PifClient", "PifLayer"),
    "requests": ("CompletedRequest", "RequestDriver"),
})
