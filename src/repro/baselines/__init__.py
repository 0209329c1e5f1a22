"""Baselines and comparators: naive PIF, self-stabilizing mutex."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.baselines.naive_pif import NaiveMessage, NaivePifLayer
    from repro.baselines.self_stab_mutex import TokenMessage, TokenMutexLayer

__all__ = [
    "NaiveMessage",
    "NaivePifLayer",
    "TokenMessage",
    "TokenMutexLayer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "naive_pif": ("NaiveMessage", "NaivePifLayer"),
    "self_stab_mutex": ("TokenMessage", "TokenMutexLayer"),
})
