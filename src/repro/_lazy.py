"""Lazy package surfaces (PEP 562): a name is imported when first used.

Every process this project launches — a trial, ``python -m repro``, each
``cluster-worker`` interpreter — pays for whatever its imports drag in,
so a package ``__init__`` must not import its whole subtree just to
offer ``from repro.sim import Simulator``.  A package keeps its literal
``__all__`` (plus a ``TYPE_CHECKING`` import block for tooling) and sets

    __getattr__, __dir__ = lazy_exports(__name__, {"runtime": ("Simulator",)})

so ``pkg.Simulator`` imports ``pkg.runtime`` on first access and caches
the value in the package namespace.  Submodules resolve the same way
(``import repro; repro.sim.Simulator``); anything else is a plain
:class:`AttributeError`.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module-level ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it provides.
    """
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = home.get(name)
        if sub is not None:
            value = getattr(import_module(f"{package}.{sub}"), name)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            qualified = f"{package}.{name}"
            try:
                value = import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise  # the submodule exists; one of its imports failed
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
