"""One export table per package, resolved on first use (PEP 562).

Every package ``__init__`` names its public surface once, as a table
from submodule to exported names, and gets ``__all__``, ``__getattr__``
and ``__dir__`` back::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".codec": ("TornadoCodec", "stripe_rows"),
        "..core.plancache": ("PlanCache",),
    })

Reading ``package.TornadoCodec`` (or ``from package import
TornadoCodec``) the first time imports ``.codec`` and caches the value
in the package's globals; a process loads only the modules it touches.
Deep module paths (``repro.core.codec``) are unchanged, and so is every
object's ``__module__``.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections.abc import Callable, Iterable, Mapping
from types import ModuleType


def lazy_exports(
    package: str,
    table: Mapping[str, Iterable[str]],
    *,
    subpackages: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps a module, written as a relative import (``".codec"``,
    ``"..core.plancache"``), to the names exported from it;
    ``subpackages`` are submodules that ``__all__`` lists as themselves.
    Any submodule, listed or not, is also imported on first read, so
    ``repro.core.decoder`` works after a bare ``import repro``.

    Raises ``ImportError`` when an exported name is also a submodule of
    ``package``: importing that submodule would rebind the package
    attribute to the module, so which object the name meant would depend
    on import order.  The one way through is to bind the name before
    calling, after the submodule is loaded (``from .registry import
    registry``).
    """
    namespace = vars(sys.modules[package])
    owner = {name: source for source, names in table.items() for name in names}
    submodules = {
        entry.name.removesuffix(".py")
        for path in namespace["__path__"]
        for entry in os.scandir(path)
        if entry.name.endswith(".py") or os.path.isfile(f"{entry.path}/__init__.py")
    } - {"__init__"}
    clashes = sorted(
        name for name in owner.keys() & submodules
        if name not in namespace or isinstance(namespace[name], ModuleType)
    )
    if clashes:
        raise ImportError(
            f"{package} exports {clashes}, which are also its submodule names"
        )

    def __getattr__(name: str) -> object:
        if name in owner:
            value = getattr(importlib.import_module(owner[name], package), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    exported = [*owner, *subpackages]

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | set(exported))

    return exported, __getattr__, __dir__
