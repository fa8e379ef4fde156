"""Lazy package façades (PEP 562).

A package ``__init__`` names its public API once, in a
``{submodule: (names, ...)}`` table, and a submodule is imported the
first time one of its names is asked for — so ``import repro`` (or any
package on the way to a leaf module) loads nothing it does not use.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, Sequence


def lazy_exports(namespace: Dict[str, Any], exports: Dict[str, Sequence[str]]):
    """``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` is ``namespace``.

    A resolved object is stored in ``namespace``, so only the first
    lookup of a name reaches ``__getattr__``; every later one is the
    plain module-dict hit an eager import would have given.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
