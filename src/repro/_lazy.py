"""Lazy package exports (PEP 562): a public name imports its submodule on
first access, so a run compiles only the modules it uses.

A package ``__init__`` states each export twice, as an eager one would: in
``__all__`` and in a ``from .submodule import name`` statement.  The
statements sit under ``if TYPE_CHECKING:``, where they bind the names for
linters and type checkers but import nothing at run time::

    from typing import TYPE_CHECKING

    from .._lazy import lazy_exports

    if TYPE_CHECKING:
        from .engine import Engine

    __all__ = ["Engine"]
    __getattr__, __dir__ = lazy_exports(__name__)

On the first name the package does not hold yet, :func:`lazy_exports`
reads that block from the package's source, so those statements are the
one map from name to submodule.  The names of the submodules they import
from (``repro.cluster.sim``) resolve the same way.  A resolved value is
stored on the package, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import ast
import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["lazy_exports"]


def _export_map(path: str) -> Dict[str, Tuple[str, Optional[str]]]:
    """``name -> (submodule, attribute)`` from the ``if TYPE_CHECKING:``
    block of the package source at ``path``; a submodule's own name maps
    to ``(submodule, None)``."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    exports: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
                exports.setdefault(stmt.module, (stmt.module, None))
                for alias in stmt.names:
                    exports[alias.asname or alias.name] = (stmt.module, alias.name)
    return exports


def lazy_exports(
    package_name: str,
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of package ``package_name``."""
    package = sys.modules[package_name]
    exports: Dict[str, Tuple[str, Optional[str]]] = {}

    def _exports() -> Dict[str, Tuple[str, Optional[str]]]:
        if not exports:
            exports.update(_export_map(package.__file__))
        return exports

    def __getattr__(name: str) -> object:
        try:
            module, attr = _exports()[name]
        except KeyError:
            raise AttributeError(
                f"module {package_name!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(f"{package_name}.{module}")
        if attr is not None:
            value = getattr(value, attr)
        setattr(package, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(package)) | set(_exports()))

    return __getattr__, __dir__
