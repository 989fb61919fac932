"""Import on first use: the re-exports of the package ``__init__`` modules.

Every package declares its public names once, in a table grouped by the
submodule that defines them, and hands the table to
:func:`lazy_exports`.  The package's ``__all__`` is the table's names in
order; each name resolves through a PEP 562 module ``__getattr__`` the
first time it is read, importing its submodule then if nothing imported
it before, and is cached in the package namespace, so every later read
is a plain attribute lookup.  A process therefore loads only the
modules it runs: ``repro serve`` never compiles the dashboard, and the
simulator's scenarios load with ``repro simulate``.

A package still imports directly the submodules every request runs
(``repro.obs`` loads its plane, context, tracer, ledgers, journal and
windows that way), so no import hides in a first request; see
DESIGN.md §5, "Import on first use".
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping, MutableMapping, Sequence, Tuple, Union

#: Names a submodule re-exports: the same names, or ``{public: attribute}``.
Names = Union[Sequence[str], Mapping[str, str]]


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, Names]
) -> List[str]:
    """Install first-use resolution of ``table``'s names in a package.

    Args:
        namespace: The package's ``globals()``.
        table: ``{submodule: names}``; a submodule path is relative to
            the package (``".metrics"``) or absolute (``"repro.core"``).

    Returns:
        The package's ``__all__``: every public name, in table order.
    """
    package = namespace["__name__"]
    origin: Dict[str, Tuple[str, str]] = {}
    for module, names in table.items():
        pairs = names.items() if isinstance(names, Mapping) else ((n, n) for n in names)
        for public, attribute in pairs:
            if public in origin:
                raise ValueError(f"{package}: {public!r} is exported twice")
            origin[public] = (module, attribute)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(origin)
