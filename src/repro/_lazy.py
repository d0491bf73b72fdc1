"""Lazy package re-exports (PEP 562).

Every ``repro`` package re-exports its public names from the submodules
that define them.  Importing those submodules eagerly would make
importing any one module of a package import all of it, so each package
``__init__`` lists its names here instead: a name's module is imported
the first time the name is read, and the value is then cached in the
package's namespace, where later reads find it directly.
"""

import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Optional[Iterable[str]]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a module (absolute, or relative to ``package`` with
    a leading dot) to the names ``package`` re-exports from it.
    ``"Name as Alias"`` re-exports ``Name`` as ``Alias``; ``None``
    re-exports the module itself under its last dotted name.  Any other
    name raises :class:`AttributeError`, so ``from package import
    submodule`` still falls back to importing the submodule.
    """
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for module, names in exports.items():
        if module.startswith("."):
            module = package + module
        if names is None:
            table[module.rpartition(".")[2]] = (module, None)
            continue
        for name in names:
            source, _, alias = name.partition(" as ")
            table[alias or source] = (module, source)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module)
        if attribute is not None:
            value = getattr(value, attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__


def import_module(name: str) -> Any:
    """Import the module ``name`` (absolute) and return it.

    Goes through ``__import__``, not :func:`importlib.import_module`:
    ``python -X importtime`` reports only imports made through the
    former, and it should list every module a run loads.
    """
    __import__(name)
    return sys.modules[name]
