"""Lazy package exports (PEP 562), shared by the package inits.

A package init hands :func:`lazy_exports` one table mapping each public
name to the submodule that defines it::

    _EXPORTS = {
        "SGX": "sgx",
        "Sanctum": "sanctum",
    }

    __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then imports none of its submodules; the first
``package.SGX`` (or ``from package import SGX``) imports ``package.sgx``
and binds the name on the package, so later lookups are plain attribute
reads.  ``__all__`` and ``dir()`` come from the same table, so a package
keeps one list of its public names.  A verb therefore loads only the
modules it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for ``package``'s init.

    ``table`` maps public name -> defining submodule (relative to
    ``package``).  A name equal to its submodule's name (``sha256`` in
    ``repro.crypto.sha256``) is bound now: once the submodule is
    imported the import system sets the package attribute to the module
    itself, and ``__getattr__`` would never be asked again.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    for name, module in table.items():
        if name == module:
            __getattr__(name)
    return sorted(table), __getattr__, __dir__
