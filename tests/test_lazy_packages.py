"""The lazy package inits keep the eager inits' public surface.

Each package below serves its public names from one name -> submodule
table, ``_EXPORTS`` (see :mod:`repro._lazy`).  The contract: every exported
name is the defining module's object, ``dir()`` and ``__all__`` list
them, ``import *`` works, and a misspelt name fails like a missing
attribute of an ordinary module.
"""

from __future__ import annotations

import importlib

import pytest

LAZY_PACKAGES = ("repro.arch", "repro.attacks", "repro.cache", "repro.core",
                 "repro.cpu", "repro.crypto", "repro.memory")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_the_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__ == sorted(pkg._EXPORTS)
    for name, module in pkg._EXPORTS.items():
        # The submodule first: importing it must not rebind the name.
        defining = importlib.import_module(f"{package}.{module}")
        assert getattr(pkg, name) is getattr(defining, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_covers_all(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
