import importlib
import pkgutil

import pytest

import qoc

MODULES = sorted(info.name for info in pkgutil.iter_modules(qoc.__path__))


def test_modules_found():
    assert {"grape", "hamiltonians", "linalg", "optimize", "pulses", "targets"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qoc.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from qoc.{name} import *", namespace)
    assert set(exported) <= set(namespace)
