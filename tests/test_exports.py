import importlib
import pkgutil

import pytest

import linearskip

MODULES = sorted(m.name for m in pkgutil.iter_modules(linearskip.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_declared_names_resolve(module):
    mod = importlib.import_module(f"linearskip.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
