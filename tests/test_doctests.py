import doctest
import importlib
import pkgutil

import pytest

import diffpoly

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(diffpoly.__path__, prefix="diffpoly.")
)


@pytest.mark.parametrize("name", ["diffpoly", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
