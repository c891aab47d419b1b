import ast
import importlib
import inspect
import pkgutil
import pathlib
import sys

import pytest

import jamloc
from jamloc.nn import Layer

SRC = pathlib.Path(jamloc.__file__).parent
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "jamloc"}


@pytest.mark.parametrize("name", ["jamloc.nn", "jamloc.dsp", "jamloc.models", "jamloc.sigsim"])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = {f"{path.relative_to(SRC)}: {root}"
               for path in files for root in _imported_roots(path)
               if root not in ALLOWED_ROOTS}
    assert not foreign, sorted(foreign)


def _defined_classes(package):
    for info in pkgutil.iter_modules(importlib.import_module(package).__path__, f"{package}."):
        module = importlib.import_module(info.name)
        yield from (cls for cls in vars(module).values()
                    if inspect.isclass(cls) and cls.__module__ == module.__name__)


@pytest.mark.parametrize("package", ["jamloc.nn", "jamloc.models"])
def test_layer_params_is_the_only_params(package):
    # one module protocol: every part lists its tensors through Layer.params()
    classes = list(_defined_classes(package))
    assert classes
    own = [cls.__qualname__ for cls in classes if cls is not Layer and "params" in vars(cls)]
    assert not own
