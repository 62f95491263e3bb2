"""The package depends only on the standard library (README, pyproject's
``dependencies = []``), and every module compiles without a warning."""

import ast
import importlib
import sys
import types
import warnings
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbracket"


def test_every_absolute_import_is_in_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_module_compiles_with_warnings_as_errors():
    # an invalid escape such as "\d" in a plain string literal is only a
    # DeprecationWarning on Python 3.11; as an error it fails the compile
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_every_submodule_is_the_package_attribute_of_its_name():
    # a function re-exported under its module's name shadows the module, and
    # ``import qbracket.bracket3 as m`` then binds the function
    import qbracket
    import qbracket.bracket3 as bracket3_module

    assert isinstance(bracket3_module, types.ModuleType)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"qbracket.{path.stem}")
            assert getattr(qbracket, path.stem) is module, path.stem


def test_the_package_binds_only_its_submodules_and_version():
    # each name has one import path, from the module that defines it
    import qbracket

    public = {name: value for name, value in vars(qbracket).items() if not name.startswith("_")}
    assert {
        name for name, value in public.items()
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"qbracket.{name}")
    } == set()
    assert isinstance(qbracket.__version__, str)
