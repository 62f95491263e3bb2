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


BENCH = PACKAGE.parents[1] / "bench"

#: Public module-level names that no other module of the package and no
#: benchmark script names, each with why it is still public.
OWN_MODULE_ONLY = {
    "bracket3.Matching": "the type of a planar matching, shared with the tests' cup-cap oracles",
    "bracket3.OPEN_ARC_CAP": "the frontier pass's open-arc cap, which README and its refusal name",
    "bracket3.PackedSum": "the return type of tl_transfer, whose len() the benchmark reads",
    "bracket3.Step": "the type of one crossing of the frontier pass's plan",
    "classical.CIRCLE": "the value of one extra circle, which the fold's docstrings and the tests name",
    "classical.circle_power": "the closed form of CIRCLE^k that the classical fold multiplies by once",
    "cli.USAGE_EXIT": "the documented usage exit code, 64",
    "diagram.Orientation": "the return type of orient",
    "diagram.check_planar": "the planarity check every Diagram runs on construction",
    "diagram.pd_text": "the canonical PD text, Diagram's str",
    "multipoly.BuchbergerRun": "the return type of buchberger_run",
    "multipoly.MAX_BASIS": "Buchberger completion's basis-size cap",
    "multipoly.VARIABLES": "the variable order a > b > d that parsing and formatting share",
    "multipoly.mono_div": "a monomial quotient, for S-polynomials",
    "multipoly.mono_lcm": "a monomial lcm, for S-polynomials and Buchberger's criterion",
    "multipoly.mono_mul": "a monomial product, for Buchberger's coprime criterion",
    "quotient.BRANCHES": "the catalogued solution branches, as stored",
    "quotient.BranchCheck": "one branch's result in a BranchReport",
    "quotient.BranchReport": "the return type of verify_all_branches",
    "quotient.BranchSubstitution": "the type of one catalogued branch",
    "quotient.COMPONENTS": "the components of the variety, by name and generators",
    "quotient.Check": "one certificate's result in a GroebnerReport",
    "quotient.Exact": "the type of an exact cyclotomic value",
    "quotient.GROEBNER_BASIS": "the stored Groebner basis that the certificates check",
    "quotient.GroebnerReport": "the return type of verify_groebner",
    "quotient.IDEAL_GENERATORS": "the two generators of the move-two ideal",
    "quotient.distinct_branches": "the catalogue deduplicated, for verify_all_branches",
    "quotient.parse_exact": "the reader of a catalogued value, which README names",
    "quotient.verify_branch": "one branch's exact check, for verify_all_branches",
    "search.InvariantRecord": "the type of one cached record",
    "search.LoadResult": "the return type of load_table",
    "search.PairVerdict": "one pair's verdict in a ScanReport",
    "search.ScanReport": "the return type of conjecture_scan",
    "search.TableEntry": "the type of one parsed table line",
}


def _public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    """Every identifier, attribute and imported name, and every string that
    is exactly an identifier, as the benchmark's lists of wrapped names are."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def test_every_public_name_is_used_outside_its_module_or_listed():
    # a readout that only its own module and the tests call (the curl
    # padding was one) is dead code in the package
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8"))) for path in BENCH.glob("*.py")))
    unreferenced = set()
    for module, tree in trees.items():
        elsewhere = bench.union(*(_references(other) for name, other in trees.items() if name != module))
        unreferenced |= {f"{module}.{name}" for name in _public_definitions(tree) - elsewhere}
    assert unreferenced - OWN_MODULE_ONLY.keys() == set()
    # and an entry goes once another module or the benchmark uses the name
    assert OWN_MODULE_ONLY.keys() - unreferenced == set()
