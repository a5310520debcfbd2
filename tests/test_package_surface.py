"""The package holds only what it uses, and its namespace loads a module on first use.

The first checks read the source of src/arcflock/ with ``ast``, so a
test-only helper that drifts back into the package fails here by name (the
naive definitions live in tests/oracles.py), as does a second kind check
beside finite_field.check_kind or a CLI reach into a private name.  Then
come the lazy namespace of ``arcflock/__init__.py``, which modules each CLI
command loads in a fresh process, and the contract of the eleven value
classes.
"""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arcflock
from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.finite_field import make_field

MODULES = {
    p.stem: ast.parse(p.read_text(encoding="utf-8"))
    for p in sorted(Path(arcflock.__file__).parent.glob("*.py"))
}
ENTRY_POINTS = {
    "cli.main",  # the console script named in pyproject.toml
    # module hooks called by the import system (PEP 562)
    "__init__.__getattr__",
    "__init__.__dir__",
}


def _names_used(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_used_in_the_package_or_exported():
    tops = [(mod, node) for mod, tree in MODULES.items() for node in tree.body]
    unused = [
        f"{mod}.{node.name}"
        for mod, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in arcflock.__all__
        and f"{mod}.{node.name}" not in ENTRY_POINTS
        and not any(node.name in _names_used(other) for _, other in tops if other is not node)
    ]
    assert unused == []


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""  # "from . import x" names no module


#: every class the package defines: GF, the value classes and the errors
CLASSES = {node.name for tree in MODULES.values() for node in ast.walk(tree)
           if isinstance(node, ast.ClassDef)}


def _kind_checks(node: ast.AST, scope: str):
    """The enclosing scope of each isinstance call under node that names a package class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _kind_checks(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance" and _names_used(child.args[1]) & CLASSES):
            yield scope
        yield from _kind_checks(child, scope)


def test_one_helper_decides_how_an_argument_of_the_wrong_kind_is_refused():
    # every entry calls finite_field.check_kind; GF.__eq__ compares, it refuses nothing
    sites = {site for mod, tree in MODULES.items() for site in _kind_checks(tree, mod)}
    assert sites <= {"finite_field.check_kind", "finite_field.GF.__eq__"}, sorted(sites)


def test_the_cli_reaches_no_private_name_of_another_module():
    cli = MODULES["cli"]
    imported = [node for node in ast.walk(cli) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in imported if node.module is None
               for alias in node.names}
    private = [f"{node.module}.{alias.name}" for node in imported for alias in node.names
               if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(cli)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_the_package_imports_nothing_from_the_tests():
    from_tests = [
        (mod, name)
        for mod, tree in MODULES.items()
        for name in _imported(tree)
        if name.partition(".")[0] in ("tests", "oracles", "conftest")
    ]
    assert from_tests == []


# -- the lazy namespace -------------------------------------------------------------


def test_every_exported_name_is_the_object_its_home_module_defines():
    for name in set(arcflock.__all__) - {"__version__"}:
        value = getattr(arcflock, name)
        home = sys.modules[value.__module__]
        assert home.__name__ == f"arcflock.{arcflock._HOME[name]}", name
        assert getattr(home, name) is value, name


def test_star_import_binds_every_exported_name_and_dir_lists_them():
    namespace: dict = {}
    exec("from arcflock import *", namespace)
    assert set(arcflock.__all__) <= set(namespace)
    assert dir(arcflock) == sorted(arcflock.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'arcflock' has no attribute 'cli_main'$"):
        arcflock.cli_main
    assert not hasattr(arcflock, "MAX_SCAN_STEPS")  # defined in mathon_arcs, not exported


def _fresh(code: str, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_a_fresh_process_reaches_submodules_through_the_package():
    proc = _fresh("import arcflock; print(arcflock.flocks.plane_section.__name__,"
                  " arcflock.search.enumerate_group_specs.__name__)")
    assert proc.stdout == "plane_section enumerate_group_specs\n"


# python -m arcflock ARGS, then the arcflock modules and dataclasses or inspect if loaded, on stderr
_RUN_CLI = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith("arcflock.")
                                      or m in ("dataclasses", "inspect")), file=sys.stderr))
sys.argv[0] = "arcflock"
runpy.run_module("arcflock", run_name="__main__", alter_sys=True)
"""

_ARC = ma.denniston_arc(make_field(4), 8, (1, 2, 3))
_ARC_JSON = json.dumps(ma.arc_to_json(_ARC))
_FLOCK_JSON = json.dumps(fl.flock_to_json(fl.arc_to_flock(_ARC)))


@pytest.mark.parametrize(
    "argv, stdin, unloaded",
    [
        (["--help"], "", {"projective", "mathon_arcs", "flocks", "search"}),
        (["construct", "denniston", "--h", "4", "--alpha", "8", "--A", "1,2"], "",
         {"projective", "flocks", "search"}),
        (["verify", "-"], _ARC_JSON, {"projective", "flocks", "search"}),
        (["convert", "--direction", "arc-to-flock", "-"], _ARC_JSON, {"search"}),
        (["project", "-"], _ARC_JSON, {"search"}),
        (["verify", "-"], _FLOCK_JSON, {"search"}),
        (["rank", "--h", "6", "--d", "4"], "", set()),
        (["search", "--h", "7", "--d", "2"], "", set()),
        (["construct", "mathon-extend", "--h", "7", "--H", "1,2", "--lambda-d", "5"], "", set()),
    ],
    ids=["help", "construct-denniston", "verify-arc", "convert", "project", "verify-flock",
         "rank", "search", "construct-mathon-extend"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, stdin, unloaded):
    proc = _fresh(_RUN_CLI, *argv, stdin=stdin)
    loaded = set(proc.stderr.split())
    assert "arcflock.cli" in loaded
    assert loaded.isdisjoint(f"arcflock.{m}" for m in unloaded), sorted(loaded)
    # the value classes are plain slotted classes: no command compiles a class generator
    assert loaded.isdisjoint({"dataclasses", "inspect"}), sorted(loaded)


# -- the value classes ------------------------------------------------------------

_GF8 = make_field(3)
_F8 = "GF(2^3, modulus=0b1011)"
_CONIC = ma.Conic(_GF8, 1, 1, 1)
_SPEC = se.GroupSpec(_GF8, (0, 1), 2)
_MUTABLE = {ma.MaximalArcReport, fl.FlockReport, se.SearchRecord}
_DEFAULTS = {ma.MaximalArcReport: {"histogram": {}}, se.SearchRecord: {"example_arc": None}}

_VALUE_CASES = [
    (ma.Conic, dict(gf=_GF8, alpha=1, beta=1, lam=1),
     f"Conic(gf={_F8}, alpha=1, beta=1, lam=1)"),
    (ma.MathonArc, dict(gf=_GF8, conics=(_CONIC,)),
     f"MathonArc(gf={_F8}, conics=(Conic(gf={_F8}, alpha=1, beta=1, lam=1),))"),
    (ma.MaximalArcReport, dict(q=8, degree=2, size=10, expected_size=10,
                               histogram={0: 28, 2: 45}),
     "MaximalArcReport(q=8, degree=2, size=10, expected_size=10, histogram={0: 28, 2: 45})"),
    (fl.PartialFlock, dict(gf=_GF8, planes=((1, 0, 0, 0),)),
     f"PartialFlock(gf={_F8}, planes=((1, 0, 0, 0),))"),
    (fl.FlockReport, dict(q=8, size=2, section_sizes=(9, 9), pairs=(((0, 1), 1, 0),)),
     "FlockReport(q=8, size=2, section_sizes=(9, 9), pairs=(((0, 1), 1, 0),))"),
    (fl.FlockClassification, dict(additive=True, linear=False),
     "FlockClassification(additive=True, linear=False)"),
    (fl.DennistonLineReport, dict(lines=((1, 0, 0),), concurrent=True, common_point=None),
     "DennistonLineReport(lines=((1, 0, 0),), concurrent=True, common_point=None)"),
    (se.GroupSpec, dict(gf=_GF8, H=(0, 1), lambda_d=2),
     f"GroupSpec(gf={_F8}, H=(0, 1), lambda_d=2)"),
    (se.TraceConditionSystem, dict(gf=_GF8, group=_SPEC, epsilon=0, conditions=(5,)),
     f"TraceConditionSystem(gf={_F8}, group=GroupSpec(gf={_F8}, H=(0, 1), lambda_d=2),"
     " epsilon=0, conditions=(5,))"),
    (se.RankAnalysis, dict(rank=1, solution_count=4, independent=True),
     "RankAnalysis(rank=1, solution_count=4, independent=True)"),
    (se.SearchRecord, dict(q=8, H=(0, 1), lambda_d=2, epsilon=0, rank=1, num_rho_prefilter=3,
                           num_rho_valid=3, example_arc=ma.MathonArc(_GF8, (_CONIC,))),
     f"SearchRecord(q=8, H=(0, 1), lambda_d=2, epsilon=0, rank=1, num_rho_prefilter=3,"
     f" num_rho_valid=3, example_arc=MathonArc(gf={_F8}, conics=(Conic(gf={_F8}, alpha=1,"
     " beta=1, lam=1),)))"),
]


@pytest.mark.parametrize("cls, fields, text", _VALUE_CASES,
                         ids=[cls.__name__ for cls, _, _ in _VALUE_CASES])
def test_value_class_contract(cls, fields, text):
    """Construction, equality, hashing, assignment and repr, as the package's records promise."""
    value = cls(**fields)
    assert value == cls(*fields.values()) and repr(value) == text
    assert getattr(value, next(iter(fields))) is next(iter(fields.values()))
    # equality is type-strict: a subclass with the same fields, or the field tuple, is unequal
    assert value != type(cls.__name__, (cls,), {})(**fields)
    assert value != tuple(fields.values()) and value.__eq__(object()) is NotImplemented
    assert copy.deepcopy(value) == value
    defaults = _DEFAULTS.get(cls, {})
    required = {k: v for k, v in fields.items() if k not in defaults}
    first, second = cls(**required), cls(*required.values())
    for k, v in defaults.items():  # a default dict is fresh per object
        assert getattr(first, k) == v and (v is None or getattr(first, k) is not getattr(second, k))
    name, other = next(iter(fields)), object()
    if cls in _MUTABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
        setattr(value, name, other)
        assert getattr(value, name) is other
    else:
        assert hash(value) == hash(cls(*fields.values())) == hash(tuple(fields.values()))
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, other)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        assert value == cls(**fields)
