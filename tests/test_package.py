"""The package's public surface and the hygiene of its source modules."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import matroid_forge
from matroid_forge.charpoly import IntPolynomial
from matroid_forge.erection import ErectionCheck, ErectionFamily
from matroid_forge.linalg import ExactMatrix, PrimeField, Rationals, RelationSpace
from matroid_forge.matroid import FlatLattice, PointedMap
from matroid_forge.minors import MinorWitness, ObstructionReport
from matroid_forge.reproduce import CheckResult, ReproReport

import hosts
from hosts import fresh

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted(Path(matroid_forge.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_all_lists_no_modules():
    for name in matroid_forge.__all__:
        value = getattr(matroid_forge, name)
        assert not isinstance(value, types.ModuleType), name


def test_all_names_are_distinct_and_bound():
    assert len(set(matroid_forge.__all__)) == len(matroid_forge.__all__)
    namespace = {}
    exec("from matroid_forge import *", namespace)
    assert set(matroid_forge.__all__) <= namespace.keys()


def test_readme_library_example_names_are_exported():
    block = re.search(r"from matroid_forge import \((.*?)\)",
                      README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert "Matroid" in names
    assert set(names) <= set(matroid_forge.__all__)


def _parsed_sources(paths=SOURCES):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths}


def _referenced_names(tree):
    """Names a module reads: loaded names, attributes and its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_sources_import_only_names_they_use():
    assert SOURCES
    unused = []
    for name, tree in _parsed_sources().items():
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _referenced_anywhere(trees):
    """Names read, or imported by name, in any of the modules."""
    return set().union(*map(_referenced_names, trees), *(
        {alias.name for node in ast.walk(tree)
         if isinstance(node, ast.ImportFrom) for alias in node.names}
        for tree in trees))


def _definitions(tree):
    """A module's top-level functions and classes and each class's methods
    and properties, as (qualified name, name) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name


def _unreferenced_definitions(selected):
    """Selected definitions (see :func:`_definitions`) whose name no source
    module reads; a name in ``__all__`` counts as read (see
    :func:`_referenced_names`)."""
    trees = _parsed_sources()
    referenced = _referenced_anywhere(trees.values())
    return [f"{name}: {qualified}"
            for name, tree in trees.items()
            for qualified, bare in _definitions(tree)
            if selected(bare) and bare not in referenced]


def test_private_definitions_are_referenced():
    assert _unreferenced_definitions(
        lambda name: name.startswith("_") and not name.startswith("__")) == []


# Public methods that no source module calls, kept on purpose.
KEPT_UNREFERENCED = {
    # the one checked constructor for Python callers (integer and Fraction
    # entries become field elements); the CI steps build matrices with it
    "linalg.py: ExactMatrix.build",
    # the README's handle on the one forward elimination, which
    # test_rref_and_column_matroid_match_reference_* checks
    "linalg.py: ExactMatrix.rref",
}


def test_public_definitions_are_exported_or_referenced():
    """A public function, class, method or property that only tests call is
    a second code path."""
    assert sorted(_unreferenced_definitions(lambda name: not name.startswith("_"))) == sorted(
        KEPT_UNREFERENCED)


def _top_level_names(tree):
    """Functions, classes and assigned names at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_test_helpers_are_defined_once():
    """A host builder or a reference lives in one module, references in
    oracles.py; tests import them instead of redefining them."""
    defined = {}
    for name, tree in _parsed_sources(TESTS).items():
        for helper in set(_top_level_names(tree)):
            if not helper.startswith("test_"):
                defined.setdefault(helper, []).append(name)
    assert {h: where for h, where in defined.items() if len(where) > 1} == {}
    assert {h: where for h, where in defined.items()
            if h.startswith("reference_") and where != ["oracles.py"]} == {}


def test_every_catalogue_host_and_oracle_is_used():
    trees = _parsed_sources(TESTS)
    oracles = trees.pop("oracles.py")
    del trees["hosts.py"]
    referenced = _referenced_anywhere(trees.values())
    # an oracle counts as used when a test or another oracle calls it
    functions = [node for node in oracles.body if isinstance(node, ast.FunctionDef)]
    referenced = referenced.union(*(_referenced_names(f) - {f.name} for f in functions))
    assert [f.name for f in functions if f.name not in referenced] == []
    # a host counts as used when a test names it, or a host list holding it
    lists = {name: value for name, value in vars(hosts).items()
             if name.endswith("_HOSTS")}
    assert sorted(set(lists) - referenced) == []
    literals = {node.value for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    used = literals.union(*lists.values())
    used |= {hosts.ALIASES[name] for name in used & hosts.ALIASES.keys()}
    assert [name for name in hosts.CATALOGUE if name not in used] == []


# -- immutable value classes -----------------------------------------------------

def _witness():
    return MinorWitness((6,), (10, 12),
                        PointedMap((0, 1, 2, 4), ((0, 5), (1,), (2, 3), (4,))),
                        PointedMap((0, 1, 3, 2)))


# Each factory builds a fresh value from scratch, so two calls give equal
# values that share no object.
RECORDS = {
    IntPolynomial: lambda: IntPolynomial((2, -3, 1)),
    ErectionCheck: lambda: ErectionCheck(False, 2, "block {0,1}"),
    ErectionFamily: lambda: ErectionFamily(fresh("U(2,4)"), (fresh("U(2,4)"),)),
    ExactMatrix: lambda: ExactMatrix.build(Rationals(), [[1, Fraction(1, 2)], [3, 4]]),
    RelationSpace: lambda: RelationSpace.from_vectors(PrimeField(5), 3, [(1, 2, 3)]),
    PointedMap: lambda: PointedMap((0, 2), ((0, 3), (2,))),
    FlatLattice: lambda: FlatLattice(3, 2, ((0,), (1, 2, 4), (7,))),
    MinorWitness: _witness,
    ObstructionReport: lambda: ObstructionReport(None, _witness()),
    CheckResult: lambda: CheckResult("fano-matrices", True, "ok", 0.5),
    ReproReport: lambda: ReproReport((CheckResult("erections", False, "x", 0.25),)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_values_of_different_classes_are_never_equal():
    values = [make() for make in RECORDS.values()]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j), (a, b)
    check = CheckResult("fano-matrices", True, "ok", 0.5)
    assert check != ("fano-matrices", True, "ok", 0.5)

    class Subclass(CheckResult):
        __slots__ = ()

    assert check != Subclass("fano-matrices", True, "ok", 0.5)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_values_refuse_assignment_and_deletion(cls):
    value = RECORDS[cls]()
    before = repr(value)
    for name in (*inspect.signature(cls).parameters, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before and value == RECORDS[cls]()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_values_survive_pickle_and_copies(cls):
    value = RECORDS[cls]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_value_reprs_read_like_dataclass_reprs():
    assert repr(PointedMap((0, 2, 1))) == "PointedMap(images=(0, 2, 1), classes=None)"
    assert repr(RECORDS[FlatLattice]()) == (
        "FlatLattice(n=3, rank=2, by_rank=((0,), (1, 2, 4), (7,)))")
    assert repr(ErectionCheck(True, None, "")) == (
        "ErectionCheck(ok=True, condition=None, witness='')")
    assert repr(RECORDS[ErectionCheck]()) == (
        "ErectionCheck(ok=False, condition=2, witness='block {0,1}')")
    assert repr(RECORDS[CheckResult]()) == (
        "CheckResult(name='fano-matrices', passed=True, detail='ok', elapsed=0.5)")
    witness = MinorWitness((6,), (10, 12),
                           PointedMap((0, 1, 2, 4, 7, 8, 9),
                                      ((0, 5), (1,), (2, 3), (4,), (7,), (8,), (9, 11))),
                           PointedMap((0, 1, 2, 6, 3, 5, 4)))
    assert repr(witness) == (
        "MinorWitness(contract_set=(6,), delete_set=(10, 12), "
        "parallel_classes=PointedMap(images=(0, 1, 2, 4, 7, 8, 9), "
        "classes=((0, 5), (1,), (2, 3), (4,), (7,), (8,), (9, 11))), "
        "iso=PointedMap(images=(0, 1, 2, 6, 3, 5, 4), classes=None))")


def test_no_class_is_a_dataclass():
    """Dataclasses compile their methods at import; the package has none."""
    modules = [importlib.import_module(info.name) for info in
               pkgutil.iter_modules(matroid_forge.__path__, "matroid_forge.")
               if info.name != "matroid_forge.__main__"]
    classes = [value for module in (matroid_forge, *modules)
               for value in vars(module).values()
               if inspect.isclass(value) and value.__module__.startswith("matroid_forge")]
    assert set(RECORDS) <= set(classes)
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []
