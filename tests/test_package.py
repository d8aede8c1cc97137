"""The package's public surface and the hygiene of its source modules."""

import ast
import re
import types
from pathlib import Path

import matroid_forge

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted(Path(matroid_forge.__file__).parent.glob("*.py"))


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


def _parsed_sources():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in SOURCES}


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


def test_private_definitions_are_referenced():
    trees = _parsed_sources()
    referenced = set()
    for tree in trees.values():
        referenced |= _referenced_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = [f"{name}: {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert dead == []
