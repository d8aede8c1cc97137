"""The package's public surface: what ``from matroid_forge import *`` binds."""

import re
import types
from pathlib import Path

import matroid_forge

README = Path(__file__).resolve().parent.parent / "README.md"


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
