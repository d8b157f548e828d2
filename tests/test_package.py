"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import titrees
from titrees import AdjacencyTree
from titrees.wti import SINGLE_VERTEX, join_wti_trees

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

LIBRARY = [
    "AdjacencyTree",
    "WTITree",
    "canonical_form",
    "enumerate_free_trees",
    "generate_ti_trees",
    "graph6_line",
    "is_ti_graph",
    "parent_list_line",
    "sparse6_line",
    "transmissions_bfs",
]


def test_all_is_the_library_surface_the_readme_documents():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(titrees.__all__) == LIBRARY
    assert all(f"`{name}`" in section or f"`{name}(" in section for name in LIBRARY)
    assert all(hasattr(titrees, name) for name in LIBRARY)


def test_every_module_all_names_resolve():
    modules = [titrees] + [
        importlib.import_module(f"titrees.{info.name}") for info in pkgutil.iter_modules(titrees.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_no_module_relies_on_assert():
    # ``python -O`` strips assert statements, so no check in the package
    # may be one.
    sources = sorted((ROOT / "src" / "titrees").rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_sources_parse_as_python_3_10():
    # The grammar only: a library call that is new in 3.11 still passes.
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    sources = sorted((ROOT / "src" / "titrees").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "record, fields",
    [
        (join_wti_trees([SINGLE_VERTEX, join_wti_trees([SINGLE_VERTEX])]), ("order", "parents", "levels")),
        (AdjacencyTree.from_edges(3, [(0, 1), (1, 2)]), ("order", "adjacency")),
    ],
    ids=["WTITree", "AdjacencyTree"],
)
def test_tree_records_are_immutable_named_tuples(record, fields):
    assert type(record)._fields == fields
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    assert type(record)(**dict(zip(fields, record))) == record
    with pytest.raises(AttributeError):
        record.order = record.order + 1
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
