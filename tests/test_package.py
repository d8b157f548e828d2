"""The package's public surface."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import pickle
import pkgutil
import sys
from pathlib import Path

import pytest

import titrees
from titrees.wti import SINGLE_VERTEX, join_wti_trees

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

LIBRARY = [
    "canonical_form",
    "enumerate_free_trees",
    "generate_ti_trees",
    "graph6_line",
    "is_ti_graph",
    "parent_list_line",
    "sparse6_line",
    "transmissions_bfs",
]


def library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_library_surface_the_readme_documents():
    section = library_section()
    assert sorted(titrees.__all__) == LIBRARY
    assert all(f"`{name}`" in section or f"`{name}(" in section for name in LIBRARY)
    assert all(hasattr(titrees, name) for name in LIBRARY)
    assert "WTITree" not in section


def test_readme_library_example_prints_parent_tuples_then_the_census():
    code = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    census = {
        1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0,
        9: 1, 10: 0, 11: 6, 12: 0, 13: 24, 14: 1, 15: 82, 16: 10,
    }
    assert lines[0] == "(0,)"
    assert lines[-1] == str(census)
    trees = [ast.literal_eval(line) for line in lines[:-1]]
    assert len(trees) == sum(census.values())
    assert all(type(parents) is tuple and parents[0] == 0 for parents in trees)
    assert all(parents[x] < x for parents in trees for x in range(1, len(parents)))


def test_formats_imports_nothing_from_the_package():
    # The codecs take plain parent tuples, so they need no package type.
    path = ROOT / "src" / "titrees" / "formats.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "titrees"))
        or (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "titrees" for alias in node.names))
    ]
    assert not found, f"package imports in formats.py at lines {found}"


def test_the_runtime_imports_only_the_standard_library():
    # The README promises a pure standard-library runtime; relative
    # imports stay inside the package.
    sources = sorted((ROOT / "src" / "titrees").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
        )
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not found, f"imports outside the standard library: {found}"


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
    ],
    ids=["WTITree"],
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
