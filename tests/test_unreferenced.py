"""Guard against dead surface: every definition in ``src/`` has a caller there.

An AST name scan collects each module-level and class-level ``def`` and
``class`` in ``src/`` and every identifier the package uses (names,
attributes, imports, keyword arguments, identifier-shaped strings).  A
definition whose name is used nowhere is reachable only from outside the
package — typically from tests alone.  Such a definition is either
deleted or listed, with the caller it exists for, in
``tests/fixtures/unreferenced_allowlist.json``.

The scan is a heuristic: a common method name hides behind any other use
of the same name, so it misses some dead code.  It never misses a
definition whose name is unique, which is how such surface is born.
"""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWLIST = pathlib.Path(__file__).parent / "fixtures" / "unreferenced_allowlist.json"


def _definitions(body, prefix: str = ""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, prefix + name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, prefix + name + ".")


def _used_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def unreferenced(root: pathlib.Path) -> list[str]:
    """``<path>:<qualname>`` of every definition under ``root`` whose name
    no code under ``root`` uses, sorted."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(root).as_posix()
        defined.extend(
            (name, f"{rel}:{qualname}") for name, qualname in _definitions(tree.body)
        )
        used.update(_used_names(tree))
    return sorted(key for name, key in defined if name not in used)


@pytest.fixture(scope="module")
def allowlist() -> dict[str, str]:
    return json.loads(ALLOWLIST.read_text(encoding="utf-8"))["entries"]


def test_every_definition_has_a_caller_in_src(allowlist):
    missing = [key for key in unreferenced(SRC) if key not in allowlist]
    assert not missing, (
        "definitions nothing in src/ uses; delete them, or list each in "
        f"{ALLOWLIST.name} with the caller it exists for: {missing}"
    )


def test_allowlist_names_only_unreferenced_definitions(allowlist):
    stale = sorted(set(allowlist) - set(unreferenced(SRC)))
    assert not stale, f"allow-list entries now used in src/ or gone: {stale}"


def test_allowlist_gives_a_reason_per_entry(allowlist):
    categories = (
        "http.server hook:",
        "perfbench timer target:",
        "examples/benchmarks caller:",
        "test oracle:",
        "test fixture:",
        "deferred:",
    )
    for key, reason in allowlist.items():
        assert reason.startswith(categories), (key, reason)


def test_scanner_flags_a_definition_only_a_test_names(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def only_tested():\n"
        "    return 2\n"
        "\n"
        "class Model:\n"
        "    def run(self):\n"
        "        return used()\n"
        "\n"
        "    def helper_for_tests(self):\n"
        "        return 3\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Model'\n"
    )
    (package / "cli.py").write_text(
        "from .core import Model\n\nprint(Model().run())\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text(
        "from pkg.core import Model, only_tested\n\n"
        "def test_it():\n"
        "    assert only_tested() == 2\n"
        "    assert Model().helper_for_tests() == 3\n"
    )
    assert unreferenced(tmp_path / "src") == [
        "pkg/core.py:Model.helper_for_tests",
        "pkg/core.py:only_tested",
    ]
