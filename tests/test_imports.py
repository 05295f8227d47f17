"""The package runs on the standard library and numpy alone, and its tests
add only pytest and hypothesis: other installed packages never enter."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {
    "src": {"numpy", "proxrate"},
    "tests": {"numpy", "proxrate", "pytest", "hypothesis"},
}


def imported_modules(path):
    """Top-level names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_imports_are_stdlib_numpy_or_declared(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    # a test may import a sibling module of its own directory, as conftest
    local = {f.stem for f in files}
    allowed = ALLOWED[tree] | set(sys.stdlib_module_names) | local
    strays = [(f.relative_to(ROOT).as_posix(), name) for f in files for name in imported_modules(f) if name not in allowed]
    assert not strays


def runtime_imports(path):
    """Package modules one file imports when it runs: its relative imports,
    those under `if TYPE_CHECKING:` left out."""
    def walk(nodes):
        for node in nodes:
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                yield from walk(node.orelse)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                yield from [node.module] if node.module else (alias.name for alias in node.names)
            else:
                yield from walk(ast.iter_child_nodes(node))

    return set(walk(ast.parse(path.read_text(), str(path)).body))


@pytest.mark.parametrize("route", ["certificate", "interp", "rates", "pepsearch", "errors"])
def test_route_modules_load_no_solver(route):
    # the rate, certificate and search routes reach no solver or driver module
    package = ROOT / "src" / "proxrate"
    reached, todo = set(), [route]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(runtime_imports(package / f"{name}.py"))
    assert not reached & {"pgm", "problem", "experiments", "cli"}
