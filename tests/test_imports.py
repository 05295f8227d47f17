"""The package runs on the standard library and numpy alone, and its tests
add only pytest and hypothesis: other installed packages never enter."""
import ast
import json
import os
import subprocess
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


ROUTES = ["certificate", "interp", "rates", "pepsearch", "errors"]
SOLVER = {"pgm", "problem", "experiments", "cli"}


def loaded_after(code):
    """The proxrate modules a fresh interpreter holds after running `code`."""
    code += "\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('proxrate.'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return {name.removeprefix("proxrate.") for name in json.loads(out.stdout)}


@pytest.mark.parametrize("route", ROUTES)
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


@pytest.mark.parametrize("route", ROUTES)
def test_route_modules_load_no_solver_at_run_time(route):
    # the package's __init__ runs first, and must not load the solver either
    loaded = loaded_after(f"import proxrate.{route}")
    assert route in loaded
    assert not loaded & SOLVER


def test_package_names_load_their_module_on_first_use():
    assert loaded_after("import proxrate") == set()
    code = (
        "import proxrate\n"
        "for name in proxrate.__all__:\n"
        "    getattr(proxrate, name)\n"
        "from proxrate import *\n"
        "assert proxrate.run_pgm is run_pgm is proxrate.pgm.run_pgm\n"
        "assert proxrate.Certificate is Certificate is proxrate.certificate.Certificate\n"
    )
    assert loaded_after(code) >= {"certificate", "errors", "interp", "pgm", "problem", "rates", "rng"}
