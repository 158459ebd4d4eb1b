"""The runtime depends on the standard library only, and the closed-form
family oracles share no code with the engine."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mckay_lab"


def non_stdlib_imports(path, relative_ok):
    """Each import in a file that names no standard-library module at its
    top level, as 'file:line name'; a relative import is one unless
    relative_ok."""
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level and relative_ok:
                continue
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{node.lineno} {name}")
    return outside


def test_runtime_imports_only_the_stdlib():
    """Every absolute import in the package names a standard-library module
    at its top level (relative imports stay inside the package)."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [bad for path in sources for bad in non_stdlib_imports(path, relative_ok=True)] == []


def test_the_family_oracles_import_nothing_from_the_engine():
    """tests/families.py writes its fans down from the standard library
    alone: no mckay_lab module, and no relative import."""
    assert non_stdlib_imports(TESTS / "families.py", relative_ok=False) == []


def test_the_quiver_imports_nothing_from_the_fan():
    """The quiver layer depends on the group alone: quiver.py imports
    nothing from ghilb, relatively or by the package's name."""
    imported = []
    for node in ast.walk(ast.parse((SRC / "quiver.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "groups" in imported
    assert [name for name in imported if "ghilb" in name.split(".")] == []


def test_no_module_imports_dataclasses():
    """The value types are NamedTuples and the rest plain classes: no
    module of the package imports dataclasses, by either import form."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


# modules a start of the command line has no use for: dataclasses and the
# introspection chain it pulls in, and the process pool of `corpus --jobs`
STARTUP_UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "multiprocessing")


def test_a_fresh_interpreter_starts_the_cli_without_the_unused_modules():
    """Importing mckay_lab.cli in a new interpreter loads none of
    STARTUP_UNUSED, so every command's start skips them."""
    code = (
        "import sys, mckay_lab.cli; "
        f"print(' '.join(m for m in {STARTUP_UNUSED!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
