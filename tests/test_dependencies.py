"""The runtime depends on the standard library only, and the closed-form
family oracles share no code with the engine."""

import ast
import os
import subprocess
import sys
import textwrap
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


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run code, dedented, in a new interpreter that imports the package
    from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True
    )


def test_a_fresh_interpreter_starts_the_cli_without_the_unused_modules():
    """Importing mckay_lab.cli in a new interpreter loads none of
    STARTUP_UNUSED, so every command's start skips them."""
    out = fresh(
        "import sys, mckay_lab.cli; "
        f"print(' '.join(m for m in {STARTUP_UNUSED!r} if m in sys.modules))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


READ_COMMANDS = (["fan"], ["reid", "--format", "svg"], ["quiver"], ["ssgraph"], ["transforms"])


def test_the_read_commands_never_load_the_verifier(tmp_path):
    """In a new interpreter, importing mckay_lab.cli and running each read
    command on 13:1,5,7 leaves mckay_lab.verify unloaded, so no read
    command compiles it; verify then loads it."""
    out = fresh(
        f"""
        import os, sys
        from mckay_lab.cli import main

        def loaded():
            return "mckay_lab.verify" in sys.modules

        print(loaded())
        for k, (cmd, *rest) in enumerate({READ_COMMANDS!r}):
            path = os.path.join({str(tmp_path)!r}, f"{{k}}.out")
            print(main([cmd, "--group", "13:1,5,7", "--out", path, *rest]), loaded())
        path = os.path.join({str(tmp_path)!r}, "verify.json")
        print(main(["verify", "--group", "13:1,5,7", "--out", path]), loaded())
        """
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", *["0 False"] * len(READ_COMMANDS), "0 True"]
    assert len(list(tmp_path.iterdir())) == len(READ_COMMANDS) + 1


def test_every_public_name_resolves_in_a_fresh_interpreter():
    """Each name of mckay_lab.__all__ resolves by getattr and by a star
    import, the two verifier names among them, which load the verifier
    when first read; an unknown name still raises AttributeError."""
    out = fresh(
        """
        import sys, mckay_lab

        print("mckay_lab.verify" in sys.modules)
        print(all(getattr(mckay_lab, name) is not None for name in mckay_lab.__all__))
        print("mckay_lab.verify" in sys.modules)
        space = {}
        exec("from mckay_lab import *", space)
        print(sorted(set(mckay_lab.__all__) - set(space)))
        from mckay_lab import GroupVerification, verify_group
        import mckay_lab.verify as verify

        print(verify_group is verify.verify_group, GroupVerification is verify.GroupVerification)
        try:
            mckay_lab.no_such_name
        except AttributeError as exc:
            print(exc)
        """
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "False",
        "True",
        "True",
        "[]",
        "True True",
        "module 'mckay_lab' has no attribute 'no_such_name'",
    ]


def test_the_corpus_pool_loads_the_verifier_before_it_forks():
    """In a new interpreter, run_corpus(jobs=2) has loaded mckay_lab.verify
    when it builds its process pool, so the forked workers do not each
    compile it; a fake executor records that and maps in process."""
    out = fresh(
        """
        import sys
        import concurrent.futures.process as process
        from mckay_lab.corpus import CorpusSpec, run_corpus

        loaded = []

        class FakeExecutor:
            def __init__(self, max_workers):
                loaded.append("mckay_lab.verify" in sys.modules)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, items):
                return map(function, items)

        process.ProcessPoolExecutor = FakeExecutor
        print("mckay_lab.verify" in sys.modules)
        print(loaded, run_corpus(CorpusSpec(max_order=4, jobs=2))["pass"])
        """
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", "[True] True"]


def test_a_killed_worker_of_a_fresh_corpus_exits_4():
    """A new interpreter whose corpus worker dies on 4:1,1,2 under --jobs 2
    still exits 4, with one stderr line and nothing on stdout."""
    out = fresh(
        """
        import os, sys
        import mckay_lab.corpus as corpus
        from mckay_lab.cli import main

        seam = corpus.verify_group

        def killed(group):
            if group.spec_string() == "4:1,1,2":
                os._exit(137)
            return seam(group)

        corpus.verify_group = killed
        sys.exit(main(["corpus", "--max-order", "6", "--jobs", "2"]))
        """
    )
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("error: ")
