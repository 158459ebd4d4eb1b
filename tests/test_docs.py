"""The README's library sketch and module table match the code as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "mckay_lab"


def library_sketch() -> str:
    """The first python block under the README's "Library sketch" heading."""
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_runs():
    namespace = {}
    exec(compile(library_sketch(), str(README), "exec"), namespace)
    fan, chi = namespace["fan"], namespace["chi"]
    assert len(fan.cone_rays) == 4
    assert namespace["generator"] == fan.ggraphs[0].representative(chi)
    assert namespace["edge"] == (0, 2) and len(namespace["cones"]) == 2
    assert namespace["ratio"].text() == "x:y"
    assert namespace["report"]["pass"] is True


def key_modules() -> list[str]:
    """Every `mckay_lab.<name>` in the README's "Key modules" table."""
    section = README.read_text().split("Key modules:", 1)[1]
    table = re.match(r"\s*((?:\|.*\n)+)", section).group(1)
    return re.findall(r"`mckay_lab\.(\w+)`", table)


def test_readme_module_table_names_package_files():
    names = key_modules()
    assert "groups" in names
    assert [name for name in names if not (PACKAGE / f"{name}.py").is_file()] == []
