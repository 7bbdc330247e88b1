"""DESIGN.md §3's module map names exactly the modules under src/repro.

The map is a code block of indented entries: a package (``name/``) at
two spaces, its modules (``name.py``) at four, and top-level modules at
two.  Description continuation lines sit deeper and are ignored.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PKG = ROOT / "src" / "repro"

_ENTRY = re.compile(r"^( {2}| {4})([a-z_]+(?:/|\.py))(?:\s|$)")


def _map_block() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    lines = block.splitlines()
    assert lines[0] == "src/repro/"
    return lines[1:]


def _listed() -> set[str]:
    listed: set[str] = set()
    package = None
    for line in _map_block():
        m = _ENTRY.match(line)
        if m is None:
            continue
        indent, name = len(m.group(1)), m.group(2)
        if indent == 2 and name.endswith("/"):
            package = name
        elif indent == 2:
            listed.add(name)
        else:
            assert package is not None, line
            listed.add(package + name)
    return listed


def test_every_listed_module_exists():
    listed = _listed()
    assert listed
    missing = sorted(m for m in listed if not (PKG / m).is_file())
    assert not missing, f"DESIGN §3 lists modules that do not exist: {missing}"


def test_every_module_is_listed():
    actual = {p.relative_to(PKG).as_posix() for p in PKG.rglob("*.py")
              if p.name != "__init__.py"}
    unlisted = sorted(actual - _listed())
    assert not unlisted, f"DESIGN §3 omits modules: {unlisted}"
