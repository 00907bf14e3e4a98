"""Every public export of the package has a reader outside the tests."""

import re
import types
from pathlib import Path

import gaussherm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaussherm"


def _reader_lines():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    return [line for p in sorted(files) for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_export_is_read_by_the_package_a_demo_or_the_benchmark():
    """A name counts as read when it appears as a word in a package module
    (other than ``__init__.py``), a demo or ``benchmarks/``, on some line
    other than its own ``def``/``class`` line."""
    lines = _reader_lines()
    names = [
        name for name, value in vars(gaussherm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert names
    unread = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert unread == []
