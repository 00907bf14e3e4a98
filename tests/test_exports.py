"""Every public export of the package has a reader inside the package."""

import re
import types
from pathlib import Path

import gaussherm

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaussherm"

#: Exports with no package reader yet: the weak-confinement chain that
#: ROADMAP item 7 turns into the ``weak_confinement_hardy`` verdict.
AWAITING_VERDICT = {"selfdual_norm_bound"}


def _reader_lines():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return [line for p in sorted(files) for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_export_is_read_by_the_package():
    """A name counts as read when it appears as a word in a package module
    other than ``__init__.py``, on some line other than its own
    ``def``/``class`` line; demos, ``benchmarks/`` and tests do not count.
    Only the names in ``AWAITING_VERDICT`` may be unread, and each of them
    must still be exported and unread, so the set cannot go stale."""
    lines = _reader_lines()
    names = [
        name for name, value in vars(gaussherm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert names
    unread = set()
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.add(name)
    assert unread == AWAITING_VERDICT
