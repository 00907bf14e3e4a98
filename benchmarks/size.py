#!/usr/bin/env python3
"""Size of the package: three numbers, one per line.

    src physical lines   every line of src/gaussherm/*.py
    src code lines       lines holding a token other than a comment, a
                         newline or a docstring (a logical line that is
                         nothing but a string, which also covers attribute
                         and constant docstrings)
    public names         names of the ``gaussherm`` namespace without a
                         leading underscore, submodules excluded (the names
                         ``tests/test_exports.py`` checks)

Run from the repository root: ``python3 benchmarks/size.py`` (it puts
``src`` on the path itself).  ``--root DIR`` counts another checkout.
``--against CHECKOUT`` also counts a second checkout (the parent of a
change) and prints each number as ``its -> this one's``::

    python3 benchmarks/size.py --against ../parent
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines that hold a token of a logical line other than a bare string."""
    rows: set[int] = set()
    line: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            line.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and line:
            if not all(t.type == tokenize.STRING for t in line):
                rows.update(r for t in line for r in range(t.start[0], t.end[0] + 1))
            line = []
    return len(rows)


def public_names(src: Path) -> int:
    """The public-name count, from a fresh interpreter importing ``src``."""
    probe = ("import types, gaussherm; print(sum(1 for n, v in vars(gaussherm).items() "
             "if not n.startswith('_') and not isinstance(v, types.ModuleType)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def counts(root: Path) -> dict[str, int]:
    """The three numbers of the checkout at ``root``, by name."""
    files = sorted((root / "src" / "gaussherm").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in files]
    return {"src physical lines": sum(len(s.splitlines()) for s in sources),
            "src code lines": sum(code_lines(s) for s in sources),
            "public names": public_names(root / "src")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to count (default: this one)")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="second checkout to count; each number is printed as its -> this one's")
    args = parser.parse_args()
    this = counts(args.root)
    before = counts(args.against) if args.against else None
    for name, value in this.items():
        print(f"{name}: {value}" if before is None else f"{name}: {before[name]} -> {value}")


if __name__ == "__main__":
    main()
