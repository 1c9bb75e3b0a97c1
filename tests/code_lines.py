"""Count the code lines of each module under ``src/rtksim``.

Usage: ``python3 tests/code_lines.py [TREE [OTHER]]``

TREE defaults to the checkout this file is in.  For each module it
prints the code lines and, in brackets, all lines; given OTHER too, it
prints both trees' counts as ``TREE -> OTHER``, a module missing from a
tree counted as 0.  The last row sums every module.  A code line holds
at least one token that is not a comment or part of a docstring, so
blank, comment and docstring lines are not code.  A string that spans
lines counts each of its lines.  Stdlib only (``ast`` and
``tokenize``); pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "rtksim")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree) -> set:
    """The (line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, False) is not None:
            doc = node.body[0].value
            starts.add((doc.lineno, doc.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of the Python file at ``path``."""
    source = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _NOT_CODE or tok.start in docstrings:
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(source.splitlines())


def counts(tree: Path) -> dict:
    return {p.name: count(p) for p in sorted((tree / PACKAGE).glob("*.py"))}


def main(argv) -> int:
    if len(argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv] or [ROOT]
    tables = [counts(tree) for tree in trees]
    if not any(tables):
        print(f"no modules under {PACKAGE}", file=sys.stderr)
        return 1
    names = sorted(set().union(*tables))
    rows = [(name, [t.get(name, (0, 0)) for t in tables]) for name in names]
    rows.append((f"{PACKAGE}/", [tuple(map(sum, zip(*t.values()))) or (0, 0)
                                 for t in tables]))
    width = max(len(name) for name, _ in rows)
    for name, per_tree in rows:
        code = " -> ".join(str(c) for c, _ in per_tree)
        lines = " -> ".join(str(n) for _, n in per_tree)
        print(f"{name:<{width}}  {code} ({lines})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
