#!/usr/bin/env python3
"""Count the code lines of a Python package: lines that hold a token which is
not part of a docstring, a comment or a blank line.

Usage:
    python3 scripts/code_lines.py [DIR]    # default: src/hallguard

A docstring is the string literal that opens a module, class or function
body (``ast.get_docstring``'s rule); its lines do not count, and neither do
lines holding only comments or whitespace.  A statement that spans several
lines counts each line that holds one of its tokens.  Prints the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/hallguard")
    print(sum(code_lines(path.read_text()) for path in sorted(root.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
