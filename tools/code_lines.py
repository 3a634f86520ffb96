"""Count the lines of the wildsat package, module by module.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [package directory]

For each module of ``src/wildsat`` (or the directory given) it prints the
number of lines, as ``wc -l`` counts them, and the number of code lines,
then the totals.  A code line holds a token that is not a comment, a
docstring or layout (NL, NEWLINE, INDENT, DEDENT and the end marker); a
token that spans lines holds each of them.  A docstring is a string that
is the whole first statement of a module, a class or a function.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def docstring_lines(source: str) -> set[int]:
    """The lines of the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines that hold a token other than a comment, a
    docstring or layout."""
    skip = docstring_lines(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "wildsat"
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
