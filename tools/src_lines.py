"""Count the physical and code lines of each ``src/polywalk`` module.

Run it as ``python tools/src_lines.py``: one line per module, then the
totals for ``src/``.  A code line holds a token other than a comment and lies
outside every docstring (the first statement of a module, class or function
body, when it is a string); blank lines are not code either.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polywalk"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """Physical and code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<14}{'physical':>9}{'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.stem:<14}{counts[0]:>9}{counts[1]:>6}")
    print(f"{'src/':<14}{totals[0]:>9}{totals[1]:>6}")


if __name__ == "__main__":
    main()
