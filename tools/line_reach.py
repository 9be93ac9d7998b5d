"""List the executable lines of ``src/polywalk`` that no test runs.

Run it from the repository root as ``python tools/line_reach.py [--out FILE]
[PYTEST ARGS...]``: it runs pytest in-process (with no test path given, the
whole suite, as Tier-1 does) under a ``sys.settrace`` line tracer, set for
new threads too, and writes one ``module.py:line  reason`` line per
executable ``src/`` line that never ran to ``tools/line_reach.txt``.  The
executable lines are those the compiled modules' code objects map bytecode
to.  The reason is the condition of the innermost ``if`` that guards the
line, explained where ``REASONS`` knows it.  Tracing makes the suite about
1.7 times slower, so this is no test gate.
"""
from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polywalk"
REASONS = {
    "TYPE_CHECKING": "a TYPE_CHECKING import, run only by a type checker",
    "__name__ == '__main__'": "runs only as `python -m polywalk.cli`",
    "np.any(norms <= 1e-12)": "needs a Gaussian row of norm at most 1e-12",
}


def executable(source: str, name: str) -> set[int]:
    """The lines the code objects of one module map bytecode to."""
    lines, todo = set(), [compile(source, name, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def guards(source: str) -> dict[int, str]:
    """The condition of the innermost ``if`` over each line of its body."""
    found = {}
    for node in ast.walk(ast.parse(source)):  # outer ifs come first
        if isinstance(node, ast.If):
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1):
                found[line] = ast.unparse(node.test)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tools" / "line_reach.txt")
    args, pytest_args = parser.parse_known_args(argv)
    reached: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(str(SRC)) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(os.path.realpath(path), line) for path, line in reached}
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        why = guards(source)
        for line in sorted(executable(source, str(path))):
            if (os.path.realpath(path), line) not in ran:
                guard = why.get(line)
                reason = REASONS.get(guard, f"no test meets `{guard}`" if guard
                                     else "no test runs it")
                out.append(f"{path.name}:{line}  {reason}\n")
    args.out.write_text("".join(out))
    print(f"{len(out)} unreached line(s) written to {args.out}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
