"""The byte-identity tool runs to completion, prints one digest per group and
checks a run against a saved listing; the line counter counts each module."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = [sys.executable, str(ROOT / "tools" / "output_digest.py")]
SRC_LINES = ROOT / "tools" / "src_lines.py"
GROUPS = ["instances", "path", "experiment", "delta", "bound-check", "help", "bases",
          "walks", "minors", "walk-large"]


def _run(*args):
    return subprocess.run(TOOL + list(args), cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def digests():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_digest_prints_every_group(digests):
    # The digests themselves depend on the LAPACK build, so only their form
    # and order are pinned.
    lines = digests.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  [a-z-]+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == GROUPS


def test_output_digest_check_names_each_differing_group(digests, tmp_path):
    saved = tmp_path / "digests.txt"
    saved.write_text(digests)
    proc = _run("--check", str(saved))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == digests and proc.stderr == ""

    lines = digests.splitlines()
    lines[GROUPS.index("walks")] = "0" * 64 + "  walks"
    saved.write_text("\n".join(lines) + "\n")
    proc = _run("--check", str(saved))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["differs: walks"]


def test_src_lines_counts_every_module():
    proc = subprocess.run([sys.executable, str(SRC_LINES)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted((ROOT / "src" / "polywalk").glob("*.py"))
    lengths = [path.read_bytes().count(b"\n") for path in modules]
    assert [row[0] for row in rows] == [path.stem for path in modules] + ["src/"]
    assert [int(row[1]) for row in rows] == lengths + [sum(lengths)]
    codes = [int(row[2]) for row in rows]
    assert codes[-1] == sum(codes[:-1]) and all(0 < c < n for c, n in zip(codes, lengths))


def test_src_lines_counts_no_docstring_comment_or_blank_line():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = (ROOT / "src" / "polywalk" / "shadow.py").read_text().splitlines(keepends=True)
    physical, code = tool.count("".join(lines))
    assert physical == len(lines)
    walk_doc = lines.index('    """Follow the shadow boundary from start to target.\n')
    top = next(i for i, line in enumerate(lines) if line.startswith("def walk("))

    def counted(at, line):
        return tool.count("".join(lines[:at] + [line] + lines[at:]))

    # A line in the module's docstring and one in walk's; then a comment, a
    # blank line and a statement.
    assert counted(1, "One more docstring line.\n") == (physical + 1, code)
    assert counted(walk_doc + 1, "    One more docstring line.\n") == (physical + 1, code)
    assert counted(top, "# a comment\n") == (physical + 1, code)
    assert counted(top, "\n") == (physical + 1, code)
    assert counted(top, "\n_EXTRA = 1\n") == (physical + 2, code + 1)
