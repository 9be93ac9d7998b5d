"""The byte-identity tool runs to completion, prints one digest per group and
checks a run against a saved listing."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = [sys.executable, str(ROOT / "tools" / "output_digest.py")]
GROUPS = ["instances", "path", "experiment", "delta", "bound-check", "help", "bases",
          "walks"]


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
