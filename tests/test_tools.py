"""The byte-identity tool runs to completion and prints one digest per group."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ["instances", "path", "experiment", "delta", "bound-check", "help", "bases",
          "walks"]


def test_output_digest_prints_every_group():
    # The digests themselves depend on the LAPACK build, so only their form
    # and order are pinned.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  [a-z-]+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == GROUPS
