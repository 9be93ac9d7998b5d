"""Digest every seeded output of the command line, one sha256 per group.

Run it as ``python tools/output_digest.py`` in two checkouts and compare the
lines: equal digests mean byte-identical outputs.  Or save one checkout's
lines to a file and run ``python tools/output_digest.py --check FILE`` in the
other: it prints its own lines, names each group whose digest differs from
the file's, and exits 1 on any difference; lines of the file that start with
``#`` are comments.  ``tools/output_digests.txt`` is the listing of the
current tree, headed by the numpy version it was recorded with, as digests
depend on the LAPACK build; a change that moves a digest on purpose updates
it and says why.  It imports polywalk from the ``src/`` next to this file,
writes into a temporary directory, and drives :func:`polywalk.cli.main`
in-process.  The groups:

* ``instances``   -- the ``generate`` file of every family at fixed sizes and
  seeds, and the pyramid's ``write_instance`` file;
* ``path``        -- ``path --json`` (file and stdout) for seeds 0-11 on each
  of those files;
* ``experiment``  -- ``report.csv``, ``report.json`` and stdout at 0 and 7
  trials;
* ``delta``, ``bound-check`` -- their stdout;
* ``help``        -- ``--help`` and ``generate --help`` at 80 columns;
* ``bases``       -- the basis :func:`polywalk.verify_vertex` picks at every
  vertex :func:`polywalk.enumerate_vertices` lists on each of those files;
* ``walks``       -- :func:`polywalk.find_path`'s JSON and pivot trace for
  seeds 0-11, x1 to x2 and then x2 to x1, twice over, all on one instance
  read from each of those files, so that later walks run on a warm memo;
  then the same on the cut-corner cube (the 3-cube with x + y + z <= 3 - 1e-8)
  from (-1, -1, -1) to each vertex of its cut triangle in turn, and between
  each two of those vertices, which lie 1e-8 apart but each have tight rows
  of their own; and the cube's :func:`polywalk.enumerate_vertices`;
* ``minors``      -- the ``repr`` of :func:`polywalk.subdet_report` on seeded
  integer matrices whose minors run in every dtype
  :func:`polywalk.linalg.exact_dtype` picks, float64, int64 and Python ints,
  each with a zero row, a unit row and a row repeated up to sign appended;
* ``walk-large``  -- :func:`polywalk.find_path`'s JSON and pivot trace for
  seeds 0-24 from x1 to x2, all on one instance each of the rotated hypercube
  at n = 16, 20 and 24 (generator seeds 0-2) and the cut cube at n = 20: the
  long, cold walks of the benchmark's ``walk-large`` workload;
* ``pairs``       -- the ``generate`` file of random-sphere at n = 6 (m = 18,
  seeds 0-2), n = 7 (m = 21, seed 2) and n = 8 (m = 24, seed 0) and of
  transportation 4x4 (seed 0): endpoints from farthest-pair searches over
  184 to 2,012 vertices, 3 to 32 words of 64 sources.

Every entry also hashes its label and exit code, so a changed exit shows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polywalk import (GeneratorSpec, build_instance, cli,  # noqa: E402
                      enumerate_vertices, find_path, gen_degenerate_pyramid,
                      generate, read_instance, subdet_report, verify_vertex,
                      write_instance)
from polywalk.errors import RetriesExhausted  # noqa: E402

# (family, n, m, seed); m None takes the family's default.
SPECS = [(family, n, None, 0) for family in ("hypercube", "simplex", "cut-cube")
         for n in (2, 3, 4)]
SPECS += [("rotated", n, None, seed) for n in (3, 4) for seed in (0, 1)]
SPECS += [("random-sphere", 3, None, seed) for seed in (0, 1, 2)]
SPECS += [("random-sphere", 4, 9, seed) for seed in (0, 1)]
SPECS += [("transportation", p, q, seed) for p, q in ((2, 2), (2, 3), (3, 3), (3, 4))
          for seed in (0, 1, 2)]
PATH_SEEDS = range(12)
TRIALS = (0, 7)
# (rows, columns, largest entry) of the seeded matrices: every order in
# float64; order 6 in int64; order 3 in int64 and 4 on Python ints; all on
# Python ints.
MINOR_SPECS = [(7, 5, 9), (8, 6, 12), (6, 4, 300), (5, 3, 10**12)]
# (family, n, seed) of the walk-large instances, and their walk seeds.
LARGE_SPECS = [("rotated", n, seed) for n in (16, 20, 24) for seed in range(3)]
LARGE_SPECS += [("cut-cube", 20, 0)]
LARGE_SEEDS = range(25)
# (family, n, m, seed) of the pairs group's generated files.
PAIR_SPECS = [("random-sphere", 6, 18, seed) for seed in range(3)]
PAIR_SPECS += [("random-sphere", 7, 21, 2), ("random-sphere", 8, 24, 0),
               ("transportation", 4, 4, 0)]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one ``polywalk`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def add_walk(add, group: str, label: str, inst, a, b, seed: int) -> None:
    """One :func:`polywalk.find_path` call's JSON and pivot trace, or those
    of the failed path it raises with."""
    try:
        walked, code = find_path(inst, a, b, seed), 0
    except RetriesExhausted as exc:
        walked, code = exc.path, type(exc).__name__
    add(group, label, code, walked.to_json() + repr(walked.pivot_trace))


def walks(add, label: str, inst, x1, x2) -> None:
    """Seeds 0-11 both ways between x1 and x2, twice over, on one instance."""
    for turn in range(2):
        for way, (a, b) in enumerate(((x1, x2), (x2, x1))):
            for seed in PATH_SEEDS:
                add_walk(add, "walks", f"{label}:{turn}:{way}:{seed}", inst, a, b, seed)


def large_walks(add) -> None:
    """Seeds 0-24 from x1 to x2 on one instance of each ``LARGE_SPECS`` entry."""
    for family, n, seed in LARGE_SPECS:
        inst = generate(GeneratorSpec(family=family, n=n, seed=seed))
        for path_seed in LARGE_SEEDS:
            add_walk(add, "walk-large", f"{family}-{n}-{seed}:{path_seed}", inst,
                     inst.x1, inst.x2, path_seed)


def minors(add) -> None:
    """Seeds 0 and 1 of every ``MINOR_SPECS`` shape, plus a zero row, a unit
    row and the first row negated."""
    for m, n, high in MINOR_SPECS:
        for seed in range(2):
            mat = np.random.default_rng(seed).integers(-high, high + 1, size=(m, n)).tolist()
            mat += [[0] * n, [0] * (n - 1) + [-1], [-v for v in mat[0]]]
            add("minors", f"{m}x{n}:{high}:{seed}", 0, repr(subdet_report(mat)))


def differing(lines: list[str], saved: list[str]) -> list[str]:
    """Names of the groups whose digests differ between two listings, a
    group missing from either one included."""
    ours, theirs = ({name: digest for digest, _, name in
                     (line.partition("  ") for line in listing if line.strip())}
                    for listing in (lines, saved))
    return [name for name in {**ours, **theirs} if ours.get(name) != theirs.get(name)]


def listing() -> list[str]:
    """One ``<sha256>  <group>`` line per group, in the order listed above."""
    groups = {name: hashlib.sha256()
              for name in ("instances", "path", "experiment", "delta", "bound-check", "help",
                           "bases", "walks", "minors", "walk-large", "pairs")}

    def add(group: str, label: str, code, text: str) -> None:
        groups[group].update(f"{label}\0{code}\0".encode() + text.encode() + b"\0")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = []
        for family, n, m, seed in SPECS:
            path = root / f"{family}-{n}-{m}-{seed}.json"
            argv = ["generate", "--family", family, "--n", str(n),
                    "--seed", str(seed), "--out", str(path)]
            code, _ = run(argv + ([] if m is None else ["--m", str(m)]))
            add("instances", path.name, code, path.read_text())
            files.append(path)
        pyramid = root / "pyramid.json"
        write_instance(gen_degenerate_pyramid(), pyramid)
        add("instances", pyramid.name, 0, pyramid.read_text())
        files.append(pyramid)

        out = root / "walk.json"
        for path in files:
            for seed in PATH_SEEDS:
                out.unlink(missing_ok=True)
                code, text = run(["path", "--instance", str(path), "--seed", str(seed),
                                  "--json", str(out)])
                record = out.read_text() if out.exists() else ""
                add("path", f"{path.name}:{seed}", code, text + record)
            for trials in TRIALS:
                report = root / f"report-{path.stem}-{trials}"
                code, text = run(["experiment", "--instance", str(path), "--trials",
                                  str(trials), "--seed", "3", "--out", str(report)])
                for name in ("report.csv", "report.json"):
                    text += (report / name).read_text() if (report / name).exists() else ""
                add("experiment", f"{path.name}:{trials}", code, text)
            for command in ("delta", "bound-check"):
                code, text = run([command, "--instance", str(path)])
                add(command, path.name, code, text)
            inst = read_instance(path)
            bases = [verify_vertex(inst, v.x).basis for v in enumerate_vertices(inst)]
            add("bases", path.name, 0, repr(bases))
            walks(add, path.name, inst, inst.x1, inst.x2)
        cube = build_instance(np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))]),
                              [1.0] * 6 + [3.0 - 1e-8], name="cut-corner-cube")
        corners = [np.where(np.arange(3) == j, 1.0 - 1e-8, 1.0) for j in range(3)]
        for j, corner in enumerate(corners):
            walks(add, f"{cube.name}:{j}", cube, -np.ones(3), corner)
        for i, j in combinations(range(3), 2):
            walks(add, f"{cube.name}:{i}-{j}", cube, corners[i], corners[j])
        add("walks", f"{cube.name}:vertices", 0,
            repr([(v.x.tolist(), v.basis, v.degenerate) for v in enumerate_vertices(cube)]))
        for family, n, m, seed in PAIR_SPECS:
            path = root / f"pair-{family}-{n}-{m}-{seed}.json"
            code, _ = run(["generate", "--family", family, "--n", str(n), "--m", str(m),
                           "--seed", str(seed), "--out", str(path)])
            add("pairs", path.name, code, path.read_text())

    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in (["--help"], ["generate", "--help"]):
            code, text = run(argv)
            add("help", " ".join(argv), code, text)
    minors(add)
    large_walks(add)
    return [f"{digest.hexdigest()}  {name}" for name, digest in groups.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved listing; exit 1 on any difference")
    args = parser.parse_args(argv)
    saved = None if args.check is None else [
        line for line in Path(args.check).read_text().splitlines() if not line.startswith("#")]
    lines = listing()
    print("\n".join(lines))
    if saved is None:
        return 0
    differ = differing(lines, saved)
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
