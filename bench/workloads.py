"""The benchmark's three workloads, their correctness gates and digests.

A workload builds its instances in ``setup()`` and runs a fixed list of
operations in ``run_cycle()``; a run repeats the cycle so that every
operation is timed more than once.  The workload seed offsets the path and
trial seeds, and on ``walk-large`` the generator seeds too, so the same seed
gives the same inputs and a claim can be rechecked on a seed it was not
developed on.

Only public entry points are called, and always through a module attribute
looked up at call time (``pw.find_path``, ``cli.main``), so the traced run's
wrappers see every call.  Gates read the program's outputs with plain numpy
and JSON rather than through polywalk, which keeps them independent of the
code under test and out of the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import polywalk as pw
from polywalk import cli
from polywalk.errors import RetriesExhausted

# Same constants the program uses for feasibility and vertex identity.
TIGHT_TOL = 1e-9
POINT_TOL = 1e-7

OK_STATUSES = ("Completed", "Perturbed+Completed")


class Ledger:
    """Attempted and failed operations, per-operation times, output digest.

    Every operation has a key, a tuple whose first entry is its kind
    (``setup``, ``walk``, ``oracle``, ``bound_check``, ``experiment``); a
    run repeats the same operations, and ``timed`` files each run under its
    key and then calls ``tick``, the speed probe's chance to run between
    operations.
    """

    def __init__(self, tick=lambda: None) -> None:
        self.tick = tick
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[tuple, list[float]] = {}
        self._digested: set[tuple] = set()
        self._digest = hashlib.sha256()

    def op(self, problems: list[str], label: str) -> None:
        """Count one operation; it fails when any of its gates failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def timed(self, key: tuple, seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)
        self.tick()

    def op_times(self, kind: str | None = None) -> list[float]:
        """Each operation's time: the best of its runs.

        ``kind=None`` gives every operation except the set-up ones.  The
        operations are deterministic, so their runs differ only by
        interference.  On a shared host that interference is large: a
        neighbour on the same physical core slows this process up to 2x
        for seconds at a time.  The fastest run, with the runs of one
        operation seconds apart, is the one least disturbed.
        """
        return [min(runs) for key, runs in self.times.items()
                if key[0] == kind or (kind is None and key[0] != "setup")]

    def digest(self, key: tuple, *parts: str) -> None:
        """Fold an operation's seeded outputs into the digest, once per key."""
        if key in self._digested:
            return
        self._digested.add(key)
        for part in parts:
            self._digest.update(part.encode())
            self._digest.update(b"\0")

    def hexdigest(self) -> str:
        return self._digest.hexdigest()[:16]


def canonical(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Unit-row form of (A, b), computed as the program does."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    norms = np.sqrt((A * A).sum(axis=1))
    return A / norms[:, None], b / norms


def path_problems(record: dict, A, b, x1, x2, length: int | None = None) -> list[str]:
    """Gates on one path record (the ``ShadowPath.to_json`` schema)."""
    problems = []
    if record["status"] not in OK_STATUSES:
        problems.append(f"status {record['status']}")
        return problems
    verts = np.asarray(record["vertices"], dtype=float)
    if np.max(np.abs(verts[0] - x1)) > POINT_TOL or np.max(np.abs(verts[-1] - x2)) > POINT_TOL:
        problems.append("path does not run from x1 to x2")
    slopes = record["slopes"]
    if any(s <= 0.0 for s in slopes) or any(s <= t for s, t in zip(slopes, slopes[1:])):
        problems.append("slopes not strictly positive and decreasing")
    slack = b[None, :] - verts @ A.T
    if float(slack.min()) < -TIGHT_TOL:
        problems.append("a path vertex is infeasible")
    if length is not None and len(verts) - 1 != length:
        problems.append(f"length {len(verts) - 1}, expected {length}")
    return problems


def generate_op(ledger: Ledger, key: tuple, spec):
    """One timed ``generate`` call: a set-up operation."""
    t0 = time.perf_counter()
    inst = pw.generate(spec)
    ledger.timed(key, time.perf_counter() - t0)
    return inst


def walk_op(ledger: Ledger, key: tuple, inst, seed: int, length: int | None = None) -> None:
    """One timed ``find_path`` call between the instance's endpoints, gated."""
    t0 = time.perf_counter()
    try:
        path = pw.find_path(inst, inst.x1, inst.x2, seed)
    except RetriesExhausted as exc:
        ledger.timed(key, time.perf_counter() - t0)
        ledger.op([f"RetriesExhausted {exc.reasons}"], inst.name)
        return
    ledger.timed(key, time.perf_counter() - t0)
    text = path.to_json()
    ledger.op(path_problems(json.loads(text), inst.A, inst.b, inst.x1, inst.x2, length),
              inst.name)
    ledger.digest(key, text)


def delta_problems(delta: float) -> list[str]:
    return [] if 0.0 < delta <= 1.0 else [f"delta {delta!r} outside (0, 1]"]


def instance_digest(inst) -> str:
    h = hashlib.sha256()
    for arr in (inst.A, inst.b, inst.x1, inst.x2):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Corpus:
    """The acceptance corpus, trimmed, with 780 walks and the oracles.

    Built as the acceptance tests build it, except that random-sphere has
    two seeds per n instead of ten (26 instances, not 50): the full corpus
    takes about 12 s to build, and a run builds it at least three times.
    Each instance gets 30 path seeds instead of 20: the walks near p90 are
    perturbed ones whose cost depends on the path seed, and 20 per instance
    leave p90 varying from one workload seed to the next.

    As on ``cli-degenerate``, the workload seed moves only the path seeds,
    not the instances: the cost of set-up and of the oracles varies by up
    to a half from one set of generator seeds to the next (random-sphere
    vertex counts, transportation degeneracy), and that variation would
    swamp the run-to-run comparison.
    """

    PATH_SEEDS = 30
    SPHERE_SEEDS = 2
    # A cycle takes about 11 s: two passes of 3.5 s over oracle calls of
    # 0.01-0.5 s each, and four blocks of walks.
    MIN_CYCLES = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances: list = []

    def specs(self) -> list:
        specs = []
        for n in (3, 4, 5, 6):
            specs.append(pw.GeneratorSpec(family="hypercube", n=n))
            specs.append(pw.GeneratorSpec(family="simplex", n=n))
        for n in (3, 4, 5):
            for s in range(self.SPHERE_SEEDS):
                specs.append(pw.GeneratorSpec(family="random-sphere", n=n, m=3 * n,
                                              seed=s))
        for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)):
            for s in range(3):
                specs.append(pw.GeneratorSpec(family="transportation", n=p, m=q,
                                              seed=s))
        return specs

    def setup(self, ledger: Ledger) -> list[str]:
        self.instances = [generate_op(ledger, ("setup", i), spec)
                          for i, spec in enumerate(self.specs())]
        return [instance_digest(inst) for inst in self.instances]

    def _walks(self, ledger: Ledger) -> None:
        base = self.PATH_SEEDS * self.seed
        for i, inst in enumerate(self.instances):
            for k in range(self.PATH_SEEDS):
                walk_op(ledger, ("walk", i, k), inst, base + k)

    def _oracles(self, ledger: Ledger) -> None:
        for i, inst in enumerate(self.instances):
            key = ("oracle", i, "delta_A")
            t0 = time.perf_counter()
            report = pw.delta_A(inst)
            ledger.timed(key, time.perf_counter() - t0)
            ledger.op(delta_problems(report.delta), inst.name)
            ledger.digest(key, repr(report.delta), repr(report.argmin_basis))
            if inst.integral:
                key = ("oracle", i, "certify")
                t0 = time.perf_counter()
                holds, slack = pw.certify_delta_Delta(inst)
                ledger.timed(key, time.perf_counter() - t0)
                ledger.op([] if holds else [f"certificate fails, slack {slack!r}"], inst.name)
                ledger.digest(key, repr(holds), repr(slack))

    def run_cycle(self, ledger: Ledger) -> None:
        """Twice: walks, oracles, walks.

        Every operation runs more than once per cycle, the runs of one
        operation seconds apart, so that each has several chances at an
        undisturbed run without a set-up round between them.  The short
        walks get the most runs: when the machine is loaded most of the
        time, a walk needs about eight before one is undisturbed.
        """
        for _ in range(2):
            self._walks(ledger)
            self._oracles(ledger)
            self._walks(ledger)


class WalkLarge:
    """Long walks on instances that need no enumeration.

    Rotated hypercubes (dense rows) at n = 16, 20 and 24 and the cut cube at
    n = 20, walked 25 times each per cycle.  Without interference every walk
    on one instance costs about the same, so the sizes differ: the median
    falls among the n = 20 walks and p90 among the n = 24 ones, at their
    60th percentile, so that neither measures only the interference that
    reaches a run's slowest walks.
    """

    # Each walk needs enough runs for one of them to be undisturbed: hence
    # many short cycles.
    MIN_CYCLES = 6
    ROTATED_N = (16, 20, 24)
    CUT_CUBE_N = 20
    WALKS_EACH = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances: list = []

    def setup(self, ledger: Ledger) -> list[str]:
        specs = [pw.GeneratorSpec(family="rotated", n=n,
                                  seed=len(self.ROTATED_N) * self.seed + r)
                 for r, n in enumerate(self.ROTATED_N)]
        specs.append(pw.GeneratorSpec(family="cut-cube", n=self.CUT_CUBE_N))
        self.instances = [generate_op(ledger, ("setup", i), spec)
                          for i, spec in enumerate(specs)]
        return [instance_digest(inst) for inst in self.instances]

    def run_cycle(self, ledger: Ledger) -> None:
        base = self.WALKS_EACH * self.seed
        for k in range(self.WALKS_EACH):
            for i, inst in enumerate(self.instances):
                length = inst.n if inst.name.startswith("rotated") else None
                walk_op(ledger, ("walk", i, k), inst, base + k, length)


class CliDegenerate:
    """The README's CLI flow on degenerate instances, through ``cli.main``.

    Transportation 3x3 and 3x4 (generator seed 0, on which every walk is
    perturbed) come from ``generate``; the degenerate pyramid has no CLI
    family and is written with ``write_instance``.  Each cycle runs
    ``path --json`` with 40 seeds (120 walks: p90 lies among the walks
    with the most retries, whose cost depends on the path seed),
    ``bound-check`` and ``experiment`` on every instance.

    As on ``corpus``, the workload seed moves only the path and trial
    seeds, not the instances: how degenerate a transportation polytope is
    varies a lot from one generator seed to the next, and with three
    instances that variation would swamp the run-to-run comparison.
    """

    # The long commands (bound-check and experiment on 3x4, 0.6 s each)
    # need about eight runs before their best one is reliably undisturbed.
    MIN_CYCLES = 4
    SHAPES = ((3, 3), (3, 4))
    PATH_SEEDS = 40
    TRIALS = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.files: list[Path] = []

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        """Run one command in-process; returns its exit code and stdout.

        Its stderr goes into the stdout text, so a failure's message reaches
        the gate report.
        """
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self, ledger: Ledger) -> list[str]:
        self.files = []
        for p, q in self.SHAPES:
            path = self.dir / f"transportation-{p}x{q}.json"
            t0 = time.perf_counter()
            code, _ = self._cli(["generate", "--family", "transportation", "--n", str(p),
                                 "--m", str(q), "--seed", "0", "--out", str(path)])
            ledger.timed(("setup", path.name), time.perf_counter() - t0)
            ledger.op([] if code == 0 else [f"exit code {code}"], path.name)
            if code == 0:
                self.files.append(path)
        pyramid = self.dir / "pyramid.json"
        t0 = time.perf_counter()
        pw.write_instance(pw.gen_degenerate_pyramid(), pyramid)
        ledger.timed(("setup", pyramid.name), time.perf_counter() - t0)
        self.files.append(pyramid)
        return [f.read_text() for f in self.files]

    def _paths(self, ledger: Ledger) -> None:
        base = self.PATH_SEEDS * self.seed
        for i, f in enumerate(self.files):
            data = json.loads(f.read_text())
            A, b = canonical(data["A"], data["b"])
            x1, x2 = np.asarray(data["x1"]), np.asarray(data["x2"])
            out = self.dir / f"{f.stem}.path.json"
            for k in range(self.PATH_SEEDS):
                key = ("walk", i, k)
                t0 = time.perf_counter()
                code, _ = self._cli(["path", "--instance", str(f), "--seed", str(base + k),
                                     "--json", str(out)])
                ledger.timed(key, time.perf_counter() - t0)
                if code != 0:
                    ledger.op([f"exit code {code}"], f.name)
                    continue
                text = out.read_text()
                ledger.op(path_problems(json.loads(text), A, b, x1, x2), f.name)
                ledger.digest(key, text)

    def run_cycle(self, ledger: Ledger) -> None:
        """Twice: ``path``, ``bound-check``, ``path``, ``experiment``.

        Every command runs more than once per cycle, the runs seconds
        apart, so that each gets enough runs for one of them to be
        undisturbed without a set-up round between them; the short ``path``
        commands get the most.
        """
        for _ in range(2):
            self._paths(ledger)
            self._bound_checks(ledger)
            self._paths(ledger)
            self._experiments(ledger)

    def _bound_checks(self, ledger: Ledger) -> None:
        for i, f in enumerate(self.files):
            key = ("bound_check", i)
            t0 = time.perf_counter()
            code, text = self._cli(["bound-check", "--instance", str(f)])
            ledger.timed(key, time.perf_counter() - t0)
            fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
            problems = [] if code == 0 else [f"exit code {code}"]
            if "delta" in fields:
                problems += delta_problems(float(fields["delta"]))
            else:
                problems.append("no delta printed")
            if fields.get("certificate") != "holds":
                problems.append(f"certificate {fields.get('certificate')}")
            ledger.op(problems, f"bound-check {f.name}")
            ledger.digest(key, text)

    def _experiments(self, ledger: Ledger) -> None:
        for i, f in enumerate(self.files):
            key = ("experiment", i)
            report_dir = self.dir / f"{f.stem}.report"
            t0 = time.perf_counter()
            code, _ = self._cli(["experiment", "--instance", str(f), "--trials",
                                 str(self.TRIALS), "--seed", str(self.PATH_SEEDS * self.seed),
                                 "--out", str(report_dir)])
            ledger.timed(key, time.perf_counter() - t0)
            # The command is one operation and each of its trials is a
            # find_path call; a missing trial is a failed one.
            ledger.attempted += self.TRIALS
            if code != 0:
                ledger.failed += self.TRIALS
                ledger.op([f"exit code {code}"], f"experiment {f.name}")
                continue
            report_json = (report_dir / "report.json").read_text()
            report = json.loads(report_json)
            ledger.failed += self.TRIALS - report["trials"]
            problems = delta_problems(report["delta"])
            if report["mean_length"] is None or \
                    report["mean_length"] > report["bound_8mn2_over_delta2"]:
                problems.append(f"mean_length {report['mean_length']} exceeds the bound")
            ledger.op(problems, f"experiment {f.name}")
            ledger.digest(key, report_json, (report_dir / "report.csv").read_text())


def warm_up(workdir: Path) -> None:
    """Exercise every entry point once on a tiny instance, untimed.

    First calls pay for lazy imports and numpy's first-use set-up; users of
    a long-lived process pay that once, so it stays out of the timed phases.
    """
    cube = pw.gen_hypercube(3)
    pw.find_path(cube, cube.x1, cube.x2, 0)
    pyramid = pw.gen_degenerate_pyramid()
    pw.find_path(pyramid, pyramid.x1, pyramid.x2, 0)
    pw.certify_delta_Delta(cube)
    f = workdir / "warm-up.json"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(["generate", "--family", "transportation", "--n", "2", "--m", "3",
                  "--out", str(f)])
        cli.main(["path", "--instance", str(f), "--seed", "0", "--json",
                  str(workdir / "warm-up.path.json")])
        cli.main(["bound-check", "--instance", str(f)])
        cli.main(["experiment", "--instance", str(f), "--trials", "2", "--seed", "0",
                  "--out", str(workdir / "warm-up.report")])
