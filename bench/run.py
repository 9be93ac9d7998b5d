"""Run one polywalk benchmark workload and print its metrics.

Run from the repository root::

    python3 bench/run.py --workload corpus --seed 0 --seconds 12 --trace 0

Workloads: ``corpus``, ``walk-large``, ``cli-degenerate`` (see
``bench/README.md``).  Each invocation is one fresh, single-threaded process
that imports polywalk from ``src/`` of the same checkout, warms up untimed,
then alternates set-up rounds with cycles of the workload's fixed list of
operations: at least the workload's ``MIN_CYCLES`` cycles, and more while
they fit in ``--seconds``, with a set-up round before the first cycle and
after each.  Each set-up operation (one instance built) and each operation
of a cycle is timed as the best of its runs, and reported times are at the
reference machine speed measured by ``speed.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sets up once and
runs ``MIN_CYCLES`` cycles with every public function of the traced modules
wrapped, and prints the per-layer metrics.  Either way the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
Results and spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Keep the checkout free of generated files.
sys.dont_write_bytecode = True

# Pinned before numpy is imported: the workloads are single-threaded, and a
# BLAS pool sized to the machine only adds scheduling noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("corpus", "walk-large", "cli-degenerate")

# A set-up round repeats the set-up until this much time is spent, so that
# millisecond set-ups are timed many times.
SETUP_ROUND_S = 0.3


def import_program():
    """Import polywalk from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "polywalk"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import polywalk
    if Path(polywalk.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: polywalk imported from {polywalk.__file__}, "
                         f"not from {package}")


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def files_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": files_sha256(SRC / "polywalk"),
        "bench_sha256": files_sha256(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def make_workload(name: str, seed: int, workdir: Path):
    import workloads as wl
    if name == "corpus":
        return wl.Corpus(seed)
    if name == "walk-large":
        return wl.WalkLarge(seed)
    return wl.CliDegenerate(seed, workdir)


def measure(args, workdir: Path) -> dict:
    """Warm up, set up, run cycles; returns everything the report needs."""
    import speed
    import tracing
    import workloads as wl

    wl.warm_up(workdir)
    workload = make_workload(args.workload, args.seed, workdir)
    speedometer = speed.Speedometer()
    ledger = wl.Ledger(speedometer.tick)
    tracer = tracing.Tracer() if args.trace else None
    # Set-ups made in each set-up round.
    setup_rounds: list[int] = []
    cycle_s: list[float] = []

    def set_up() -> None:
        """One set-up round: at least one set-up, more until SETUP_ROUND_S."""
        setup_rounds.append(0)
        t0 = time.perf_counter()
        while True:
            outputs = workload.setup(ledger)
            setup_rounds[-1] += 1
            ledger.digest(("setup",), *outputs)
            if tracer is not None or time.perf_counter() - t0 >= SETUP_ROUND_S:
                return

    with tracer if tracer is not None else contextlib.nullcontext():
        set_up()
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            workload.run_cycle(ledger)
            cycle_s.append(time.perf_counter() - t0)
            # The traced run sets up once and makes exactly MIN_CYCLES
            # cycles, so that its counts repeat exactly.
            if tracer is not None:
                if len(cycle_s) == workload.MIN_CYCLES:
                    break
                continue
            # Set-up rounds lie between the cycles, so that each set-up
            # operation, like each operation of a cycle, has runs seconds
            # apart and its best run is the least disturbed one.  At least
            # MIN_CYCLES cycles, then stop before a cycle and round that
            # would end past the time budget.
            set_up()
            now = time.perf_counter()
            if len(cycle_s) >= workload.MIN_CYCLES and \
                    (now - started) + (now - t0) > args.seconds:
                break
    return {"ledger": ledger, "setup_rounds": setup_rounds, "cycle_s": cycle_s,
            "tracer": tracer, "speed": speedometer}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of them at or below."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(run: dict, factor: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with every time multiplied by ``factor``."""
    ledger = run["ledger"]
    walks = [factor * t for t in ledger.op_times("walk")]
    return {
        "setup_s": (factor * sum(ledger.op_times("setup")), "s"),
        "walks_per_s": (len(walks) / sum(walks), "1/s"),
        "walk_p50_ms": (1e3 * statistics.median(walks), "ms"),
        "walk_p90_ms": (1e3 * percentile(walks, 0.9), "ms"),
        "pass_s": (factor * sum(ledger.op_times()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def describe(e2e: dict, raw: dict, run: dict) -> list[str]:
    """Human-readable lines for the end-to-end metrics, with sample counts."""
    ledger = run["ledger"]
    walks = len(ledger.op_times("walk"))
    runs = {key[0]: len(v) for key, v in ledger.times.items()}
    timed = f"best of {runs.get('walk', 0)} runs each"
    counts = {
        "setup_s": f"{len(ledger.op_times('setup'))} instances, best of "
                   f"{sum(run['setup_rounds'])} runs each in {len(run['setup_rounds'])} rounds",
        "walks_per_s": f"{walks} walks, {timed}",
        "walk_p50_ms": f"n={walks}, {timed}",
        "walk_p90_ms": f"n={walks}, {walks - math.ceil(0.9 * walks)} beyond, {timed}",
        "pass_s": f"{len(ledger.op_times())} operations in {len(run['cycle_s'])} cycles",
        "peak_rss_mb": "whole process",
    }
    lines = [f"{name} {value:.6g} {unit} (raw {raw[name][0]:.6g}; {counts[name]})"
             for name, (value, unit) in e2e.items()]
    speedometer = run["speed"]
    lines.append(f"speed factor {speedometer.factor():.4f} ({len(speedometer.samples)} probes; "
                 f"times above are raw times multiplied by it)")
    for phase in ("oracle", "bound_check", "experiment"):
        times = ledger.op_times(phase)
        if times:
            lines.append(f"{phase}_s {sum(times):.6g} s raw ({len(times)} operations, "
                         f"best of {runs[phase]} runs each)")
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    lines.append(f"fail_ratio {ratio:.6g} ({ledger.failed} failed / "
                 f"{ledger.attempted} attempted)")
    lines.append(f"digest {ledger.hexdigest()}")
    return lines


def overhead_lines(e2e: dict, result_file: Path, env: dict) -> list[str]:
    """Traced minus untraced end-to-end numbers, when an untraced result exists."""
    if not result_file.is_file():
        return [f"tracing overhead: no untraced result at {result_file.name}"]
    base = json.loads(result_file.read_text())
    if any(base["env"][key] != env[key] for key in ("source_sha256", "bench_sha256")):
        return ["tracing overhead: the untraced result is from other sources"]
    lines = []
    for name, (value, unit) in e2e.items():
        before = base["end_to_end"][name]["value"]
        lines.append(f"tracing overhead {name} {value - before:+.6g} {unit} "
                     f"({(value - before) / before:+.1%})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    import numpy
    import tracing

    OUT.mkdir(exist_ok=True)
    # A terminated run still removes its working directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(numpy.__version__)
    ledger = run["ledger"]
    e2e = end_to_end(run, run["speed"].factor())
    raw = end_to_end(run, 1.0)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in describe(e2e, raw, run):
        print(line)
    for problem in ledger.problems[:20]:
        print(f"gate failed: {problem}")

    stem = f"{args.workload}-seed{args.seed}"
    untraced_file = OUT / f"result-{stem}-trace0.json"
    if run["tracer"] is not None:
        for line in overhead_lines(e2e, untraced_file, env):
            print(line)
        spans_file = OUT / f"spans-{stem}.npz"
        run["tracer"].write(spans_file)
        summary = run["tracer"].summary()
        metrics = tracing.layer_metrics(summary)
        print(f"spans {summary.name.size} written to {spans_file.name}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = e2e
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "digest": ledger.hexdigest(),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed_factor": run["speed"].factor(), "probes_s": run["speed"].samples,
        "setup_rounds": run["setup_rounds"], "cycle_s": run["cycle_s"],
    }
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
