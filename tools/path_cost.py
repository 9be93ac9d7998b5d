"""Time one cold ``path`` command, phase by phase.

Run it as ``python tools/path_cost.py [--json FILE]``.  On the three
instance files of the benchmark's ``cli-degenerate`` workload at its seed 0,
written by that workload's own set-up in ``bench/workloads.py`` into a
temporary directory, it runs ``path --instance FILE --seed S --json OUT``
for each of the workload's path seeds (``CliDegenerate.PATH_SEEDS`` of
them), split into the phases the command runs in order:

* ``parse`` -- the argument parser on the command line;
* ``read`` -- :func:`polywalk.instances.read_instance` on the file;
* ``verify`` -- :func:`polywalk.shadow.verify_endpoints` on the file's
  x1 and x2, on the fresh instance just read;
* ``walk`` -- :func:`polywalk.shadow.find_path` on that instance, whose
  endpoint record is then set, so the walk, its objectives and its retries;
* ``write`` -- the path record, ``ShadowPath.to_json``, written to OUT.

Each phase's time is the best of ``REPEATS`` runs, each run a whole cold
command read from the file again, and so is the time of the whole command,
``cli.main`` with its printed lines captured.  Per file it prints the
commands timed and the mean microseconds per command of each phase, their
sum and the whole command.  ``--json FILE`` writes the same numbers, keyed
by file name.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as the benchmark runs, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polywalk import cli  # noqa: E402
from polywalk.instances import read_instance, write_text  # noqa: E402
from polywalk.shadow import find_path, verify_endpoints  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Runs per timing, the best kept.
REPEATS = 5
PHASES = ("parse", "read", "verify", "walk", "write")


def cli_degenerate_files(directory: Path) -> list[Path]:
    """The ``cli-degenerate`` workload's instance files at its seed 0."""
    workload = workloads.CliDegenerate(0, directory)
    workload.setup(workloads.Ledger())
    return workload.files


def phase_times(argv: list[str]) -> dict[str, float]:
    """Seconds of each phase of one cold ``path`` command."""
    t0 = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    t1 = time.perf_counter()
    inst = read_instance(args.instance)
    t2 = time.perf_counter()
    verify_endpoints(inst, inst.x1, inst.x2)
    t3 = time.perf_counter()
    path = find_path(inst, inst.x1, inst.x2, args.seed)
    t4 = time.perf_counter()
    write_text(args.json, path.to_json() + "\n")
    t5 = time.perf_counter()
    stamps = (t0, t1, t2, t3, t4, t5)
    return {phase: end - start for phase, start, end in zip(PHASES, stamps, stamps[1:])}


def command_time(argv: list[str]) -> float:
    """Seconds of the whole command through ``cli.main``."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"error: path {' '.join(argv)} exited {code}")
    return seconds


def measure(instance: Path, seeds: int, repeats: int, out: Path) -> dict:
    """Mean microseconds per command of each phase, best of ``repeats`` each."""
    total = dict.fromkeys([*PHASES, "command"], 0.0)
    for seed in range(seeds):
        argv = ["path", "--instance", str(instance), "--seed", str(seed), "--json", str(out)]
        runs = [phase_times(argv) for _ in range(repeats)]
        for phase in PHASES:
            total[phase] += min(run[phase] for run in runs)
        total["command"] += min(command_time(argv) for _ in range(repeats))
    row = {name: 1e6 * seconds / seeds for name, seconds in total.items()}
    row["sum"] = sum(row[phase] for phase in PHASES)
    return {"commands": seeds, **{f"{name}_us": us for name, us in row.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write the numbers to this file")
    args = parser.parse_args(argv)
    results = {}
    columns = [*PHASES, "sum", "command"]
    print(f"{'file':<26}{'runs':>5}" + "".join(f"{c:>9}" for c in columns) + "  (us)")
    with tempfile.TemporaryDirectory() as tmp:
        for f in cli_degenerate_files(Path(tmp)):
            row = results[f.name] = measure(f, workloads.CliDegenerate.PATH_SEEDS, REPEATS,
                                            Path(tmp) / "path.json")
            print(f"{f.name:<26}{row['commands']:>5}"
                  + "".join(f"{row[f'{c}_us']:>9.1f}" for c in columns))
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
