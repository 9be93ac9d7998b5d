"""Time one layer of the program against the calls under it.

Run it as ``python tools/layer_cost.py {pivot,oracle,path,warm} [--json FILE]``.
Each layer runs on the instances of one benchmark workload at its seed 0,
built by that workload's own set-up in ``bench/workloads.py``; every time is
the best of the layer's ``REPEATS`` runs, and BLAS runs on one thread, as in
the benchmark.  It prints one row per instance or file, and ``--json FILE``
writes the same numbers, keyed by instance or file name.

* ``pivot`` -- cold walk pivots on the ``walk-large`` instances.  Each of the
  workload's path seeds (``WalkLarge.WALKS_EACH``) walks x1 to x2 on a
  ``dataclasses.replace`` copy of the instance, whose memos start empty, so
  every pivot runs one ``linalg.solve`` of the new basis and one
  ``linalg.inverse`` for the edge directions.  The endpoints are verified
  and the objectives drawn before the clock starts, which covers
  :func:`polywalk.shadow.walk` alone.  Then the bare gufuncs behind
  ``np.linalg.solve`` and ``np.linalg.inv`` run on the same bases (the
  solves on B_1..B_L against ``[I | b_B]``, the inverses on B_0..B_(L-1)).
  Per instance: the pivots, the microseconds per cold pivot, the gufuncs'
  microseconds per pivot and the share of the pivot outside them.
* ``oracle`` -- :func:`polywalk.delta_A` and, on an integral instance,
  :func:`polywalk.certify_delta_Delta` on the ``corpus`` instances, as the
  workload's oracle pass calls them, then the bare gufunc behind
  ``np.linalg.inv`` on the subset stacks ``delta_A`` inverts (every n-subset
  of the unit rows, ``SUBSET_CHUNK`` at a time in combinations order,
  stacked before the clock starts).  Per instance: the bases, the
  microseconds of each oracle and of the bare inverses, and the share of
  each oracle outside them (``certify_delta_Delta``'s share also holds the
  exact minors of ``subdet_report``); then the totals.
* ``path`` -- one cold ``path --instance FILE --seed S --json OUT`` command
  per path seed (``CliDegenerate.PATH_SEEDS``) on the ``cli-degenerate``
  files, written into a temporary directory, split into the phases the
  command runs in order, each run a whole command on the file read afresh:
  ``parse`` (the argument parser), ``read`` (``read_instance``), ``verify``
  (``verify_endpoints`` on the file's x1 and x2), ``walk`` (``find_path``,
  with its objectives and retries) and ``write`` (``ShadowPath.to_json``
  written to OUT).  Per file: the commands and the mean microseconds per
  command of each phase, their sum and the whole command through
  ``cli.main``, its printed lines captured.
* ``warm`` -- warm walks on the ``corpus`` instances.  After one untimed
  :func:`polywalk.find_path` per path seed (``Corpus.PATH_SEEDS``), which
  fills the instance's memos and the process's weight memo, each seed times
  ``find_path`` again, its :func:`polywalk.shadow.sample_objectives` on the
  verified endpoints, and the bare ``1 - default_rng(seed).random(2n)``
  that a weight memo miss draws.  Per instance: the walks and the mean
  microseconds per seed of each.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

# One BLAS thread, as the benchmark runs, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from numpy.linalg import _umath_linalg  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polywalk import cli, linalg  # noqa: E402
from polywalk.flatness import certify_delta_Delta, delta_A  # noqa: E402
from polywalk.instances import read_instance, write_text  # noqa: E402
from polywalk.shadow import find_path, sample_objectives, verify_endpoints, walk  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Runs per timing, the best kept, by layer.
REPEATS = {"pivot": 5, "oracle": 9, "path": 5, "warm": 9}
PHASES = ("parse", "read", "verify", "walk", "write")
WARM_PARTS = ("walk", "sample", "draw")


def best_of(call, repeats: int, fresh=tuple):
    """Best wall time of ``call(*fresh())`` over ``repeats`` runs, with
    ``fresh()`` outside the clock, and the last run's result."""
    best = math.inf
    for _ in range(repeats):
        args = fresh()
        t0 = time.perf_counter()
        out = call(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def set_up(workload):
    """``workload`` after its own set-up."""
    workload.setup(workloads.Ledger())
    return workload


def pivot_measure(inst, seeds: int, repeats: int) -> dict:
    """Per-pivot microseconds of cold walks and of their gufuncs alone."""
    target = verify_endpoints(dataclasses.replace(inst), inst.x1, inst.x2).v2.basis
    walk_s = gufunc_s = 0.0
    pivots = 0
    for seed in range(seeds):
        def cold(seed=seed):
            fresh = dataclasses.replace(inst)
            ends = verify_endpoints(fresh, inst.x1, inst.x2)
            return fresh, ends.v1, ends.v2, sample_objectives(fresh, ends.v1, ends.v2, seed)

        seconds, path = best_of(walk, repeats, cold)
        if path.vertices[-1].basis != target:
            raise SystemExit(f"error: {inst.name} seed {seed}: the walk missed x2")
        if path.status == "Perturbed+Completed":
            raise SystemExit(f"error: {inst.name} seed {seed}: a degenerate walk")
        mats = [inst.A[list(v.basis)] for v in path.vertices]
        fulls = [np.column_stack([np.eye(inst.n), inst.b[list(v.basis)]])
                 for v in path.vertices[1:]]

        def gufuncs():
            for a, full in zip(mats[1:], fulls):
                _umath_linalg.solve(a, full)
            for a in mats[:-1]:
                _umath_linalg.inv(a)

        with np.errstate(all="ignore"):
            gufunc_s += best_of(gufuncs, repeats)[0]
        walk_s += seconds
        pivots += path.length
    pivot_us, gufunc_us = 1e6 * walk_s / pivots, 1e6 * gufunc_s / pivots
    return {"n": inst.n, "walks": seeds, "pivots": pivots, "pivot_us": pivot_us,
            "gufunc_us": gufunc_us, "outside_share": 1.0 - gufunc_us / pivot_us}


def subset_stacks(inst) -> list[np.ndarray]:
    """The ``(k, n, n)`` stacks of unit-row bases that ``delta_A`` inverts."""
    rows = linalg.unit_rows(inst.A)
    subsets = np.array(list(combinations(range(inst.m), inst.n)), dtype=np.intp)
    return [rows[subsets[lo:lo + linalg.SUBSET_CHUNK]]
            for lo in range(0, len(subsets), linalg.SUBSET_CHUNK)]


def oracle_measure(inst, repeats: int) -> dict:
    """Microseconds of each oracle and of its bare inverses, and the shares
    outside them; ``certify_us`` and its share are None on a float instance."""
    stacks = subset_stacks(inst)

    def inverses():
        for stack in stacks:
            _umath_linalg.inv(stack)

    with np.errstate(all="ignore"):
        inv_s = best_of(inverses, repeats)[0]
    delta_s = best_of(lambda: delta_A(inst), repeats)[0]
    row = {"n": inst.n, "m": inst.m, "bases": math.comb(inst.m, inst.n),
           "delta_us": 1e6 * delta_s, "certify_us": None, "inv_us": 1e6 * inv_s,
           "delta_outside": 1.0 - inv_s / delta_s, "certify_outside": None}
    if inst.integral:
        certify_s = best_of(lambda: certify_delta_Delta(inst), repeats)[0]
        row["certify_us"] = 1e6 * certify_s
        row["certify_outside"] = 1.0 - inv_s / certify_s
    return row


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


def path_measure(instance: Path, seeds: int, repeats: int, out: Path) -> dict:
    """Mean microseconds per command of each phase, best of ``repeats`` each."""
    total = dict.fromkeys([*PHASES, "command"], 0.0)
    for seed in range(seeds):
        argv = ["path", "--instance", str(instance), "--seed", str(seed), "--json", str(out)]
        runs = [phase_times(argv) for _ in range(repeats)]
        for phase in PHASES:
            total[phase] += min(run[phase] for run in runs)
        with contextlib.redirect_stdout(io.StringIO()):
            seconds, code = best_of(cli.main, repeats, lambda: (argv,))
        if code != 0:
            raise SystemExit(f"error: path {' '.join(argv)} exited {code}")
        total["command"] += seconds
    row = {name: 1e6 * seconds / seeds for name, seconds in total.items()}
    row["sum"] = sum(row[phase] for phase in PHASES)
    return {"commands": seeds, **{f"{name}_us": us for name, us in row.items()}}


def warm_measure(inst, seeds: int, repeats: int) -> dict:
    """Mean microseconds per seed of a warm ``find_path``, of its
    ``sample_objectives`` and of the bare weight draw."""
    for seed in range(seeds):
        find_path(inst, inst.x1, inst.x2, seed)
    ends = verify_endpoints(inst, inst.x1, inst.x2)
    total = dict.fromkeys(WARM_PARTS, 0.0)
    for seed in range(seeds):
        calls = {
            "walk": lambda seed=seed: find_path(inst, inst.x1, inst.x2, seed),
            "sample": lambda seed=seed: sample_objectives(inst, ends.v1, ends.v2, seed),
            "draw": lambda seed=seed: 1.0 - np.random.default_rng(seed).random(2 * inst.n),
        }
        for part, call in calls.items():
            total[part] += best_of(call, repeats)[0]
    return {"n": inst.n, "walks": seeds,
            **{f"{part}_us": 1e6 * seconds / seeds for part, seconds in total.items()}}


def pivot_rows(repeats: int):
    for inst in set_up(workloads.WalkLarge(0)).instances:
        yield inst.name, pivot_measure(inst, workloads.WalkLarge.WALKS_EACH, repeats)


def oracle_rows(repeats: int):
    for inst in set_up(workloads.Corpus(0)).instances:
        yield inst.name, oracle_measure(inst, repeats)


def path_rows(repeats: int):
    with tempfile.TemporaryDirectory() as tmp:
        for f in set_up(workloads.CliDegenerate(0, Path(tmp))).files:
            yield f.name, path_measure(f, workloads.CliDegenerate.PATH_SEEDS, repeats,
                                       Path(tmp) / "path.json")


def warm_rows(repeats: int):
    for inst in set_up(workloads.Corpus(0)).instances:
        yield inst.name, warm_measure(inst, workloads.Corpus.PATH_SEEDS, repeats)


# Per layer: its rows, the name column's heading, its columns (each a JSON key,
# a heading and a format) and the keys summed on a last row, if any.
LAYERS = {
    "pivot": (pivot_rows, "instance", [("pivots", "pivots", "d"), ("pivot_us", "us/pivot", ".1f"),
                                       ("gufunc_us", "gufuncs", ".1f"),
                                       ("outside_share", "outside", ".1%")], ()),
    "oracle": (oracle_rows, "instance (us)", [
        ("bases", "bases", "d"), ("delta_us", "delta_A", ".1f"), ("certify_us", "certify", ".1f"),
        ("inv_us", "inv", ".1f"), ("delta_outside", "delta out", ".1%"),
        ("certify_outside", "cert out", ".1%")], ("delta_us", "certify_us", "inv_us")),
    "path": (path_rows, "file (us)", [("commands", "runs", "d")]
             + [(f"{c}_us", c, ".1f") for c in (*PHASES, "sum", "command")], ()),
    "warm": (warm_rows, "instance (us)", [("walks", "walks", "d")]
             + [(f"{part}_us", part, ".1f") for part in WARM_PARTS], ()),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS, help="the layer to time")
    parser.add_argument("--json", type=Path, help="write the numbers to this file")
    args = parser.parse_args(argv)
    rows, heading, columns, totalled = LAYERS[args.layer]
    results = {}
    print(f"{heading:<28}" + "".join(f"{head:>10}" for _, head, _ in columns))
    for name, row in rows(REPEATS[args.layer]):
        results[name] = row
        print(f"{name:<28}" + "".join(f"{'-' if row[key] is None else format(row[key], fmt):>10}"
                                      for key, _, fmt in columns))
    if totalled:
        print(f"{'total':<28}" + "".join(
            f"{sum(row[key] or 0.0 for row in results.values()):>10.1f}" if key in totalled
            else f"{'':>10}" for key, _, _ in columns).rstrip())
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
