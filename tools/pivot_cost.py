"""Time one cold walk pivot against the two LAPACK calls it makes.

Run it as ``python tools/pivot_cost.py [--json FILE]``.  On the instances of
the benchmark's ``walk-large`` workload at its seed 0, built by that
workload's own set-up in ``bench/workloads.py``, it walks x1 to x2 with each
of the workload's path seeds (``WalkLarge.WALKS_EACH`` of them).  Each walk
runs on a ``dataclasses.replace`` copy of the instance, whose memos start
empty, so every pivot is cold: one ``linalg.solve`` of the new basis and one
``linalg.inverse`` for the edge directions.  The endpoints are verified and
the objectives drawn before the clock starts; the clock covers
:func:`polywalk.shadow.walk` alone, and each walk's time is the best of
``REPEATS`` runs, each on a fresh copy.  BLAS runs on one thread, as in the
benchmark.

Then the bare gufuncs behind ``np.linalg.solve`` and ``np.linalg.inv`` run
on the same bases (the walk's solves on B_1..B_L against ``[I | b_B]``, its
inverses on B_0..B_(L-1)), again best of ``REPEATS``.  Per instance it
prints the pivots timed, the microseconds per cold pivot, the gufuncs'
microseconds per pivot and the share of the pivot spent outside them.
``--json FILE`` writes the same numbers, keyed by instance name.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, as the benchmark runs, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from numpy.linalg import _umath_linalg  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polywalk.shadow import sample_objectives, verify_endpoints, walk  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Runs per timing, the best kept.
REPEATS = 5


def walk_large_instances() -> list:
    """The ``walk-large`` workload's instances at its seed 0."""
    workload = workloads.WalkLarge(0)
    workload.setup(workloads.Ledger())
    return workload.instances


def timed_walk(inst, seed: int, repeats: int):
    """Best time of ``walk`` from x1 to x2 on fresh copies, and its path."""
    best = np.inf
    for _ in range(repeats):
        fresh = dataclasses.replace(inst)
        ends = verify_endpoints(fresh, inst.x1, inst.x2)
        pair = sample_objectives(fresh, ends.v1, ends.v2, seed)
        t0 = time.perf_counter()
        path = walk(fresh, ends.v1, ends.v2, pair)
        best = min(best, time.perf_counter() - t0)
    if path.vertices[-1].basis != ends.v2.basis:
        raise SystemExit(f"error: {inst.name} seed {seed}: the walk missed x2")
    return best, path


def timed_gufuncs(inst, bases: list[tuple[int, ...]], repeats: int) -> float:
    """Best time of the walk's LAPACK calls alone on its visited bases."""
    mats = [inst.A[list(basis)] for basis in bases]
    fulls = []
    for basis in bases[1:]:
        full = np.eye(inst.n, inst.n + 1)
        full[:, inst.n] = inst.b[list(basis)]
        fulls.append(full)
    best = np.inf
    with np.errstate(all="ignore"):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a, full in zip(mats[1:], fulls):
                _umath_linalg.solve(a, full)
            for a in mats[:-1]:
                _umath_linalg.inv(a)
            best = min(best, time.perf_counter() - t0)
    return best


def measure(inst, seeds: int, repeats: int) -> dict:
    """Per-pivot microseconds of the walks and of their gufuncs alone."""
    walk_s = gufunc_s = 0.0
    pivots = 0
    for seed in range(seeds):
        seconds, path = timed_walk(inst, seed, repeats)
        if path.perturbation is not None:
            raise SystemExit(f"error: {inst.name} seed {seed}: a degenerate walk")
        walk_s += seconds
        gufunc_s += timed_gufuncs(inst, [v.basis for v in path.vertices], repeats)
        pivots += path.length
    pivot_us, gufunc_us = 1e6 * walk_s / pivots, 1e6 * gufunc_s / pivots
    return {"n": inst.n, "walks": seeds, "pivots": pivots, "pivot_us": pivot_us,
            "gufunc_us": gufunc_us, "outside_share": 1.0 - gufunc_us / pivot_us}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write the numbers to this file")
    args = parser.parse_args(argv)
    results = {}
    print(f"{'instance':<28}{'pivots':>7}{'us/pivot':>10}{'gufuncs':>9}{'outside':>9}")
    for inst in walk_large_instances():
        row = results[inst.name] = measure(inst, workloads.WalkLarge.WALKS_EACH, REPEATS)
        print(f"{inst.name:<28}{row['pivots']:>7}{row['pivot_us']:>10.1f}"
              f"{row['gufunc_us']:>9.1f}{row['outside_share']:>9.1%}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
