"""Time the corpus oracles against the LAPACK inverses they run.

Run it as ``python tools/oracle_cost.py [--json FILE]``.  On the instances of
the benchmark's ``corpus`` workload, built by that workload's own set-up in
``bench/workloads.py``, it times :func:`polywalk.delta_A` and, on an
integral instance, :func:`polywalk.certify_delta_Delta`, each the best of
``REPEATS`` calls, as the workload's oracle pass calls them.  BLAS runs on
one thread, as in the benchmark.

Then the bare gufunc behind ``np.linalg.inv`` runs on the same subset stacks
``delta_A`` inverts (every n-subset of the instance's unit rows, in chunks of
``SUBSET_CHUNK`` in combinations order, stacked before the clock starts),
again best of ``REPEATS``.  Per instance it prints the bases, the
microseconds of each oracle, of the bare inverses, and the share of each
oracle spent outside them; ``certify_delta_Delta`` runs ``delta_A`` and
adds the exact minors of ``subdet_report``, so its share outside holds
those too.  ``--json FILE`` writes the same numbers, keyed by instance name.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
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

from polywalk import linalg  # noqa: E402
from polywalk.flatness import certify_delta_Delta, delta_A  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Runs per timing, the best kept.
REPEATS = 9


def corpus_instances() -> list:
    """The ``corpus`` workload's instances (its seed moves only path seeds)."""
    workload = workloads.Corpus(0)
    workload.setup(workloads.Ledger())
    return workload.instances


def best_of(call, repeats: int) -> float:
    """Best wall time of ``call()`` over ``repeats`` runs."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def subset_stacks(inst) -> list[np.ndarray]:
    """The ``(k, n, n)`` stacks of unit-row bases that ``delta_A`` inverts."""
    rows = linalg.unit_rows(inst.A)
    subsets = np.array(list(combinations(range(inst.m), inst.n)), dtype=np.intp)
    return [rows[subsets[lo:lo + linalg.SUBSET_CHUNK]]
            for lo in range(0, len(subsets), linalg.SUBSET_CHUNK)]


def measure(inst, repeats: int) -> dict:
    """Microseconds of each oracle and of its bare inverses, and the shares
    outside them; ``certify_us`` and its share are None on a float instance."""
    stacks = subset_stacks(inst)

    def inverses():
        for stack in stacks:
            _umath_linalg.inv(stack)

    with np.errstate(all="ignore"):
        inv_s = best_of(inverses, repeats)
    delta_s = best_of(lambda: delta_A(inst), repeats)
    certify_s = best_of(lambda: certify_delta_Delta(inst), repeats) if inst.integral else None
    row = {"n": inst.n, "m": inst.m, "bases": math.comb(inst.m, inst.n),
           "delta_us": 1e6 * delta_s, "certify_us": None, "inv_us": 1e6 * inv_s,
           "delta_outside": 1.0 - inv_s / delta_s, "certify_outside": None}
    if certify_s is not None:
        row["certify_us"] = 1e6 * certify_s
        row["certify_outside"] = 1.0 - inv_s / certify_s
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write the numbers to this file")
    args = parser.parse_args(argv)
    results = {}
    print(f"{'instance (us)':<28}{'bases':>6}{'delta_A':>9}{'certify':>9}{'inv':>9}"
          f"{'delta out':>11}{'cert out':>10}")
    totals = np.zeros(3)
    for inst in corpus_instances():
        row = results[inst.name] = measure(inst, REPEATS)
        certify = row["certify_us"]
        totals += (row["delta_us"], certify or 0.0, row["inv_us"])
        print(f"{inst.name:<28}{row['bases']:>6}{row['delta_us']:>9.1f}"
              + (f"{certify:>9.1f}" if certify is not None else f"{'-':>9}")
              + f"{row['inv_us']:>9.1f}{row['delta_outside']:>11.1%}"
              + (f"{row['certify_outside']:>10.1%}" if certify is not None else f"{'-':>10}"))
    print(f"{'total':<28}{'':>6}{totals[0]:>9.1f}{totals[1]:>9.1f}{totals[2]:>9.1f}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
