"""Compare two checkouts on one benchmark workload in alternating pairs.

Run it from anywhere as::

    python tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload corpus \\
        --pairs 10 --seed 0 --out BENCH.json

Each pair runs the benchmark's ``command`` from ``BENCHMARK.json`` with
``--workload W --seed S --seconds T --trace 0``, T the file's
``run_seconds``, once in each checkout, one after the other: pair 0 runs the
parent first, pair 1 the change first, and so on.  After each run it reads
that checkout's ``.bench_out/result-W-seedS-trace0.json``: every end-to-end
metric, at the reference speed and raw, the digest of the outputs and the
failed count.

The summary goes under the key ``W-seedS`` of the ``--out`` file, which keeps
its other keys, so one file can hold several workloads and seeds.  Per metric
it holds both sides' values pair by pair, the change-to-parent ratio of each
pair, the wins of each side (by the metric's direction in ``BENCHMARK.json``;
a tie is no one's win), each side's median and quartiles as
``bench/collect.py`` summarises them (``statistics.quantiles(values, n=4)``),
and whether the gap between the medians exceeds the parent's interquartile
range.  Two verdicts follow the repository's rules for a benchmark claim:

* ``gain`` -- the change won at least 9 in 10 of the pairs and the gap
  between the medians exceeds the parent's interquartile range;
* ``within_bound`` (end-to-end metrics) -- the change's median is worse than
  the parent's by no more than the metric's ``bound``, a fraction of the
  parent's median.

The summary also says whether every run's digest was the same and counts
each side's failed operations.  The exit status is 1 when the digests
differ or the change failed more operations than the parent, else 0.
Nothing is written into ``bench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

_spec = importlib.util.spec_from_file_location("bench_collect", ROOT / "bench" / "collect.py")
collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect)


def run_bench(checkout: Path, argv: list[str]) -> None:
    """Run the benchmark command in a checkout with its output captured; the
    result file, not the exit code, tells whether it ran."""
    subprocess.run(argv, cwd=checkout, capture_output=True, text=True)


def run_pairs(checkouts: dict[str, Path], spec: dict, workload: str, seed: int,
              pairs: int, runner=run_bench) -> list[dict[str, dict]]:
    """One result record per side for each pair, the sides in alternating order."""
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    results = []
    for i in range(pairs):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = checkouts[side] / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
            result.unlink(missing_ok=True)
            runner(checkouts[side], argv)
            if not result.is_file():
                raise SystemExit(f"error: pair {i}: no result in {checkouts[side]}")
            pair[side] = json.loads(result.read_text())
        pair["first"] = SIDES[i % 2]
        results.append(pair)
    return results


def summarize(results: list[dict], kind: str, spec: dict) -> dict:
    """Per end-to-end metric of ``spec``, read from ``kind`` (``end_to_end``
    or ``raw``): values, ratios, wins, medians and quartiles per side."""
    rules = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in rules.items()} if kind == "end_to_end" else {}
    stats = {side: collect.summarise([r[side] for r in results], bounds, kind) for side in SIDES}
    out = {}
    for name, rule in rules.items():
        parent, change = stats["parent"][name], stats["change"][name]
        sign = 1.0 if rule["better"] == "higher" else -1.0
        diffs = [sign * (c - p) for p, c in zip(parent["values"], change["values"])]
        gap = sign * (change["median"] - parent["median"])
        entry = {
            "unit": parent["unit"],
            "better": rule["better"],
            "parent": parent["values"],
            "change": change["values"],
            "ratio": [c / p for p, c in zip(parent["values"], change["values"])],
            "wins": {"parent": sum(d < 0 for d in diffs), "change": sum(d > 0 for d in diffs)},
            **{key: {side: stats[side][name][key] for side in SIDES}
               for key in ("median", "q1", "q3")},
            "gap_exceeds_parent_iqr": gap > parent["q3"] - parent["q1"],
        }
        entry["gain"] = 10 * entry["wins"]["change"] >= 9 * len(diffs) \
            and entry["gap_exceeds_parent_iqr"]
        if "bound" in parent:
            entry["bound"] = parent["bound"]
            entry["within_bound"] = -gap <= parent["bound"] * parent["median"]
        out[name] = entry
    return out


def main(argv=None, runner=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = run_pairs(checkouts, spec, args.workload, args.seed, args.pairs, runner)
    digests = {side: sorted({r[side]["digest"] for r in results}) for side in SIDES}
    summary = {
        "workload": args.workload, "seed": args.seed, "run_seconds": spec["run_seconds"],
        "pairs": args.pairs, "first": [r["first"] for r in results],
        "digests": digests,
        "digests_match": digests["parent"] == digests["change"] and len(digests["parent"]) == 1,
        "failed": {side: [r[side]["failed"] for r in results] for side in SIDES},
        "failed_total": {side: sum(r[side]["failed"] for r in results) for side in SIDES},
        "source_sha256": {side: sorted({r[side]["env"]["source_sha256"] for r in results})
                          for side in SIDES},
        "metrics": summarize(results, "end_to_end", spec),
        "raw": summarize(results, "raw", spec),
    }
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record[f"{args.workload}-seed{args.seed}"] = summary
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in summary["metrics"].items():
        print(f"{name}: change wins {entry['wins']['change']} of {args.pairs}, median "
              f"{entry['median']['parent']:.6g} -> {entry['median']['change']:.6g} "
              f"{entry['unit']}; gain {entry['gain']}, within bound {entry['within_bound']}")
    failed = summary["failed_total"]
    print(f"digests match: {summary['digests_match']}; failed operations: "
          f"parent {failed['parent']}, change {failed['change']}")
    return 0 if summary["digests_match"] and failed["change"] <= failed["parent"] else 1


if __name__ == "__main__":
    sys.exit(main())
