"""Run the benchmark once per seed and summarise each metric's spread.

Run from the repository root::

    python3 bench/collect.py --seeds 0-9 --out .bench_out/summary.json
    python3 bench/collect.py --seeds 0,1,2 --workloads cli-degenerate

Reads the command, run length, workloads and bounds from ``BENCHMARK.json``
and runs every (seed, workload) pair once, one process at a time, cycling
through the workloads for each seed so that drift in machine load spreads
over all of them.  For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to a third of the metric's bound.  Beside it, read
from each run's result file, it prints the spread of the raw times, before
the speed factor of ``speed.py`` scales them, and it keeps the raw values
and the factors in the summary.  It also prints the output digest of every
run: two collections over the same seeds must print the same digests.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result (exit code {proc.returncode})")
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {"seed": seed, "exit_code": proc.returncode, "wall_s": wall,
            "digest": digest, "raw": record["raw"],
            "speed_factor": record["speed_factor"], **result}


def summarise(runs: list[dict], bounds: dict[str, float], key: str = "metrics") -> dict:
    out = {}
    for name in runs[0][key]:
        values = [r[key][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0][key][name]["unit"], "median": median,
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,4,7")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    # Terminating the collection also stops (and waits for) the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(spec["command"], workload, seed, spec["run_seconds"])
            runs[workload].append(run)
            print(f"{workload} seed {seed}: exit {run['exit_code']} correct {run['correct']} "
                  f"failed {run['failed']}/{run['attempted']} digest {run['digest']} "
                  f"wall {run['wall_s']:.1f} s", flush=True)

    summary = {}
    for workload, wruns in runs.items():
        metrics = summarise(wruns, bounds)
        raw = summarise(wruns, {}, "raw")
        summary[workload] = {"metrics": metrics, "raw": raw,
                             "speed_factors": {r["seed"]: r["speed_factor"] for r in wruns},
                             "digests": {r["seed"]: r["digest"] for r in wruns},
                             "all_correct": all(r["correct"] for r in wruns),
                             "max_wall_s": max(r["wall_s"] for r in wruns)}
        print(f"\n{workload}: {len(wruns)} runs, all correct: "
              f"{summary[workload]['all_correct']}, "
              f"slowest run {summary[workload]['max_wall_s']:.1f} s")
        for name, m in metrics.items():
            line = f"  {name:40s} median {m['median']:.6g} {m['unit']}"
            if "spread" in m:
                line += f"  Q1 {m['q1']:.6g}  Q3 {m['q3']:.6g}  spread {m['spread']:.3f}"
            if "bound" in m and "spread" in m:
                verdict = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
                line += f"  (bound/3 {m['bound'] / 3:.3f}: {verdict})"
            if "spread" in raw[name]:
                line += f"  raw spread {raw[name]['spread']:.3f}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
