"""Command line front end.

Subcommands: ``path`` walks between two vertices, ``delta`` prints the
flatness of the constraint matrix, ``bound-check`` adds the sub-determinant
certificate, ``generate`` writes an instance file, ``experiment`` runs a
Monte Carlo batch and writes CSV/JSON reports.

Exit codes: 0 success, 1 input problems, 2 algorithmic failure or a violated
bound, 3 an enumeration cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import CapExceeded, PolywalkError, RetriesExhausted
from .experiments import bound_report, emit, require_delta, run_batch
from .flatness import certify_reports, delta_A, subdet_report, subdet_rows
from .instances import (FAMILIES, GeneratorSpec, generate, read_instance, write_instance,
                        write_text)
from .polytope import bfs_distance
from .shadow import find_path, verify_endpoints

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ALGORITHM = 2
EXIT_CAP = 3


def _parse_point(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise PolywalkError(f"bad coordinate list {text!r}: {exc}") from exc


def cmd_path(args) -> int:
    inst = read_instance(args.instance)
    x1 = inst.x1 if args.x1 is None else _parse_point(args.x1)
    x2 = inst.x2 if args.x2 is None else _parse_point(args.x2)
    if x1 is None or x2 is None:
        print("error: endpoints missing (no --x1/--x2 and none in the file)",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        path = find_path(inst, x1, x2, args.seed)
    except RetriesExhausted as exc:
        if args.json:
            write_text(args.json, exc.path.to_json() + "\n")
        print(f"status={exc.path.status}")
        return EXIT_ALGORITHM
    if args.json:
        write_text(args.json, path.to_json() + "\n")
    print(f"status={path.status}")
    print(f"length={path.length}")
    print("slopes=" + ",".join(repr(s) for s in path.slopes))
    return EXIT_OK


def cmd_delta(args) -> int:
    inst = read_instance(args.instance)
    report = delta_A(inst)
    print(f"delta={report.delta!r}")
    print("argmin_basis=" + ",".join(str(i) for i in report.argmin_basis))
    print(f"method={report.method}")
    print(f"bases_checked={report.n_bases_checked}")
    return EXIT_OK


def cmd_bound_check(args) -> int:
    inst = read_instance(args.instance)
    report = delta_A(inst)
    print(f"delta={report.delta!r}")
    print("argmin_basis=" + ",".join(str(i) for i in report.argmin_basis))
    if not inst.integral:
        print("certificate=skipped (matrix not integral)")
        return EXIT_OK
    sub = subdet_report(inst.int_A)
    holds, slack = certify_reports(report, sub.bound_on_inv_delta)
    print(f"Delta={sub.Delta}")
    print(f"Delta1={sub.Delta1}")
    print(f"Delta_n_minus_1={sub.Delta_n_minus_1}")
    print(f"bound_on_inv_delta={sub.bound_on_inv_delta!r}")
    print(f"inv_delta={1.0 / report.delta!r}")
    print(f"certificate={'holds' if holds else 'violated'}")
    print(f"slack={slack!r}")
    return EXIT_OK if holds else EXIT_ALGORITHM


def cmd_generate(args) -> int:
    spec = GeneratorSpec(family=args.family, n=args.n, m=args.m, seed=args.seed)
    inst = generate(spec)
    write_instance(inst, args.out)
    print(f"wrote {inst.name}: m={inst.m} n={inst.n} -> {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    inst = read_instance(args.instance)
    if inst.x1 is None or inst.x2 is None:
        print("error: instance file lacks x1/x2 endpoints", file=sys.stderr)
        return EXIT_INPUT
    # Refuse before walking: the endpoints, as the first trial would, delta,
    # the integral ceiling's minor count, and an --out on or under a file, by
    # mkdir's own error, creating nothing.
    verify_endpoints(inst, inst.x1, inst.x2)
    require_delta(inst)
    if inst.integral:
        subdet_rows(inst.int_A)
    out = Path(args.out)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        out.mkdir(parents=True, exist_ok=True)
    batch = run_batch(inst, inst.x1, inst.x2, args.trials, args.seed)
    report = bound_report(batch, inst, bfs_lower=bfs_distance(inst, inst.x1, inst.x2))
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "report.csv", emit(report, "csv"))
    write_text(out / "report.json", emit(report, "json"))
    print(f"instance={report.instance_id}")
    print(f"trials={report.trials}")
    print(f"mean_length={report.mean_length!r}")
    print(f"bound={report.bound_8mn2_over_delta2!r}")
    print(f"ratio_mean_to_bound={report.ratio_mean_to_bound!r}")
    if report.trials == 0:
        return EXIT_ALGORITHM if batch.n_trials else EXIT_OK
    return EXIT_OK if report.mean_length <= report.bound_8mn2_over_delta2 else EXIT_ALGORITHM


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Each subcommand stores the name of its handler, not the function, so
    :func:`main` looks the handler up when it runs and a replaced
    ``cmd_*`` attribute of this module takes effect after the first parse.
    """
    parser = argparse.ArgumentParser(
        prog="polywalk",
        description="Short edge paths on polytopes via randomized shadow projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("path", help="walk between two vertices")
    p.add_argument("--instance", required=True)
    p.add_argument("--x1", help="start vertex as comma-separated coordinates")
    p.add_argument("--x2", help="target vertex as comma-separated coordinates")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", help="also write the full path record here")
    p.set_defaults(func="cmd_path")

    p = sub.add_parser("delta", help="flatness of the constraint matrix")
    p.add_argument("--instance", required=True)
    p.set_defaults(func="cmd_delta")

    p = sub.add_parser("bound-check", help="flatness vs sub-determinant certificate")
    p.add_argument("--instance", required=True)
    p.set_defaults(func="cmd_bound_check")

    p = sub.add_parser("generate", help="write an instance file")
    p.add_argument("--family", required=True, help=" | ".join(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="rows (random-sphere) or q (transportation)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_generate")

    p = sub.add_parser("experiment", help="Monte Carlo batch with bound report")
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for report.csv/report.json")
    p.set_defaults(func="cmd_experiment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PolywalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
