"""Monte Carlo trials of the walk and the path-length bound report.

A batch runs :func:`~polywalk.shadow.find_path` once per trial, with
consecutive seeds, and records the observed path lengths; the instance keeps
its verified endpoints, so a batch verifies them once.  The report compares
the mean against the guarantee 8 m n^2 / delta^2 carried by the flatness
parameter of the constraint matrix (for integral matrices also against the
weaker ceiling obtained from the sub-determinant certificate), plus the
breadth-first-search distance as a lower bound where enumeration is
affordable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from . import jsontext
from .errors import CapExceeded, MissingDelta, RetriesExhausted
from .flatness import delta_A, subdet_report
from .polytope import Instance, _check_cap
from .shadow import find_path

CSV_COLUMNS = ("instance_id", "m", "n", "delta", "trials", "mean", "stderr",
               "bound", "ratio", "bfs_lower")


@dataclass(frozen=True)
class TrialBatch:
    """Raw outcomes of repeated walks on one instance."""

    instance_id: str
    n_trials: int
    base_seed: int
    lengths: tuple[int, ...]
    retries: tuple[int, ...]
    failures: tuple[str, ...]


@dataclass(frozen=True)
class BoundReport:
    """Mean path length against its guarantee, with context for emission.

    ``bound_integral_ceiling`` is the sub-determinant form (integral
    instances only); ``bfs_lower`` is the exact graph distance when the
    enumeration cap allowed computing it.  Statistics are None for an empty
    batch.
    """

    instance_id: str
    m: int
    n: int
    delta: float
    trials: int
    mean_length: float | None
    std_err: float | None
    bound_8mn2_over_delta2: float
    ratio_mean_to_bound: float | None
    bound_integral_ceiling: float | None = None
    bfs_lower: int | None = None


def run_batch(inst: Instance, x1, x2, n_trials: int, base_seed: int) -> TrialBatch:
    """Walk n_trials times with seeds base_seed, base_seed+1, ...

    Each trial is one :func:`~polywalk.shadow.find_path` call with its own
    seed; the endpoints are verified by the first call only, and not at all
    for 0 trials, since the instance keeps its last verified pair.  Failed
    trials (all retries exhausted) are recorded by their failure reasons and
    excluded from the lengths; the batch itself never aborts.
    """
    if n_trials < 0:
        raise ValueError("trial count must be nonnegative")
    lengths: list[int] = []
    retries: list[int] = []
    failures: list[str] = []
    for t in range(n_trials):
        try:
            path = find_path(inst, x1, x2, base_seed + t)
        except RetriesExhausted as exc:
            failures.append(";".join(exc.reasons))
            continue
        lengths.append(path.length)
        retries.append(path.retries)
    return TrialBatch(instance_id=inst.name, n_trials=n_trials,
                      base_seed=int(base_seed), lengths=tuple(lengths),
                      retries=tuple(retries), failures=tuple(failures))


def require_delta(inst: Instance) -> None:
    """Raise :class:`MissingDelta` when ``ENUM_CAP`` refuses ``delta_A`` on inst."""
    try:
        _check_cap(inst.m, inst.n)
    except CapExceeded as exc:
        raise MissingDelta(f"flatness of {inst.name} not computable: {exc}") from exc


def bound_report(batch: TrialBatch, inst: Instance, *,
                 bfs_lower: int | None = None) -> BoundReport:
    """Build the comparison report for a finished batch.

    The flatness comes from :func:`~polywalk.flatness.delta_A`, after
    :func:`require_delta`, the integral ceiling from
    :func:`~polywalk.flatness.subdet_report` under ``SUBDET_CAP``.
    ``bfs_lower`` is forwarded verbatim, absent when not supplied.
    """
    require_delta(inst)
    delta = delta_A(inst).delta
    m, n = inst.m, inst.n
    bound = 8.0 * m * n * n / (delta * delta)
    ceiling = None
    if inst.integral:
        ceiling = 8.0 * m * n * n * subdet_report(inst.int_A).bound_on_inv_delta ** 2
    k = len(batch.lengths)
    mean = stderr = ratio = None
    if k:
        mean = sum(batch.lengths) / k
        variance = sum((v - mean) ** 2 for v in batch.lengths) / max(k - 1, 1)
        stderr = math.sqrt(variance / k)
        ratio = mean / bound
    return BoundReport(instance_id=batch.instance_id, m=m, n=n,
                       delta=float(delta), trials=k, mean_length=mean,
                       std_err=stderr, bound_8mn2_over_delta2=bound,
                       bound_integral_ceiling=ceiling, bfs_lower=bfs_lower,
                       ratio_mean_to_bound=ratio)


def emit(report: BoundReport, fmt: str = "json") -> str:
    """Render a report as a stable CSV table or JSON object.

    The CSV column order is pinned (see ``CSV_COLUMNS``); floats are written
    by ``repr`` and absent statistics become empty cells.  The JSON object
    holds the report's fields in order, dropping those that default to None
    when they are None, and round-trips through ``json.loads``.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                         for v in (report.instance_id, report.m, report.n, report.delta,
                                   report.trials, report.mean_length, report.std_err,
                                   report.bound_8mn2_over_delta2,
                                   report.ratio_mean_to_bound, report.bfs_lower)])
        return buf.getvalue()
    if fmt == "json":
        payload = {f.name: getattr(report, f.name) for f in fields(report)
                   if f.default is not None or getattr(report, f.name) is not None}
        return jsontext.dumps(payload) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
