"""Randomized shadow walks between two vertices of a polytope.

Given vertices x1 and x2 of ``{x : A x <= b}``, two random objectives are
built from the tight rows at the endpoints: w1 makes x1 the unique minimizer
and w2 makes x2 the unique maximizer.  Projecting the polytope onto
(w1.x, w2.x) yields a polygon; the path from the image of x1 to the image of
x2 along the polygon's upper-left boundary lifts to an edge path on the
polytope.  The walk follows exactly that boundary: at every vertex it picks,
among the edges improving the second coordinate, the one with the largest
slope in the projection plane.  Slopes are positive and strictly decrease,
which is also the invariant the walk enforces step by step.

Degenerate vertices (more than n tight rows) are walked on the symbolic
right-hand side b + (eps, eps**2, ..., eps**m), simple for every small
eps > 0 (Dantzig, Orden & Wolfe, 1955).  The paper randomises only the
objectives and assumes only a simple polytope, so this perturbation serves
as well as a random one, and no perturbed instance is built.  Numeric
failures redraw the objectives with the next seed.  Walks on one instance
share a bounded memo with one record per basis, of its point, edges and
pivot outcomes, and every walk in the process shares one bounded memo of
weight draws, each drawn once per (seed, 2n), so a warm walk does only its
own seed's products and slope choices.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jsontext, linalg
from .errors import (
    InfeasibleStep,
    LeftwardEdge,
    NonMonotoneSlopes,
    RetriesExhausted,
    Singular,
    StalledWalk,
    StepLimit,
    Unbounded,
    UnboundedShadow,
    WalkFailure,
)
from .polytope import (
    DIR_TOL,
    TIGHT_TOL,
    Instance,
    VertexWithBasis,
    edge_directions,
    ratio_step,
    verify_vertex,
)

# A projected rise or run, or the decrease between consecutive slopes, at or
# below this counts as none.
SLOPE_TOL = 1e-12

MAX_ATTEMPTS = 16
# Bytes each instance's pivot memo is charged at most, by _record_bytes (see
# walk).  The charge counts float64 payloads only, so the memo holds more.
PIVOT_MEMO_BYTES = 2**18
# (seed, 2n) weight draws the process keeps, shared by every instance.  A
# batch reuses one seed list on each instance: the benchmark's corpus walks
# 180 keys, demos/bound_experiment.py 200.  An entry holds 414 B at n = 6 and
# 1,213 B at n = 60 (tracemalloc), so the memo holds at most 0.2 to 0.6 MB.
OBJECTIVE_MEMO_SIZE = 512


@dataclass(frozen=True)
class ObjectivePair:
    """The two random objectives spanning the projection plane.

    ``w1`` is minus the tight rows at x1 mixed with weights ``lam``; ``w2``
    is the tight rows at x2 mixed with ``mu``.  Both weight vectors are drawn
    uniformly from (0, 1]^n, so each endpoint optimizes its objective
    uniquely and both norms stay at most n.
    """

    lam: np.ndarray
    mu: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    u_rows: tuple[int, ...]
    v_rows: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class ShadowPath:
    """An edge path plus everything needed to audit it.

    ``slopes`` has one entry per traversed edge, ``pivot_trace`` one
    (leaving_row, entering_row, step) triple per edge.  ``status`` is
    "Completed", "Perturbed+Completed" (the walk met a degenerate vertex,
    endpoints included, and ran on the symbolic right-hand side
    b + (eps, ..., eps**m)) or "Failed(...)".  ``objective`` is the draw the
    path was walked with: None for a zero-length path, which draws none, and
    for a failed one.
    """

    vertices: tuple[VertexWithBasis, ...]
    slopes: tuple[float, ...]
    pivot_trace: tuple[tuple[int, int, float], ...]
    status: str
    seed: int
    retries: int = 0
    objective: ObjectivePair | None = None

    @property
    def length(self) -> int:
        return max(len(self.vertices) - 1, 0)

    @property
    def projections(self) -> tuple[tuple[float, float], ...]:
        """One (xi, eta) image per vertex under ``objective``, computed on
        read; empty without one.  ``@`` sums two vectors from +0.0, where
        ``ndarray.dot`` keeps a -0.0 (n = 1, as on transportation 2x2)."""
        pair = self.objective
        if pair is None:
            return ()
        return tuple((float(pair.w1 @ v.x), float(pair.w2 @ v.x)) for v in self.vertices)

    def to_json(self) -> str:
        """The path record; ``perturbation`` holds the seed of the objectives
        a perturbed walk was drawn from, seed + retries."""
        record = {
            "status": self.status,
            "seed": int(self.seed),
            "retries": int(self.retries),
            "vertices": [np.asarray(v.x, dtype=float).tolist() for v in self.vertices],
            "bases": [[int(i) for i in v.basis] for v in self.vertices],
            "slopes": [float(s) for s in self.slopes],
            "projections": [[a, b] for a, b in self.projections],
            "perturbation": {"seed": int(self.objective.seed)}
            if self.status == "Perturbed+Completed" else None,
        }
        return jsontext.dumps(record)


def sample_objectives(inst: Instance, v1: VertexWithBasis, v2: VertexWithBasis,
                      seed: int) -> ObjectivePair:
    """Draw the two endpoint objectives from the seeded generator.

    Weights are 1 - U with U uniform on [0, 1), so they land in (0, 1]; lam
    and mu are views of the two halves of one frozen draw of 2n, made once
    per (seed, 2n) in the process by :func:`_objective_weights` and shared by
    every pair drawn with that seed, and mixed by ``ndarray.dot``.  ``w1``
    and ``w2`` belong to the pair, built for its one path and kept by no
    memo, so they are only flagged read-only.  The rows are the endpoints'
    bases: at a degenerate vertex, the lexicographically feasible basis
    :func:`~polywalk.polytope.verify_vertex` picks, so the endpoint optimizes
    its objective uniquely on the perturbed polytope as well.  The seed is an
    int or a numpy integer, as ``default_rng`` takes.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    weights = _objective_weights(seed, 2 * inst.n)
    lam, mu = weights[:inst.n], weights[inst.n:]
    columns1, columns2 = _unit_columns(inst, v1, v2)
    w1 = -columns1.dot(lam)
    w2 = columns2.dot(mu)
    w1.flags.writeable = w2.flags.writeable = False
    return ObjectivePair(lam=lam, mu=mu, w1=w1, w2=w2,
                         u_rows=v1.basis, v_rows=v2.basis, seed=seed)


@lru_cache(maxsize=OBJECTIVE_MEMO_SIZE)
def _objective_weights(seed: int, size: int) -> np.ndarray:
    """``1 - default_rng(seed).random(size)``, frozen, kept for the
    ``OBJECTIVE_MEMO_SIZE`` keys used last.  A seed ``default_rng`` refuses
    raises and is not kept.  A test that patches ``np.random.default_rng``
    must clear this memo (``cache_clear``) before and after."""
    return linalg._frozen(1.0 - np.random.default_rng(seed).random(size))


def _unit_columns(inst: Instance, v1: VertexWithBasis,
                  v2: VertexWithBasis) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoints' unit basis rows as frozen columns.

    Read from the endpoint memo when its pair has these bases, since they
    depend on nothing else.
    """
    memo = inst._endpoint_memo
    if memo is not None and (memo.v1.basis, memo.v2.basis) == (v1.basis, v2.basis):
        return memo.columns
    units = linalg.unit_rows(inst.A.take(v1.basis + v2.basis, axis=0))
    return linalg._frozen(units[:inst.n].T), linalg._frozen(units[inst.n:].T)


def project(pair: ObjectivePair, x) -> tuple[float, float]:
    """Image of a point in the (w1.x, w2.x) shadow plane."""
    point = linalg.as_vector(x)
    return float(pair.w1 @ point), float(pair.w2 @ point)


def default_max_steps(inst: Instance) -> int:
    """Step budget: ten times the basis count, capped at one million."""
    return 10 * min(math.comb(inst.m, inst.n), 10**5)


def walk(inst: Instance, start: VertexWithBasis, target: VertexWithBasis,
         pair: ObjectivePair) -> ShadowPath:
    """Follow the shadow boundary from start to target.

    Each pivot takes the edge :func:`_steepest_edge` picks.  A pivot
    landing on a degenerate vertex takes its entering row from
    :func:`_lex_entering`, so every basis visited from a lexicographically
    feasible start is one; a pivot whose entering row was already tight
    moves nowhere and is merged into the vertex it leaves.  The walk ends at
    the target's basis (sorted rows, as ``verify_vertex`` picks them), or,
    when it stands on a degenerate vertex and the target is one, where every
    row of the target's basis is tight: that is the target's point under
    another basis.  It ends within :func:`default_max_steps` pivots; meeting
    a degenerate vertex, endpoints included, makes it "Perturbed+Completed".
    Raises :class:`WalkFailure` on numeric trouble.

    The instance's pivot memo keeps, within ``PIVOT_MEMO_BYTES``, one
    :class:`_Basis` per basis a pivot reached, its vertex built with it from
    that basis's own solve; the start's directions and outcomes go in a
    record around the start itself, as its slack is its verified point's.  A
    warm pivot does its seed's work, the edge choice and slope checks, plus
    one lookup: its outcome holds the next basis, whose record holds the
    vertex.  Each stored value is made by the call a memo-less
    walk makes, and no basis repeats within a walk (the slopes strictly
    decrease), so every output is byte-identical and a walk on a fresh
    instance makes exactly a memo-less walk's calls.
    """
    limit = default_max_steps(inst)
    met_degenerate = start.degenerate or target.degenerate
    target_rows = list(target.basis)

    record = _start_record(inst, start)
    current = record.vertex
    vertices = [current]
    slopes: list[float] = []
    trace: list[tuple[int, int, float]] = []
    prev_slope = math.inf

    for _ in range(limit):
        if current.basis == target.basis or (target.degenerate and current.degenerate and
                                             record.slack[target_rows].max() <= TIGHT_TOL):
            return ShadowPath(vertices=tuple(vertices), slopes=tuple(slopes),
                              pivot_trace=tuple(trace),
                              status="Perturbed+Completed" if met_degenerate else "Completed",
                              seed=pair.seed, objective=pair)

        if record.directions is None:
            try:
                record.directions = edge_directions(inst, current)
            except Singular as exc:
                raise InfeasibleStep(f"basis {current.basis} became singular") from exc
        k, edge_slope = _steepest_edge(record.directions, pair.w1, pair.w2, current.basis)
        leaving = current.basis[k]
        if edge_slope > prev_slope - SLOPE_TOL:
            raise NonMonotoneSlopes(
                f"slope {edge_slope!r} does not decrease below {prev_slope!r}")

        if record.outcomes is None or (known := record.outcomes[k]) is None:
            d = record.directions[k]
            try:
                entering, step = ratio_step(inst, record.slack, d)
            except Unbounded as exc:
                raise UnboundedShadow(str(exc)) from exc
            after = _basic_point(inst, _next_basis(current.basis, k, entering))
            # _basic_point refused any slack below -TIGHT_TOL: no abs is needed.
            if after.vertex.degenerate and (lex := _lex_entering(
                    inst, current.basis, record.directions, d,
                    (after.slack <= TIGHT_TOL).nonzero()[0])) != entering:
                entering = lex
                after = _basic_point(inst, _next_basis(current.basis, k, entering))
            record.store(k, (entering, step, after.vertex.basis))
        else:
            entering, step, new_basis = known
            after = _basic_point(inst, new_basis)
        moved = not current.degenerate or record.slack[entering] > TIGHT_TOL
        record, current = after, after.vertex
        met_degenerate = met_degenerate or current.degenerate
        if moved:
            vertices.append(current)
            slopes.append(edge_slope)
            trace.append((leaving, entering, step))
        prev_slope = edge_slope

    raise StepLimit(f"no termination within {limit} steps")


def _steepest_edge(directions: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                   basis: tuple[int, ...]) -> tuple[int, float]:
    """Index and slope of the improving edge with the largest slope.

    One pass over the Python floats of the products ``ndarray.dot`` takes
    (``@``'s values, for less call overhead): a rise d.w2 above ``SLOPE_TOL``
    makes a candidate; the first with a run d.w1 at most ``SLOPE_TOL`` raises
    :class:`LeftwardEdge` (a zero run printed unsigned, as ``@`` gives it);
    the strict > keeps the first maximum of rise / run, so a tie goes to the
    earliest basis row; and no candidate raises :class:`StalledWalk`.
    """
    k, best = -1, -math.inf
    for i, (rise, run) in enumerate(zip(directions.dot(w2).tolist(),
                                        directions.dot(w1).tolist())):
        if rise > SLOPE_TOL:
            if run <= SLOPE_TOL:
                raise LeftwardEdge(f"edge relaxing row {basis[i]} gains eta "
                                   f"but w1.d = {run + 0.0:.3e}")
            if (slope := rise / run) > best:
                k, best = i, slope
    if k < 0:
        raise StalledWalk("no improving edge although the target was not reached")
    return k, best


def _next_basis(basis: tuple[int, ...], k: int, entering: int) -> tuple[int, ...]:
    """The sorted basis with its row k swapped for ``entering``."""
    rest = basis[:k] + basis[k + 1:]
    return rest[:(i := bisect(rest, entering))] + (entering,) + rest[i:]


class _Basis:
    """What walks know of one basis: its vertex (its rows a memo record's own
    key, its point and degenerate flag from its own solve), its slack, and,
    each None until computed, its edge directions and the outcome tuple
    :meth:`store` builds, per edge None or the entering row, step and next
    basis (that record's rows) of the pivot along it, fixed by (A, b, basis,
    k) and the slack it left."""

    __slots__ = ("vertex", "slack", "directions", "outcomes")

    def __init__(self, vertex: VertexWithBasis, slack: np.ndarray):
        self.vertex, self.slack = vertex, slack
        self.directions = self.outcomes = None

    def store(self, k: int, outcome: tuple[int, float, tuple[int, ...]]) -> None:
        """Store the (entering, step, next basis) along edge k."""
        table = self.outcomes or (None,) * len(self.vertex.basis)
        self.outcomes = table[:k] + (outcome,) + table[k + 1:]


def _record_bytes(m: int, n: int) -> int:
    """Bytes one pivot-memo record is charged: 2 n^2 + 4 n + m float64s, its
    arrays (its point a column of its solve's (n, n + 1) block, as a copy would
    change the bits of its dot products) and three per edge for its outcomes.
    Left out: object overheads, its rows (its memo key, which the next bases
    stored in outcomes share while it is kept) and its vertex, whose point is
    its own.  So the bound charges float64 payloads only: by ``tracemalloc``,
    a memo holds 2.1x its charge after one corpus cycle (n <= 6) and 1.1x
    on walk-large (n = 16-24)."""
    return 8 * (n * (2 * n + 4) + m)


def _start_record(inst: Instance, start: VertexWithBasis) -> _Basis:
    """The record of a walk's start, around the start itself, which keeps
    its own directions: the endpoint memo's when the start is that pair's
    verified x1, whose point and so slack are fixed, and a new one for this
    walk alone otherwise."""
    memo = inst._endpoint_memo
    if memo is not None and memo.v1 is start:
        return memo.start
    return _Basis(start, linalg._frozen(inst.slack(start.x)))


def _basic_point(inst: Instance, basis: tuple[int, ...]) -> _Basis:
    """The memo record of a pivot's new basis, now the memo's most recent,
    or a new one with its vertex, degenerate when over n rows of its slack
    (none below -``TIGHT_TOL``) are at most ``TIGHT_TOL``, and slack, stored,
    evicting the least recent record past ``PIVOT_MEMO_BYTES``.  The point
    stays column n of the (n, n + 1) block ``solve`` took it from, ``x.base``,
    frozen whole, so its dot products keep their bits.

    Raises :class:`InfeasibleStep`, storing nothing, when the basis is
    singular or its point leaves the polytope.
    """
    memo = inst._pivot_memo
    if (record := memo.get(basis)) is not None:
        memo.move_to_end(basis)
        return record
    try:
        rows = np.array(basis, dtype=np.intp)
        x = linalg.solve(inst.A.take(rows, axis=0), inst.b.take(rows))
    except Singular as exc:
        raise InfeasibleStep(f"pivot to basis {basis} is singular") from exc
    # solve refused any point that is not finite.
    slack = inst._slack(x)
    worst = int(slack.argmin())
    if slack[worst] < -TIGHT_TOL:
        raise InfeasibleStep(f"pivot landed outside the polytope at row {worst}")
    degenerate = np.count_nonzero(slack <= TIGHT_TOL) > inst.n
    memo[basis] = record = _Basis(
        VertexWithBasis(linalg._frozen(x.base)[:, inst.n], basis, degenerate),
        linalg._frozen(slack))
    if len(memo) * _record_bytes(*inst.A.shape) > PIVOT_MEMO_BYTES:
        memo.popitem(last=False)
    return record


def _lex_entering(inst: Instance, basis: tuple[int, ...], directions: np.ndarray,
                  d: np.ndarray, tight: np.ndarray) -> int:
    """Entering row of a pivot along d that lands on a degenerate vertex.

    The ratio test ties between the movers (a_j.d > ``DIR_TOL``) among the
    rows ``tight`` at the new point.  On b + (eps, ..., eps**m) the slack of
    row j at the current basis B gains e_j - a_j B^-1 E_B in eps, and
    -a_j B^-1 e_k is a_j.d_k for the edge direction d_k relaxing basis row
    k, so these coefficients come from ``directions``.  The ray meets first
    the row whose coefficients divided by a_j.d are lexicographically
    smallest in row order; entries within ``DIR_TOL`` of each other are
    equal.
    """
    rates = inst.A[tight] @ d
    movers = rates > DIR_TOL
    ties, rates = tight[movers], rates[movers]
    if ties.size == 1:
        return int(ties[0])
    coef = np.zeros((ties.size, inst.m))
    coef[:, list(basis)] = (inst.A[ties] @ directions.T) / rates[:, None]
    coef[np.arange(ties.size), ties] = 1.0 / rates
    alive = np.arange(ties.size)
    for col in sorted(set(basis).union(ties.tolist())):
        column = coef[alive, col]
        alive = alive[column <= column.min() + DIR_TOL]
        if alive.size == 1:
            break
    return int(ties[alive[0]])


class _Endpoints(NamedTuple):
    """A verified endpoint pair under its key, the points' bytes: both
    vertices, their unit basis rows as the columns :func:`sample_objectives`
    mixes, and the start's record."""

    key: tuple[bytes, bytes]
    v1: VertexWithBasis
    v2: VertexWithBasis
    columns: tuple[np.ndarray, np.ndarray]
    start: _Basis


def verify_endpoints(inst: Instance, x1, x2) -> _Endpoints:
    """Both endpoints verified by :func:`verify_vertex`, unless they are the
    instance's last pair; a failed pair is never kept."""
    memo = inst._endpoint_memo
    # A 1-d float64 array is its own as_vector, and bytes equal to a key's are finite.
    if memo is not None and type(x1) is type(x2) is np.ndarray and x1.ndim == x2.ndim == 1 \
            and x1.dtype == x2.dtype == float and (x1.tobytes(), x2.tobytes()) == memo.key:
        return memo
    key = (linalg.as_vector(x1).tobytes(), linalg.as_vector(x2).tobytes())
    if memo is None or memo.key != key:
        v1, v2 = verify_vertex(inst, x1), verify_vertex(inst, x2)
        memo = _Endpoints(key, v1, v2, _unit_columns(inst, v1, v2), _start_record(inst, v1))
        # Instance is frozen; its memos are private, mutable slots.
        object.__setattr__(inst, "_endpoint_memo", memo)
    return memo


def find_path(inst: Instance, x1, x2, seed: int) -> ShadowPath:
    """Short edge path between two vertices, with retries.

    Walks between the bases :func:`verify_endpoints` picks, with objectives
    drawn from ``seed``; equal bases are one vertex, and a zero-length path.
    Numeric walk failures redraw with seed+1, up to ``MAX_ATTEMPTS`` draws,
    then raise :class:`RetriesExhausted` with their reasons.  A warm call,
    on the last pair again, pays only for its seed.
    """
    ends = verify_endpoints(inst, x1, x2)
    v1, v2 = ends.v1, ends.v2
    if v1.basis == v2.basis:
        return ShadowPath(vertices=(v1,), slopes=(), pivot_trace=(), status="Completed",
                          seed=int(seed))

    reasons: list[str] = []
    for attempt in range(MAX_ATTEMPTS):
        try:
            path = walk(inst, v1, v2, sample_objectives(inst, v1, v2, seed + attempt))
            return replace(path, seed=int(seed), retries=attempt) if attempt else path
        except WalkFailure as exc:
            reasons.append(type(exc).__name__)

    failed = ShadowPath(vertices=(v1,), slopes=(), pivot_trace=(),
                        status=f"Failed({';'.join(reasons)})", seed=int(seed),
                        retries=MAX_ATTEMPTS)
    raise RetriesExhausted(
        f"no walk succeeded in {MAX_ATTEMPTS} attempts: {', '.join(reasons)}",
        reasons, path=failed)
