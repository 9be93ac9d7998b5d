"""H-representation polytopes and their vertex/edge machinery.

A polytope is stored as ``{x : A x <= b}`` with every row of ``A`` scaled to
unit norm at construction (``b`` rescaled alongside), which the walk and the
flatness computations both assume.  When the ingested matrix is integer, the
original integer rows are retained for exact sub-determinant work.

Row indices are 0-based everywhere.  Two tolerances govern the geometry,
each a module constant read at call time, with no per-call override:

* ``TIGHT_TOL``  -- |a_i.x - b_i| at or below this counts the row as tight,
  and two points are the same vertex exactly when the same rows are tight,
* ``DIR_TOL``    -- a_j.d must exceed this for row j to stop a ray, and an
  epsilon-coefficient of the lexicographic rule within it of 0 counts as 0.

Every instance is walked as given: a degenerate vertex is never perturbed
numerically.  :func:`verify_vertex` gives it its first lexicographically
feasible basis on the symbolic right-hand side b + (eps, eps**2, ...,
eps**m), and :mod:`polywalk.shadow` breaks ratio-test ties by the same rule.
A point is checked once, where it enters: :meth:`Instance.slack` and
:func:`verify_vertex` check theirs, and a point already checked or solved
takes its slack by ``Instance._slack``.

Enumerations run on stacked arrays, each chunk solved as one stack by the
one chunk loop, which :func:`solved_subsets` feeds every row subset.  The
vertices come from a breadth-first search over the feasible bases by
pivots, started from the stream's first chunk that holds one, its levels
solved by that loop, so it solves about as many bases as the polytope has;
:func:`vertex_graph` reads the edges off those bases, joining two vertices
whose bases share n - 1 rows; :func:`graph_distances` is the one
breadth-first search over vertices, from many sources at once, a bit each.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (
    CapExceeded,
    Disconnected,
    Infeasible,
    NonIntegerEntry,
    NotAVertex,
    Singular,
    Unbounded,
)

if TYPE_CHECKING:
    from .flatness import FlatnessReport
    from .shadow import _Basis, _Endpoints

TIGHT_TOL = 1e-9
DIR_TOL = 1e-12

ENUM_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class Instance:
    """An H-polytope with canonical unit rows.

    ``A``/``b`` are the canonical (row-normalized) system used by all
    geometry.  ``raw_A``/``raw_b`` keep the data exactly as ingested for
    lossless serialization, and ``int_A`` keeps the exact integer rows of an
    integral instance; ``integral`` is true exactly when it is set.

    Three private memos refer to no instance and start empty, in a copy by
    ``dataclasses.replace`` too.  Two are kept by :mod:`polywalk.shadow`:
    ``_endpoint_memo`` is the record of the last endpoint pair
    ``verify_endpoints`` verified, and ``_pivot_memo`` maps each basis
    ``walk`` reached to its record.  ``_delta_memo`` is the report of
    :func:`~polywalk.flatness.delta_A`, which depends on A alone, so that
    ``certify_delta_Delta`` after ``delta_A`` reuses delta.
    """

    name: str
    A: np.ndarray
    b: np.ndarray
    raw_A: np.ndarray
    raw_b: np.ndarray
    int_A: tuple[tuple[int, ...], ...] | None = None
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None
    _endpoint_memo: _Endpoints | None = field(default=None, init=False, repr=False,
                                              compare=False)
    _pivot_memo: OrderedDict[tuple[int, ...], _Basis] = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False)
    _delta_memo: FlatnessReport | None = field(default=None, init=False, repr=False,
                                               compare=False)

    @property
    def integral(self) -> bool:
        return self.int_A is not None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def slack(self, x) -> np.ndarray:
        """b - A x for a point x (positive where strictly inside)."""
        return self._slack(linalg.as_vector(x))

    def _slack(self, point: np.ndarray) -> np.ndarray:
        """:meth:`slack` of a point already checked by ``as_vector``."""
        return self.b - self.A @ point


@dataclass(frozen=True)
class VertexWithBasis:
    """A vertex together with one choice of n tight, independent rows."""

    x: np.ndarray
    basis: tuple[int, ...]
    degenerate: bool = False


def build_instance(A, b, *, name: str = "", integral: bool | None = None,
                   x1=None, x2=None) -> Instance:
    """Validate and canonicalize an H-polytope.

    ``integral`` defaults to auto-detection: a matrix whose entries are all
    integer-valued is ingested as exact integers, which must have magnitude
    below 2**53; ``integral=True`` on any other entry raises
    :class:`NonIntegerEntry`.  Requires m >= n and a nonzero norm on every
    row.  The instance keeps frozen copies (``linalg._frozen``), so the
    caller's arrays stay writable and a later write into them changes nothing.
    """
    raw_A = linalg.as_matrix(A)
    raw_b = linalg.as_vector(b)
    m, n = raw_A.shape
    if raw_b.size != m:
        raise ValueError(f"b has length {raw_b.size}, expected {m}")
    if m < n:
        raise ValueError(f"need at least n={n} rows, got m={m}")
    with np.errstate(over="ignore"):
        norms = linalg.row_norms(raw_A, (raw_A * raw_A).sum(axis=1))
    if (norms <= 0.0).any():
        raise ValueError(f"row {int(np.argmin(norms))} of A has zero norm")

    # The exact certificate must run on the caller's data: no entry is
    # rounded here, and float64 holds every integer below 2**53 exactly while
    # a larger entry may already have been rounded on the way in.
    if integral is None:
        integral = bool((raw_A == raw_A.round()).all())
    elif integral and not (raw_A == raw_A.round()).all():
        raise NonIntegerEntry("an integral instance needs integer-valued entries in A")
    int_A = None
    if integral:
        if (np.abs(raw_A) >= 2**53).any():
            raise ValueError("integral entries of A must have magnitude below 2**53")
        exact = raw_A.astype(np.int64)
        int_A = tuple(map(tuple, exact.tolist()))
        raw_A = exact.astype(float)

    canon_A, canon_b, raw_A, raw_b = map(linalg._frozen, (raw_A / norms[:, None],
                                                          raw_b / norms, raw_A, raw_b))

    def _point(p):
        if p is None:
            return None
        v = linalg.as_vector(p)
        if v.size != n:
            raise ValueError(f"endpoint has length {v.size}, expected {n}")
        return linalg._frozen(v)

    return Instance(name=name, A=canon_A, b=canon_b, raw_A=raw_A, raw_b=raw_b,
                    int_A=int_A, x1=_point(x1), x2=_point(x2))


def tight_rows(inst: Instance, x) -> tuple[int, ...]:
    """Indices of rows tight at x, ascending.

    Raises :class:`Infeasible` naming the most violated row when x is outside
    the polytope by more than ``TIGHT_TOL``, and ``ValueError`` when x does
    not have n coordinates.
    """
    return tuple(_tight_mask(inst, linalg.as_vector(x)).nonzero()[0].tolist())


def _tight_mask(inst: Instance, point: np.ndarray) -> np.ndarray:
    """:func:`tight_rows` as a mask, for a point already checked by ``as_vector``."""
    if point.size != inst.n:
        raise ValueError(f"point has length {point.size}, expected {inst.n}")
    slack = inst._slack(point)
    worst = int(slack.argmin())
    if slack[worst] < -TIGHT_TOL:
        raise Infeasible(
            f"row {worst} violated: a[{worst}]@x exceeds b[{worst}] by {-slack[worst]:.3e}"
        )
    return slack <= TIGHT_TOL


def verify_vertex(inst: Instance, x) -> VertexWithBasis:
    """Check that x is a vertex and pick the basis a walk uses there.

    At a simple vertex that is its n tight rows, checked independent one by
    one.  At a degenerate one it is the first n-subset of the t tight rows,
    in combinations order and under ``ENUM_CAP`` on C(t, n), that is
    nonsingular and lexicographically feasible: for every tight row j, the
    eps-coefficients of j's slack on b + (eps, ..., eps**m), e_j - a_j B^-1
    on the basis rows, lead with a positive entry in row order (entries
    within ``DIR_TOL`` of 0 count as 0), and whose own solution is x: feasible
    at ``TIGHT_TOL``, with exactly x's tight rows, as the vertex enumeration
    groups bases.  The search runs on :func:`solved_subsets`' chunks with b,
    up to the first that holds a hit, and raises :class:`NotAVertex` when no
    subset is one, so a walk never ends at another vertex's basis.
    """
    point = linalg.as_vector(x)
    want = _tight_mask(inst, point)
    rows = want.nonzero()[0]
    tight = rows.tolist()
    if len(tight) < inst.n:
        raise NotAVertex(f"only {len(tight)} tight rows, need {inst.n}")
    if len(tight) == inst.n:
        basis: list[int] = []
        for i in tight:
            candidate = basis + [i]
            if linalg.rank(inst.A.take(candidate, axis=0)) == len(candidate):
                basis.append(i)
        if len(basis) < inst.n:
            raise NotAVertex(f"tight rows have rank {len(basis)} < {inst.n}")
    else:
        tight_A = inst.A.take(rows, axis=0)
        for subsets, out in solved_subsets(inst.A, tight, inst.n, inst.b):
            coef = -(tight_A @ out[:, :, :inst.n])
            # Only basis rows before j come before j's own coefficient, which is 1.
            lead = (np.abs(coef) > DIR_TOL) & (subsets[:, None, :] < rows[:, None])
            first = coef[np.arange(len(coef))[:, None], np.arange(rows.size), lead.argmax(axis=2)]
            hits = (~lead.any(axis=2) | (first > 0)).all(axis=1).nonzero()[0]
            # A hit's own point must be x: feasible (so no abs), with x's tight rows.
            slack = inst.b - out[hits, :, inst.n] @ inst.A.T
            same = ((slack <= TIGHT_TOL) == want).all(axis=1)
            hits = hits[same & (slack.min(axis=1) >= -TIGHT_TOL)]
            if hits.size:
                basis = subsets[hits[0]].tolist()
                break
        else:
            raise NotAVertex(f"no n-subset of the {rows.size} tight rows is a "
                             "nonsingular, lexicographically feasible basis whose "
                             "solution has exactly those tight rows")
    return VertexWithBasis(x=linalg._frozen(point), basis=tuple(basis),
                           degenerate=len(tight) > inst.n)


def edge_directions(inst: Instance, v: VertexWithBasis) -> np.ndarray:
    """Edge directions leaving vertex v, as one frozen (n, n) array.

    Row k is minus column k of the basis inverse: the d with A_basis d = -e_k,
    along which only basis row ``v.basis[k]`` goes slack.
    """
    return linalg._frozen(-linalg.inverse(inst.A.take(v.basis, axis=0)).T)


def ratio_step(inst: Instance, slack: np.ndarray, d) -> tuple[int, float]:
    """Largest feasible step along d: (entering_row, step).

    ``slack`` is :meth:`Instance.slack` at the point the ray leaves, which
    the caller already holds; it is used as given, not re-validated.  Only
    rows with a_j.d > ``DIR_TOL`` can stop the ray; ties go to the smallest
    row index.  Raises :class:`Unbounded` when no row does.
    """
    denom = inst.A @ linalg.as_vector(d)
    movers = (denom > DIR_TOL).nonzero()[0]
    if movers.size == 0:
        raise Unbounded("the polytope is unbounded along this direction")
    steps = slack[movers] / denom[movers]
    best = int(steps.argmin())
    return int(movers[best]), float(max(steps[best], 0.0))


def feasible_bases(inst: Instance) -> Iterator[VertexWithBasis]:
    """Yield every feasible basic solution, one per independent row subset.

    Degenerate vertices appear once per feasible basis; consumers that want
    geometric vertices group them by tight rows.  Guarded by ``ENUM_CAP`` on
    the number of subsets C(m, n).  This is the one-subset-at-a-time reference
    (one :func:`linalg.solve` per subset); the vertex search below finds the
    same bases by pivoting, on stacked solves.
    """
    _check_cap(inst.m, inst.n)
    for subset in combinations(range(inst.m), inst.n):
        rows = list(subset)
        try:
            x = linalg.solve(inst.A[rows], inst.b[rows])
        except Singular:
            continue
        slack = inst._slack(x)
        if float(np.min(slack)) < -TIGHT_TOL:
            continue
        degenerate = int(np.count_nonzero(np.abs(slack) <= TIGHT_TOL)) > inst.n
        yield VertexWithBasis(x=x, basis=subset, degenerate=degenerate)


def solved_subsets(A: np.ndarray, rows: Sequence[int], n: int,
                   b: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The nonsingular n-subsets of ``rows`` of A, solved a chunk at a time:
    :func:`_solved_chunks` over ``combinations(rows, n)``, under ``ENUM_CAP``
    on C(len(rows), n), checked before the first solve."""
    _check_cap(len(rows), n)
    return _solved_chunks(A, b, combinations(rows, n), n)


def _solved_chunks(A: np.ndarray, b: np.ndarray | None, subsets: Iterator[Sequence[int]],
                   n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one chunk loop, whose size :func:`_vertex_classes` relies on: one
    :func:`linalg.solve_stack` per ``linalg.SUBSET_CHUNK`` n-subsets, read by
    ``np.fromiter`` as a ``(k, n)`` array, and each chunk's nonsingular ones,
    if any, yielded in order with ``[B^-1 | B^-1 b_B]``, or ``B^-1`` when b is None."""
    while len(rows := np.fromiter(chain.from_iterable(islice(subsets, linalg.SUBSET_CHUNK)),
                                  dtype=np.intp).reshape(-1, n)):
        rhs = np.empty((len(rows), n, 0)) if b is None else b.take(rows)[:, :, None]
        ok, out = linalg.solve_stack(A.take(rows, axis=0), rhs)
        if ok.any():
            yield rows[ok], out


def _check_cap(rows: int, n: int) -> None:
    total = math.comb(rows, n)
    if total > ENUM_CAP:
        raise CapExceeded(f"C({rows},{n}) = {total} subsets exceeds cap {ENUM_CAP}")


def _vertex_classes(inst: Instance):
    """Every feasible basis, grouped by its tight rows in combinations order.

    A breadth-first search over the feasible bases by pivots (Avis & Fukuda
    1992).  The first chunk of :func:`solved_subsets` that holds a feasible
    basis gives the first level; when all C(m, n) subsets fit in one chunk,
    that chunk solved them all and no pivot runs.  From each basis of a
    level, each basis row k leaves along its edge direction d_k, and every
    row j outside the basis enters whose exchange :func:`_pivots` finds
    could be kept: the rows at the minimum ratio, ties included, those
    within the ``TIGHT_TOL`` band of it, and at a degenerate vertex every
    tight row whatever the sign of a_j.d_k.  The bases not met before are
    solved by :func:`_solved_chunks` against [I | b_B], and kept under
    :func:`feasible_bases`' tests, as the next level.  A stacked member has
    its single solve's bits, so the bases found, sorted in combinations
    order and grouped by their tight rows, give what solving all C(m, n)
    subsets gives whenever the search meets every basis that pass keeps.
    In exact arithmetic it does: a simplex path joins any feasible basis to
    a basis of any vertex, one exchange at a time, and the bases of one
    vertex are joined as a matroid's bases are.  Inside the ``TIGHT_TOL``
    band the tests check it on sampled cut and tilted cubes.

    Returns the vertices (each kept with its first basis), then every
    feasible basis with the index of the vertex it stands for.
    """
    n = inst.n
    for subsets, out in solved_subsets(inst.A, range(inst.m), n, inst.b):
        level = _feasible(inst, subsets, out)
        if len(level[0]):
            break
    else:
        return [], [], []
    bases, solved, slack = level
    # _solved_chunks takes SUBSET_CHUNK subsets per chunk, so a first chunk
    # holds all of them exactly when C(m, n) is at most that.
    if math.comb(inst.m, n) > linalg.SUBSET_CHUNK:
        found, frontier = [level], [level]
        seen = set(map(tuple, bases.tolist()))
        while fresh := _pivots(inst, frontier, seen):
            frontier = [_feasible(inst, *chunk)
                        for chunk in _solved_chunks(inst.A, inst.b, iter(fresh), n)]
            found += frontier
        bases, solved, slack = map(np.concatenate, zip(*found))
        order = np.lexsort(bases.T[::-1])
        bases, solved, slack = bases[order], solved[order], slack[order]
    degenerate = (np.abs(slack) <= TIGHT_TOL).sum(axis=1) > n
    index: dict[bytes, int] = {}
    verts, owner = [], []
    for subset, x, flag, key in zip(bases.tolist(), solved[:, :, n].copy(),
                                    degenerate.tolist(), _tight_keys(slack)):
        idx = index.setdefault(key, len(verts))
        if idx == len(verts):
            verts.append(VertexWithBasis(x=x, basis=tuple(subset), degenerate=flag))
        owner.append(idx)
    return verts, bases.tolist(), owner


def _feasible(inst: Instance, subsets: np.ndarray, out: np.ndarray):
    """The solved subsets whose point has min slack at least ``-TIGHT_TOL``:
    their rows, their ``[B^-1 | x]`` and their slacks."""
    slack = inst.b - out[:, :, inst.n] @ inst.A.T
    keep = slack.min(axis=1) >= -TIGHT_TOL
    return subsets[keep], out[keep], slack[keep]


def _pivots(inst: Instance, frontier, seen: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The sorted bases one exchange leads to from a level's bases that
    :func:`_feasible` could keep and that are not in ``seen``; each is added
    to it.

    Basis row k leaves along d_k, and row j outside the basis enters at the
    step t_j = s_j / (a_j.d_k) where it turns tight, whatever the sign of
    a_j.d_k: at a degenerate vertex t_j = 0, so its bases reach each other as
    the bases of a matroid do.  B - k + j is kept only if every row's slack
    s_i - t_j a_i.d_k is at least ``-TIGHT_TOL``, and only if its inverse
    stays below ``1 / PIVOT_TOL``; that inverse has an entry of at least
    1 / (|a_j.d_k| sqrt(n)) on unit rows.  Both bounds are tested here with
    a factor of two to spare for rounding, so every basis the solve would
    keep enters, and :func:`_feasible` drops the few that only pass here.
    The tests run a part of the ``frontier`` at a time, one part per solved
    chunk, on its (bases, m, n) rates a_i.d.
    """
    n = inst.n
    fresh: list[tuple[int, ...]] = []
    for bases, solved, slack in frontier:
        rates = -(inst.A @ solved[:, :, :n])
        slack = slack[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = slack / rates
            reach = (slack + 2 * TIGHT_TOL) / rates
        # The steps at which every row keeps slack -2 TIGHT_TOL: row k's rate
        # is -1, so the interval is finite below and holds t = 0.
        top = np.where(rates > 0, reach, np.inf).min(axis=1, keepdims=True)
        bottom = np.where(rates < 0, reach, -np.inf).max(axis=1, keepdims=True)
        enter = (2 * math.sqrt(n) * np.abs(rates) > linalg.PIVOT_TOL) \
            & (bottom <= steps) & (steps <= top)
        enter[np.arange(len(bases))[:, None], bases] = False
        f, j, k = enter.nonzero()
        moved = bases[f]
        moved[np.arange(f.size), k] = j
        moved.sort(axis=1)
        for basis in map(tuple, moved.tolist()):
            if basis not in seen:
                seen.add(basis)
                fresh.append(basis)
    return fresh


def _tight_keys(slack: np.ndarray) -> list[bytes]:
    """One key per row of a (k, m) slack array: its rows tight at
    ``TIGHT_TOL``, packed.  Equal keys mean the same vertex."""
    return [row.tobytes() for row in np.packbits(np.abs(slack) <= TIGHT_TOL, axis=1)]


def enumerate_vertices(inst: Instance) -> list[VertexWithBasis]:
    """All vertices, one per set of tight rows, from the pivoting search over
    feasible bases.

    Each returned vertex keeps the lexicographically first feasible basis
    that produced it.  Guarded by ``ENUM_CAP`` on C(m, n), although the
    search solves far fewer subsets.
    """
    return _vertex_classes(inst)[0]


def vertex_graph(inst: Instance) -> tuple[list[VertexWithBasis], list[set[int]]]:
    """Vertices plus adjacency over the polytope's edge graph.

    The feasible bases come from the pivoting search of
    :func:`enumerate_vertices`.  Two vertices are adjacent exactly when
    feasible bases of theirs share n - 1 rows, so every feasible basis is
    keyed once per row by its other n - 1 rows, and distinct vertices under
    one key are joined.  This is the graph of :func:`ratio_step`'s rule run
    from every feasible basis:

    * If bases of vertices u != v share rows R, those n - 1 rows are
      independent and tight at both points, and each is valid for P, so
      P cut by A_R x = b_R is a face of dimension at most 1 holding two
      vertices: an edge, whose only vertices are u and v.
    * Along an edge some n - 1 independent rows are tight.  At either end
      the tight rows span R^n, so one tight row outside their span completes
      them to a nonsingular basis whose point is that end; the enumeration
      lists both of these feasible bases.
    * A ray has one vertex on its line and gives no edge, as the ratio test
      skips it; two bases of one vertex share a key but give no self-edge.
      So n neighbours at every vertex still means the polytope is bounded.
    """
    verts, bases, owner = _vertex_classes(inst)
    ends: dict[tuple[int, ...], set[int]] = {}
    for subset, i in zip(bases, owner):
        for j in range(inst.n):
            ends.setdefault(tuple(subset[:j] + subset[j + 1:]), set()).add(i)
    adjacency: list[set[int]] = [set() for _ in verts]
    for group in ends.values():
        for i in group:
            adjacency[i] |= group - {i}
    return verts, adjacency


def graph_distances(adjacency: Sequence[set[int]], sources: Sequence[int]) -> np.ndarray:
    """Edge-graph distances from each of ``sources`` to every vertex: the levels
    of :func:`_bfs_levels` unpacked into a ``(len(sources), V)`` integer array,
    -1 where unreachable; ``IndexError`` for a source outside ``range(V)``."""
    dist = np.full((len(sources), len(adjacency)), -1, dtype=np.intp)
    for level, reached in enumerate(_bfs_levels(adjacency, sources)):
        bits = np.unpackbits(reached, axis=1, count=len(sources), bitorder="little")
        dist.T[bits == 1] = level
    return dist


def _bfs_levels(adjacency: Sequence[set[int]], sources: Sequence[int]) -> Iterator[np.ndarray]:
    """A breadth-first search from all of ``sources`` at once, source i as
    bit i % 64 of word i // 64 (Then et al., PVLDB 2014).

    Yields, from level 0 to the last nonempty one, the vertices each source
    first reaches at that level: a fresh ``(V, 8 * words)`` uint8 array of
    little-endian words, so bit i % 8 of byte i // 8 marks source i, as
    ``np.unpackbits(..., bitorder="little")`` reads it.  A level ORs the
    frontier rows of every neighbour, gathered at once through a
    ``(V + 1, max degree)`` table padded with index V, the frontier's zero
    row.  Raises ``IndexError`` for a source outside ``range(V)``.
    """
    count = len(adjacency)
    sources = np.asarray(sources, dtype=np.intp)
    if ((sources < 0) | (sources >= count)).any():
        raise IndexError(f"sources must lie in range({count})")
    degree = np.fromiter(map(len, [*adjacency, ()]), dtype=np.intp, count=count + 1)
    table = np.full((count + 1, degree.max()), count, dtype=np.intp)
    table[np.arange(table.shape[1]) < degree[:, None]] = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.intp, count=int(degree.sum()))
    bit = np.arange(sources.size, dtype=np.uint64)
    frontier = np.zeros((count + 1, -(-sources.size // 64)), dtype=np.uint64)
    np.bitwise_or.at(frontier, (sources, bit // 64), np.uint64(1) << bit % 64)
    seen = frontier.copy()
    while frontier.any():
        yield frontier[:count].astype("<u8").view(np.uint8)
        frontier = np.bitwise_or.reduce(frontier[table], axis=1) & ~seen
        seen |= frontier


def bfs_distance(inst: Instance, s, t) -> int:
    """Edge-graph distance between vertices s and t by breadth-first search.

    Enumerates the :func:`vertex_graph` on every call; a caller that holds
    the graph calls :func:`graph_distances` on it instead.  Each endpoint is
    the vertex with its tight rows.  Raises ``ValueError`` when an endpoint
    is not a finite vector of n coordinates, :class:`NotAVertex` when no
    vertex has its tight rows and :class:`Disconnected` when no route exists.
    """
    verts, adjacency = vertex_graph(inst)
    ends = [linalg.as_vector(p.x if isinstance(p, VertexWithBasis) else p) for p in (s, t)]
    for end in ends:
        if end.size != inst.n:
            raise ValueError(f"point has length {end.size}, expected {inst.n}")
    keys = _tight_keys(inst.b - np.array([v.x for v in verts] + ends) @ inst.A.T)
    index = dict(zip(keys[:-2], range(len(verts))))
    si, ti = index.get(keys[-2]), index.get(keys[-1])
    if si is None or ti is None:
        raise NotAVertex("endpoint does not match any enumerated vertex")
    dist = int(graph_distances(adjacency, [si])[0, ti])
    if dist < 0:
        raise Disconnected("no path between the requested vertices")
    return dist
