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

Degenerate vertices (more than n tight rows) break the pivot bookkeeping, so
:func:`find_path` reroutes such cases through a tiny random enlargement of b,
walks the perturbed polytope, and collapses the result back.  Numeric
failures are handled by redrawing the objectives with the next seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import jsontext, linalg
from .errors import (
    DegenerateVertex,
    InfeasibleStep,
    LeftwardEdge,
    MappingFailed,
    NonMonotoneSlopes,
    PerturbationFailed,
    RetriesExhausted,
    Singular,
    StalledWalk,
    StepLimit,
    TooShort,
    Unbounded,
    UnboundedShadow,
    VerticalEdge,
    WalkFailure,
)
from .polytope import (
    POINT_TOL,
    TIGHT_TOL,
    Instance,
    PerturbationRecord,
    VertexWithBasis,
    collapse_steps,
    edge_directions,
    feasible_subsets,
    perturb,
    ratio_step,
    tight_rows,
    verify_vertex,
)

SLOPE_TOL = 1e-12
# Required strict decrease between consecutive recorded slopes.
SLOPE_GAP_TOL = 1e-12

MAX_ATTEMPTS = 16

PERTURB_SCALE = 1e-5
MAGNITUDE_FLOOR = 1e-7
# Representative distances this close (relative) to the best are ties.
DIST_TIE_RTOL = 1e-9


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
class SlopeGapDiagnostic:
    """Smallest gap between consecutive slopes and where it occurs."""

    min_gap: float
    attained_at: tuple[int, int]


@dataclass(frozen=True)
class ShadowPath:
    """An edge path plus everything needed to audit it.

    ``slopes`` has one entry per traversed edge, ``projections`` one (xi,
    eta) pair per vertex (empty for a zero-length path, which samples no
    objectives), ``pivot_trace`` one (leaving_row, entering_row, step) triple
    per edge.  ``status`` is "Completed", "Perturbed+Completed" or
    "Failed(...)".
    """

    vertices: tuple[VertexWithBasis, ...]
    slopes: tuple[float, ...]
    projections: tuple[tuple[float, float], ...]
    pivot_trace: tuple[tuple[int, int, float], ...]
    status: str
    seed: int
    retries: int = 0
    perturbation: PerturbationRecord | None = None
    objective: ObjectivePair | None = None

    @property
    def length(self) -> int:
        return max(len(self.vertices) - 1, 0)

    def to_json(self) -> str:
        record = {
            "status": self.status,
            "seed": int(self.seed),
            "retries": int(self.retries),
            "vertices": [[float(c) for c in v.x] for v in self.vertices],
            "bases": [[int(i) for i in v.basis] for v in self.vertices],
            "slopes": [float(s) for s in self.slopes],
            "projections": [[float(a), float(b)] for a, b in self.projections],
            "perturbation": None if self.perturbation is None else {
                "original_b": [float(v) for v in self.perturbation.original_b],
                "perturbed_b": [float(v) for v in self.perturbation.perturbed_b],
                "magnitude": float(self.perturbation.magnitude),
                "seed": int(self.perturbation.seed),
            },
        }
        return jsontext.dumps(record)


def sample_objectives(inst: Instance, v1: VertexWithBasis, v2: VertexWithBasis,
                      seed: int) -> ObjectivePair:
    """Draw the two endpoint objectives from the seeded generator.

    Weights are 1 - U with U uniform on [0, 1), so they land in (0, 1]; lam
    is drawn before mu.  Requires both endpoints non-degenerate (perturb
    first otherwise).
    """
    if v1.degenerate or v2.degenerate:
        raise DegenerateVertex("sample_objectives needs non-degenerate endpoints")
    rng = np.random.default_rng(seed)
    lam = 1.0 - rng.random(inst.n)
    mu = 1.0 - rng.random(inst.n)
    rows = inst.A[list(v1.basis) + list(v2.basis)]
    # Each norm is the row's own dot product, so the bits match linalg.normalize.
    units = rows / np.sqrt([r @ r for r in rows])[:, None]
    w1 = -(np.ascontiguousarray(units[:inst.n].T) @ lam)
    w2 = np.ascontiguousarray(units[inst.n:].T) @ mu
    return ObjectivePair(lam=lam, mu=mu, w1=w1, w2=w2,
                         u_rows=v1.basis, v_rows=v2.basis, seed=int(seed))


def project(pair: ObjectivePair, x) -> tuple[float, float]:
    """Image of a point in the (w1.x, w2.x) shadow plane."""
    point = linalg.as_vector(x)
    return float(pair.w1 @ point), float(pair.w2 @ point)


def slope(pair: ObjectivePair, src, dst) -> float:
    """Slope of the projected segment from src to dst.

    Raises :class:`VerticalEdge` when the segment has no extent along the
    first projection axis.
    """
    move = linalg.as_vector(dst) - linalg.as_vector(src)
    run = float(pair.w1 @ move)
    if abs(run) <= SLOPE_TOL:
        raise VerticalEdge(f"projected run {run:.3e} is below {SLOPE_TOL:.1e}")
    return float(pair.w2 @ move) / run


def default_max_steps(inst: Instance) -> int:
    """Step budget: ten times the basis count, capped at one million."""
    return 10 * min(math.comb(inst.m, inst.n), 10**5)


def walk(inst: Instance, start: VertexWithBasis, target: VertexWithBasis,
         pair: ObjectivePair) -> ShadowPath:
    """Follow the shadow boundary from start to target.

    At each vertex the candidate edges are those gaining on the second
    projection axis; the walk takes the candidate with the largest slope
    (ties to the smallest leaving row).  Termination is by basis-set match
    with the target, with a point-proximity fallback; the walk gives up
    after :func:`default_max_steps` pivots.  Raises a
    :class:`WalkFailure` subtype on numeric trouble and
    :class:`DegenerateVertex` when it runs into a vertex with extra tight
    rows.
    """
    if start.degenerate or target.degenerate:
        raise DegenerateVertex("walk needs non-degenerate endpoints")
    limit = default_max_steps(inst)
    target_basis = set(target.basis)

    current = start
    vertices = [start]
    slopes: list[float] = []
    projections = [project(pair, start.x)]
    trace: list[tuple[int, int, float]] = []
    prev_slope = math.inf

    for _ in range(limit):
        if set(current.basis) == target_basis or \
                np.abs(current.x - target.x).max() <= POINT_TOL:
            return ShadowPath(vertices=tuple(vertices), slopes=tuple(slopes),
                              projections=tuple(projections), pivot_trace=tuple(trace),
                              status="Completed", seed=pair.seed, objective=pair)

        try:
            directions = edge_directions(inst, current)
        except Singular as exc:
            raise InfeasibleStep(f"basis {current.basis} became singular") from exc
        rises = directions @ pair.w2
        runs = directions @ pair.w1
        candidates = np.flatnonzero(rises > SLOPE_TOL)
        if candidates.size == 0:
            raise StalledWalk("no improving edge although the target was not reached")
        leftward = candidates[runs[candidates] <= SLOPE_TOL]
        if leftward.size:
            raise LeftwardEdge(f"edge relaxing row {current.basis[leftward[0]]} gains eta "
                               f"but w1.d = {runs[leftward[0]]:.3e}")
        edge_slopes = rises[candidates] / runs[candidates]
        # argmax keeps the first maximum: ties go to the earliest basis row.
        best = int(edge_slopes.argmax())
        leaving = current.basis[candidates[best]]
        edge_slope = float(edge_slopes[best])
        if edge_slope > prev_slope - SLOPE_GAP_TOL:
            raise NonMonotoneSlopes(
                f"slope {edge_slope!r} does not decrease below {prev_slope!r}")

        try:
            entering, step = ratio_step(inst, current, directions[candidates[best]])
        except Unbounded as exc:
            raise UnboundedShadow(str(exc)) from exc

        new_basis = tuple(sorted(set(current.basis) - {leaving} | {entering}))
        try:
            x_new = linalg.solve(inst.A[list(new_basis)], inst.b[list(new_basis)])
        except Singular as exc:
            raise InfeasibleStep(f"pivot to basis {new_basis} is singular") from exc
        slack = inst.slack(x_new)
        worst = int(slack.argmin())
        if slack[worst] < -TIGHT_TOL:
            raise InfeasibleStep(f"pivot landed outside the polytope at row {worst}")
        if np.count_nonzero(np.abs(slack) <= TIGHT_TOL) > inst.n:
            raise DegenerateVertex(
                f"walk reached a degenerate vertex (basis {new_basis})")

        current = VertexWithBasis(x=x_new, basis=new_basis)
        vertices.append(current)
        slopes.append(edge_slope)
        projections.append(project(pair, x_new))
        trace.append((leaving, entering, step))
        prev_slope = edge_slope

    raise StepLimit(f"no termination within {limit} steps")


def slope_gap(path: ShadowPath) -> SlopeGapDiagnostic:
    """Smallest decrease between consecutive slopes of a path.

    Needs at least two edges; the location is the index pair of the two
    consecutive edges attaining the minimum.
    """
    if len(path.slopes) < 2:
        raise TooShort("slope gap needs at least two edges")
    gaps = [path.slopes[i] - path.slopes[i + 1] for i in range(len(path.slopes) - 1)]
    k = int(np.argmin(gaps))
    return SlopeGapDiagnostic(min_gap=float(gaps[k]), attained_at=(k, k + 1))


def _default_magnitude(inst: Instance, v1: VertexWithBasis, v2: VertexWithBasis) -> float:
    """Perturbation size: well below the endpoint slacks, well above TIGHT_TOL.

    The scale has to separate two regimes.  It must stay far under the
    smallest positive slack so every perturbed vertex keeps the tight set of
    the original vertex it splits from, and far over the tightness tolerance
    so the perturbed slacks never read as spuriously tight.  Collapse
    accuracy does not constrain it: mapped vertices are re-solved against the
    original right-hand side exactly.
    """
    slacks = np.concatenate([inst.slack(v1.x), inst.slack(v2.x)])
    positive = slacks[slacks > TIGHT_TOL]
    if positive.size == 0:
        return max(PERTURB_SCALE * (1.0 + float(np.max(np.abs(inst.b)))),
                   MAGNITUDE_FLOOR)
    return max(PERTURB_SCALE * float(np.min(positive)), MAGNITUDE_FLOOR)


def _representative(perturbed: Instance, original: Instance,
                    v: VertexWithBasis) -> VertexWithBasis:
    """Nearest perturbed vertex whose tight set sits inside v's tight set.

    The perturbation splits a degenerate vertex into an equivalence class of
    perturbed vertices; any basis drawn from the original tight rows that is
    feasible on the perturbed polytope identifies a member.  The closest one
    is the class representative used as a walk endpoint; distances within
    ``DIST_TIE_RTOL`` of each other tie, and the first subset in
    combinations order wins, so rounding noise cannot pick the route.

    The stacked solve gives the point and basis; raises
    :class:`PerturbationFailed` unless exactly the basis rows are tight
    there, they have full rank, and every other row's slack exceeds
    10 ``TIGHT_TOL``.  With exactly n tight rows this one rank test is
    :func:`verify_vertex`'s prefix loop, since a subset of rows has no
    smaller ratio of extreme singular values than the whole basis.
    """
    tight = tight_rows(original, v.x)
    subsets, out, _ = feasible_subsets(perturbed, tight)
    best: tuple[float, int] | None = None
    for k, dist in enumerate(np.abs(out[:, :, -1] - v.x).max(axis=1).tolist()):
        if best is None or dist < best[0] * (1.0 - DIST_TIE_RTOL):
            best = (dist, k)
    if best is None:
        raise PerturbationFailed(
            f"no feasible basis from the {len(tight)} tight rows survives perturbation")
    basis = subsets[best[1]]
    x = out[best[1], :, -1].copy()
    x.flags.writeable = False
    slack = perturbed.slack(x)
    is_tight = np.abs(slack) <= TIGHT_TOL
    if np.count_nonzero(is_tight) > perturbed.n:
        raise PerturbationFailed("representative vertex is still degenerate")
    if not is_tight[basis].all():
        raise PerturbationFailed("representative's tight rows are not its basis")
    if linalg.rank(perturbed.A[basis]) < perturbed.n:
        raise PerturbationFailed("representative's basis rows are numerically dependent")
    if float(slack[~is_tight].min(initial=np.inf)) <= 10.0 * TIGHT_TOL:
        raise PerturbationFailed("representative tightness is not cleanly separated")
    return VertexWithBasis(x=x, basis=tuple(basis.tolist()))


def _collapse_result(original: Instance, tilde_path: ShadowPath,
                     record: PerturbationRecord, seed: int, retries: int) -> ShadowPath:
    """Map a completed perturbed walk back onto the original polytope.

    Consecutive perturbed vertices that collapse to one original vertex are
    merged; each surviving step keeps the slope and pivot of the perturbed
    edge that crossed between the merged groups.
    """
    kept = collapse_steps(original, tilde_path.vertices)
    vertices = tuple(v for _, v in kept)
    pair = tilde_path.objective
    slopes = tuple(tilde_path.slopes[j - 1] for j, _ in kept[1:])
    trace = tuple(tilde_path.pivot_trace[j - 1] for j, _ in kept[1:])
    projections = tuple(project(pair, v.x) for v in vertices)
    return ShadowPath(vertices=vertices, slopes=slopes,
                      projections=projections, pivot_trace=trace,
                      status="Perturbed+Completed", seed=seed, retries=retries,
                      perturbation=record, objective=pair)


@dataclass(frozen=True)
class _Endpoints:
    """Both endpoints of a walk, verified, and whether they are one vertex.

    No seed changes any of this, so :func:`find_path` keeps the last record
    it built on the instance and repeated walks between the same two points
    verify them once.  ``magnitude`` is the default perturbation size.  The
    record holds no reference to its instance, so the memo never keeps an
    instance alive.
    """

    v1: VertexWithBasis
    v2: VertexWithBasis
    same: bool
    magnitude: float


def _attempts(inst: Instance, ends: _Endpoints, seed: int) -> ShadowPath:
    """The attempt loop of :func:`find_path` between verified endpoints."""
    v1, v2 = ends.v1, ends.v2
    if ends.same:
        return ShadowPath(vertices=(v1,), slopes=(), projections=(),
                          pivot_trace=(), status="Completed", seed=int(seed))

    reasons: list[str] = []
    perturbing = v1.degenerate or v2.degenerate
    magnitude = ends.magnitude
    for attempt in range(MAX_ATTEMPTS):
        attempt_seed = seed + attempt
        try:
            if not perturbing:
                pair = sample_objectives(inst, v1, v2, attempt_seed)
                path = walk(inst, v1, v2, pair)
                return replace(path, seed=int(seed), retries=attempt)
            perturbed, record = perturb(inst, magnitude, attempt_seed)
            r1 = _representative(perturbed, inst, v1)
            r2 = _representative(perturbed, inst, v2)
            pair = sample_objectives(perturbed, r1, r2, attempt_seed)
            tilde_path = walk(perturbed, r1, r2, pair)
            return _collapse_result(inst, tilde_path, record, int(seed), attempt)
        except DegenerateVertex:
            reasons.append("DegenerateVertex")
            perturbing = True
        except WalkFailure as exc:
            reasons.append(type(exc).__name__)
        except PerturbationFailed as exc:
            # A murky representative wants a fresh draw, not a smaller
            # magnitude: shrinking only pushes slacks toward the tightness
            # tolerance and makes the ambiguity worse.
            reasons.append(type(exc).__name__)
        except MappingFailed as exc:
            reasons.append(type(exc).__name__)
            magnitude = max(0.1 * magnitude, MAGNITUDE_FLOOR)

    failed = ShadowPath(vertices=(v1,), slopes=(), projections=(),
                        pivot_trace=(), status=f"Failed({';'.join(reasons)})",
                        seed=int(seed), retries=MAX_ATTEMPTS)
    raise RetriesExhausted(
        f"no walk succeeded in {MAX_ATTEMPTS} attempts: {', '.join(reasons)}",
        reasons, path=failed)


def find_path(inst: Instance, x1, x2, seed: int) -> ShadowPath:
    """Short edge path between two vertices, with retries and perturbation.

    Verifies the endpoints, then walks with objectives drawn from ``seed``.
    The instance keeps the last verified endpoint pair, keyed by the bytes
    of both points, so a later call between the same points (any seed)
    skips the verification; a failed verification is never kept.  Numeric
    walk failures redraw with seed+1 (up to ``MAX_ATTEMPTS`` draws).
    Degenerate endpoints, or a degenerate vertex discovered mid-walk, switch
    to the perturbed pipeline: enlarge b slightly, walk there, collapse the
    result back.  Raises :class:`RetriesExhausted` with the collected
    failure reasons when every attempt fails.
    """
    key = (linalg.as_vector(x1).tobytes(), linalg.as_vector(x2).tobytes())
    memo = inst._endpoint_memo
    if memo is None or memo[0] != key:
        v1 = verify_vertex(inst, x1)
        v2 = verify_vertex(inst, x2)
        memo = (key, _Endpoints(v1=v1, v2=v2,
                                same=float(np.max(np.abs(v1.x - v2.x))) <= POINT_TOL,
                                magnitude=_default_magnitude(inst, v1, v2)))
        # Instance is frozen; the memo is its one private, mutable slot.
        object.__setattr__(inst, "_endpoint_memo", memo)
    return _attempts(inst, memo[1], seed)
