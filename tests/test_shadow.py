"""Shadow walks: objectives, projections, walk invariants, the lexicographic rule."""

import gc
import json
import math
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.instances as instances_mod
import polywalk.linalg as linalg_mod
import polywalk.polytope as polytope_mod
import polywalk.shadow as shadow_mod
from polywalk.errors import (
    CapExceeded,
    Infeasible,
    InfeasibleStep,
    NotAVertex,
    RetriesExhausted,
    LeftwardEdge,
    Singular,
    StalledWalk,
    Unbounded,
    UnboundedShadow,
    WalkFailure,
)
from polywalk.instances import (
    GeneratorSpec,
    gen_cut_cube,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_random_sphere,
    gen_rotated,
    gen_simplex,
    gen_transportation,
    generate,
)
from polywalk.polytope import (
    DIR_TOL,
    TIGHT_TOL,
    VertexWithBasis,
    bfs_distance,
    build_instance,
    enumerate_vertices,
    ratio_step,
    tight_rows,
    verify_vertex,
    vertex_graph,
)
from polywalk.shadow import (
    SLOPE_TOL,
    ObjectivePair,
    default_max_steps,
    find_path,
    project,
    sample_objectives,
    verify_endpoints,
    walk,
)

from oracles import check_walk
from reference import northwest_corner, steepest_edge


def _hexagon():
    """Regular hexagon: unit outer normals at sixty-degree spacing."""
    from polywalk.polytope import build_instance

    angles = np.deg2rad(60.0 * np.arange(6))
    a = np.column_stack([np.cos(angles), np.sin(angles)])
    return build_instance(a, np.ones(6))


def test_sample_objectives_reconstruction(cube3):
    v1 = verify_vertex(cube3, [0.0, 0.0, 0.0])
    v2 = verify_vertex(cube3, [1.0, 1.0, 1.0])
    for seed in range(10):
        pair = sample_objectives(cube3, v1, v2, seed)
        assert np.all(pair.lam > 0) and np.all(pair.lam <= 1)
        assert np.all(pair.mu > 0) and np.all(pair.mu <= 1)
        u_cols = np.column_stack([cube3.A[i] for i in pair.u_rows])
        v_cols = np.column_stack([cube3.A[i] for i in pair.v_rows])
        npt.assert_allclose(pair.w1, -(u_cols @ pair.lam), atol=1e-12)
        npt.assert_allclose(pair.w2, v_cols @ pair.mu, atol=1e-12)
        assert np.linalg.norm(pair.w1) <= cube3.n + 1e-12
        assert np.linalg.norm(pair.w2) <= cube3.n + 1e-12


def test_sampled_objectives_make_endpoints_extreme():
    inst = gen_random_sphere(9, 3, seed=2)
    v1 = verify_vertex(inst, inst.x1)
    v2 = verify_vertex(inst, inst.x2)
    verts = enumerate_vertices(inst)
    for seed in range(8):
        pair = sample_objectives(inst, v1, v2, seed)
        xi = np.array([float(pair.w1 @ v.x) for v in verts])
        eta = np.array([float(pair.w2 @ v.x) for v in verts])
        # x1 is the unique leftmost point, x2 the unique topmost.
        order = np.argsort(xi)
        assert np.allclose(verts[order[0]].x, v1.x, atol=1e-9)
        assert xi[order[1]] - xi[order[0]] > 1e-12
        order = np.argsort(eta)
        assert np.allclose(verts[order[-1]].x, v2.x, atol=1e-9)
        assert eta[order[-1]] - eta[order[-2]] > 1e-12


def test_sample_objectives_draws_from_a_degenerate_endpoints_basis(pyramid):
    base = verify_vertex(pyramid, [1.0, 1.0, 0.0])
    apex = verify_vertex(pyramid, [0.0, 0.0, 1.0])
    verts = enumerate_vertices(pyramid)
    for seed in range(8):
        pair = sample_objectives(pyramid, base, apex, seed)
        reference = _reference_objectives(pyramid, base, apex, seed)
        assert pair.w1.tobytes() == reference.w1.tobytes()
        assert pair.w2.tobytes() == reference.w2.tobytes()
        # The apex still maximizes w2 uniquely over the pyramid.
        eta = sorted(float(pair.w2 @ v.x) for v in verts)
        assert eta[-1] == pytest.approx(float(pair.w2 @ apex.x))
        assert eta[-1] - eta[-2] > 1e-12


def _endpoints(inst):
    return verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)


def _pair_bytes(pair):
    return tuple(part.tobytes() for part in (pair.lam, pair.mu, pair.w1, pair.w2))


def test_sample_objectives_equals_the_reference_in_any_draw_order(cube3, simplex3):
    memo = shadow_mod._objective_weights
    # The cube and the simplex share n = 3, and so every (seed, 6) draw;
    # transportation 3x3 has n = 4.
    cases = [(inst, *_endpoints(inst)) for inst in (cube3, simplex3, gen_transportation(3, 3, 0))]
    expected = {(i, seed): _pair_bytes(_reference_objectives(inst, v1, v2, seed))
                for i, (inst, v1, v2) in enumerate(cases) for seed in range(6)}
    keys = list(expected)
    for order in (keys, keys[::-1], keys[1::2] + keys[::2]):
        memo.cache_clear()
        for rounds in (1, 2):
            for i, seed in order:
                inst, v1, v2 = cases[i]
                assert _pair_bytes(sample_objectives(inst, v1, v2, seed)) == expected[i, seed]
            # Six seeds at two sizes are drawn once; every other call is a hit.
            info = memo.cache_info()
            assert (info.misses, info.hits, info.currsize) == (12, 18 * rounds - 12, 12)


def _drawn_as_before(seed):
    """The draw and seed check of ``sample_objectives`` before the memo."""
    np.random.default_rng(seed).random(6)
    return int(seed)


def test_refused_seeds_raise_as_before_and_are_not_kept(cube3):
    memo = shadow_mod._objective_weights
    v1, v2 = _endpoints(cube3)
    memo.cache_clear()
    sample_objectives(cube3, v1, v2, 1)
    for bad, raised in ((1.0, TypeError), (np.float64(1.0), TypeError), (-1, ValueError),
                        (None, TypeError), (np.array(1), TypeError), ("1", TypeError)):
        with pytest.raises(raised):
            _drawn_as_before(bad)
        with pytest.raises(raised):
            sample_objectives(cube3, v1, v2, bad)
    assert memo.cache_info().currsize == 1
    # A numpy integer and a bool are seeds as before, under the int key.
    for seed in (np.int64(1), True):
        assert _pair_bytes(sample_objectives(cube3, v1, v2, seed)) \
            == _pair_bytes(sample_objectives(cube3, v1, v2, 1))
    assert memo.cache_info().currsize == 1


def test_objective_memo_evicts_the_least_recently_used_draw(cube3):
    memo, bound = shadow_mod._objective_weights, shadow_mod.OBJECTIVE_MEMO_SIZE
    v1, v2 = _endpoints(cube3)
    memo.cache_clear()
    for seed in range(bound):
        sample_objectives(cube3, v1, v2, seed)
    sample_objectives(cube3, v1, v2, 0)
    for seed in range(bound, bound + 10):
        sample_objectives(cube3, v1, v2, seed)
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 10, 1)
    # Seed 0 was used again before the new keys, so seeds 1-10 went.
    sample_objectives(cube3, v1, v2, 0)
    sample_objectives(cube3, v1, v2, 11)
    assert memo.cache_info().hits == 3
    sample_objectives(cube3, v1, v2, 10)
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 11, 3)


def test_pairs_from_one_seed_share_read_only_weights(cube3, simplex3):
    a = sample_objectives(cube3, *_endpoints(cube3), 7)
    b = sample_objectives(simplex3, *_endpoints(simplex3), 7)
    weights = shadow_mod._objective_weights(7, 6)
    # One frozen buffer per (seed, 2n): both halves of both pairs view the
    # memo's draw, and another seed has a buffer of its own.
    assert a.lam.base is a.mu.base is b.lam.base is b.mu.base is weights.base
    assert np.shares_memory(a.lam, weights) and np.shares_memory(b.mu, weights)
    assert not np.shares_memory(shadow_mod._objective_weights(8, 6), weights)
    for part in (weights, weights.base, a.lam, a.mu, b.lam, b.mu):
        with pytest.raises(ValueError):
            part[0] = 0.5
        with pytest.raises(ValueError):
            part.flags.writeable = True
    assert weights.tobytes() == (1.0 - np.random.default_rng(7).random(6)).tobytes()


def test_path_bytes_do_not_depend_on_earlier_walks():
    memo = shadow_mod._objective_weights
    cube, inst = gen_hypercube(4), gen_transportation(3, 3, 0)
    assert cube.n == inst.n == 4
    memo.cache_clear()
    for seed in range(20):
        find_path(cube, cube.x1, cube.x2, seed)
    warm = [find_path(inst, inst.x1, inst.x2, seed).to_json() for seed in range(20)]
    assert memo.cache_info().hits >= 20
    memo.cache_clear()
    fresh = replace(inst)
    assert [find_path(fresh, fresh.x1, fresh.x2, seed).to_json() for seed in range(20)] == warm


def test_project_and_slope_hand_values():
    # On the unit square, w1 = (2, 1) is least at the origin and w2 = (1, 2)
    # greatest at (1, 1).  Going up first gains eta at slope 2 against 1/2
    # going right, so the walk turns at (0, 1).
    square = gen_hypercube(2)
    pair = ObjectivePair(lam=np.ones(2), mu=np.ones(2),
                         w1=np.array([2.0, 1.0]), w2=np.array([1.0, 2.0]),
                         u_rows=(2, 3), v_rows=(0, 1), seed=0)
    assert project(pair, [3.0, 4.0]) == (10.0, 11.0)
    path = walk(square, verify_vertex(square, square.x1),
                verify_vertex(square, square.x2), pair)
    assert [v.x.tolist() for v in path.vertices] == [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert path.slopes == (2.0, 0.5)
    assert path.projections == ((0.0, 0.0), (1.0, 2.0), (3.0, 3.0))


def _edge_draws():
    """Seeded (directions, w1, w2, basis) draws at n = 1-24, in four kinds:
    every run positive, no rise (stalled), runs and rises of either sign,
    and rows scaled around ``SLOPE_TOL`` with signed zeros in w1.  Every
    kind repeats a row, so edges tie exactly, also at the steepest edge."""
    rng = np.random.default_rng(26)
    for t in range(2400):
        n, kind = 1 + t % 24, t // 24 % 4
        directions = rng.standard_normal((n, n))
        w1, w2 = rng.standard_normal(n), rng.standard_normal(n)
        if kind == 0:
            directions *= np.where(directions @ w1 < 0, -1.0, 1.0)[:, None]
        elif kind == 1:
            directions *= np.where(directions @ w2 > 0, -1.0, 1.0)[:, None]
        elif kind == 3:
            directions *= 10.0 ** rng.uniform(-14, -10, (n, 1))
            w1[rng.random(n) < 0.3] = -0.0
        basis = tuple(sorted(rng.choice(3 * n, n, replace=False).tolist()))
        if n > 1:
            rises, runs = directions @ w2, directions @ w1
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.where((rises > SLOPE_TOL) & (runs > SLOPE_TOL), rises / runs,
                                  -np.inf)
            # Copy the steepest row over another, before or after it.
            directions[rng.choice(np.delete(np.arange(n), slopes.argmax()))] = \
                directions[slopes.argmax()]
        yield directions, w1, w2, basis


def _edge_choice(choose, directions, w1, w2, basis):
    """(k, slope bytes) of an edge choice, or its exception's class and text."""
    try:
        k, slope = choose(directions, w1, w2, basis)
    except WalkFailure as exc:
        return type(exc), str(exc)
    return k, np.float64(slope).tobytes()


def test_steepest_edge_matches_the_numpy_reference():
    outcomes = Counter()
    for directions, w1, w2, basis in _edge_draws():
        got = _edge_choice(shadow_mod._steepest_edge, directions, w1, w2, basis)
        assert got == _edge_choice(steepest_edge, directions, w1, w2, basis), \
            (directions, w1, w2)
        rises, runs = directions.dot(w2), directions.dot(w1)
        if got[0] is LeftwardEdge:
            first = np.flatnonzero(rises > SLOPE_TOL)[0]
            outcomes["leftward after a rightward edge" if runs[first] > SLOPE_TOL
                     else "leftward"] += 1
        elif got[0] is StalledWalk:
            outcomes["stalled"] += 1
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ties = np.count_nonzero(rises / runs == rises[got[0]] / runs[got[0]])
            outcomes["tie" if ties > 1 else "chosen"] += 1
    assert min(outcomes[key] for key in ("leftward", "leftward after a rightward edge",
                                         "stalled", "tie", "chosen")) >= 50, outcomes


def test_steepest_edge_prints_a_zero_run_unsigned():
    # At n = 1 ndarray.dot keeps the -0.0 of 1.0 * -0.0, where @ gives 0.0.
    directions, w1, w2 = np.ones((1, 1)), np.array([-0.0]), np.ones(1)
    with pytest.raises(LeftwardEdge, match=r"w1\.d = 0\.000e\+00$"):
        shadow_mod._steepest_edge(directions, w1, w2, (4,))
    assert _edge_choice(shadow_mod._steepest_edge, directions, w1, w2, (4,)) == \
        _edge_choice(steepest_edge, directions, w1, w2, (4,))


def test_default_max_steps(cube3):
    assert default_max_steps(cube3) == 10 * 20


def _exhausted_reasons(inst):
    with pytest.raises(RetriesExhausted) as info:
        find_path(inst, inst.x1, inst.x2, seed=0)
    return info.value.reasons


def test_walk_refuses_a_slope_above_the_last(monkeypatch):
    steepest, rising = shadow_mod._steepest_edge, count(1.0)
    monkeypatch.setattr(shadow_mod, "_steepest_edge",
                        lambda *args: (steepest(*args)[0], next(rising)))
    assert "NonMonotoneSlopes" in _exhausted_reasons(gen_hypercube(3))


def test_walk_stops_at_its_step_limit(monkeypatch):
    monkeypatch.setattr(shadow_mod, "default_max_steps", lambda inst: 1)
    assert "StepLimit" in _exhausted_reasons(gen_hypercube(3))


def test_walk_cube_always_length_n():
    for n in (2, 3, 4):
        inst = gen_hypercube(n)
        v1 = verify_vertex(inst, inst.x1)
        v2 = verify_vertex(inst, inst.x2)
        for seed in range(10):
            pair = sample_objectives(inst, v1, v2, seed)
            path = walk(inst, v1, v2, pair)
            assert path.status == "Completed"
            assert path.length == n
            assert check_walk(inst, path) == []


def _reference_objectives(inst, v1, v2, seed):
    """The objective draw as first written: one normalize call per basis row."""
    rng = np.random.default_rng(seed)
    lam = 1.0 - rng.random(inst.n)
    mu = 1.0 - rng.random(inst.n)
    u_cols = np.column_stack([linalg_mod.normalize(inst.A[i]) for i in v1.basis])
    v_cols = np.column_stack([linalg_mod.normalize(inst.A[i]) for i in v2.basis])
    return ObjectivePair(lam=lam, mu=mu, w1=-(u_cols @ lam), w2=v_cols @ mu,
                         u_rows=v1.basis, v_rows=v2.basis, seed=seed)


def _lex_smaller(u, v):
    """Whether u precedes v lexicographically, entries within DIR_TOL equal."""
    for a, c in zip(u, v):
        if abs(a - c) > DIR_TOL:
            return a < c
    return False


def _reference_walk(inst, start, target, pair):
    """The pivot loop as first written, the byte reference for :func:`walk`.

    Every pivot lists the basis inverse's negated columns as (row, d) pairs,
    restacks them for the edge choice, and solves the new basis afresh.  At
    a degenerate vertex, each tied row's full epsilon-coefficient vector
    e_j - a_j B^-1 E_B is built from the inverse and divided by a_j.d, and
    the vectors are compared pairwise; a pivot whose entering row was tight
    at the point it leaves is merged into the last kept vertex.  The walk
    ends at the target's basis, or, on a degenerate vertex when the target
    is one, where every row of the target's basis is tight.
    """
    current, vertices, slopes, trace = start, [start], [], []
    projections = [project(pair, start.x)]
    for _ in range(default_max_steps(inst)):
        if set(current.basis) == set(target.basis) or (
                current.degenerate and target.degenerate
                and set(target.basis) <= set(tight_rows(inst, current.x))):
            return vertices, slopes, projections, trace
        basis_inv = linalg_mod.inverse(inst.A[list(current.basis)])
        directions = [(row, -basis_inv[:, k]) for k, row in enumerate(current.basis)]
        stacked = np.array([d for _, d in directions])
        rises, runs = stacked @ pair.w2, stacked @ pair.w1
        candidates = np.flatnonzero(rises > SLOPE_TOL)
        edge_slopes = rises[candidates] / runs[candidates]
        best = int(np.argmax(edge_slopes))
        leaving, d = directions[int(candidates[best])]
        entering, step = ratio_step(inst, inst.slack(current.x), d)
        new_basis = tuple(sorted(set(current.basis) - {leaving} | {entering}))
        x_new = linalg_mod.solve(inst.A[list(new_basis)], inst.b[list(new_basis)])
        tight = tight_rows(inst, x_new)
        if len(tight) > inst.n:
            def coefficients(j):
                coef = np.zeros(inst.m)
                coef[j] = 1.0
                coef[list(current.basis)] -= inst.A[j] @ basis_inv
                return coef / float(inst.A[j] @ d)

            for j in tight:
                if float(inst.A[j] @ d) > DIR_TOL and \
                        _lex_smaller(coefficients(j), coefficients(entering)):
                    entering = j
            new_basis = tuple(sorted(set(current.basis) - {leaving} | {entering}))
            x_new = linalg_mod.solve(inst.A[list(new_basis)], inst.b[list(new_basis)])
        assert float(np.min(inst.slack(x_new))) >= -TIGHT_TOL
        merged = float(inst.slack(current.x)[entering]) <= TIGHT_TOL
        current = VertexWithBasis(x=x_new, basis=new_basis, degenerate=len(tight) > inst.n)
        if merged:
            continue
        vertices.append(current)
        slopes.append(float(edge_slopes[best]))
        projections.append(project(pair, x_new))
        trace.append((leaving, entering, step))
    raise AssertionError("reference walk did not terminate")


def _assert_walk_matches_reference(inst, v1, v2, seed):
    pair = sample_objectives(inst, v1, v2, seed)
    ref_pair = _reference_objectives(inst, v1, v2, seed)
    assert pair.w1.tobytes() == ref_pair.w1.tobytes()
    assert pair.w2.tobytes() == ref_pair.w2.tobytes()
    path = walk(inst, v1, v2, pair)
    vertices, slopes, projections, trace = _reference_walk(inst, v1, v2, ref_pair)
    assert path.length > 0
    assert [v.x.tobytes() for v in path.vertices] == [v.x.tobytes() for v in vertices]
    assert [v.basis for v in path.vertices] == [v.basis for v in vertices]
    # repr round-trips every float exactly, so equal reprs mean equal bits.
    assert repr(path.slopes) == repr(tuple(slopes))
    assert repr(path.projections) == repr(tuple(projections))
    assert repr(path.pivot_trace) == repr(tuple(trace))
    return path


def _cut_corner_cube(eps):
    """The 3-cube with its corner (1, 1, 1) cut by x + y + z <= 3 - eps, and
    the three vertices of the cut triangle, eps apart."""
    A = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
    inst = build_instance(A, [1.0] * 6 + [3.0 - eps], name="cut-corner-cube")
    return inst, [np.where(np.arange(3) == j, 1.0 - eps, 1.0) for j in range(3)]


def test_walk_matches_reference_at_the_proximity_fallback():
    # The triangle vertices lie 1e-8 apart, yet each is simple, with tight
    # rows of its own.  Each walk to one of them is compared with the
    # reference on a fresh copy and on one shared, warm instance: every walk
    # ends at x2's verified basis, and walks that reach another triangle
    # vertex first go on from there.
    shared, corners = _cut_corner_cube(1e-8)
    x1 = -np.ones(3)
    passed = 0
    for j, x2 in enumerate(corners):
        others = {tight_rows(shared, c) for k, c in enumerate(corners) if k != j}
        for seed in range(40):
            for inst in (replace(shared), shared):
                ends = verify_endpoints(inst, x1, x2)
                assert not ends.v2.degenerate
                path = _assert_walk_matches_reference(inst, ends.v1, ends.v2, seed)
                assert path.vertices[-1].basis == ends.v2.basis
            assert find_path(shared, x1, x2, seed).to_json() == path.to_json()
            passed += any(v.basis in others for v in path.vertices[1:-1])
    assert passed


def _cut_corner_routes(eps):
    """(status, retries, bases) of find_path from (-1, -1, -1) to each cut
    triangle vertex, seeds 0-39."""
    inst, corners = _cut_corner_cube(eps)
    routes = []
    for x2 in corners:
        for seed in range(40):
            path = find_path(inst, -np.ones(3), x2, seed)
            routes.append((path.status, path.retries, [v.basis for v in path.vertices]))
    return routes


@pytest.mark.parametrize("eps", [1e-7, 3e-8, 1e-8, 3e-9])
def test_cut_corner_routes_do_not_depend_on_a_small_cut(eps):
    # Above TIGHT_TOL the triangle vertices are distinct simple vertices
    # however close they lie, so each route is the one at a wide cut.
    assert _cut_corner_routes(eps) == _cut_corner_routes(1e-4)


def test_close_cut_corner_vertices_are_adjacent_not_one():
    # Two triangle vertices 1e-8 apart share an edge; a walk between them
    # takes it, or goes round by the third as it does at a wide cut.
    inst, corners = _cut_corner_cube(1e-8)
    verts, adjacency = vertex_graph(inst)
    assert len(verts) == 10 and all(len(a) == 3 for a in adjacency)
    assert bfs_distance(inst, corners[0], corners[1]) == 1
    path = find_path(inst, corners[0], corners[1], seed=0)
    assert path.status == "Completed" and path.length == 1
    wide, far = _cut_corner_cube(1e-4)
    for seed in range(20):
        bases = [v.basis for v in find_path(inst, corners[0], corners[1], seed).vertices]
        assert bases == [v.basis for v in find_path(wide, far[0], far[1], seed).vertices]


@pytest.mark.parametrize("n", [8, 12])
def test_walk_matches_reference_on_rotated_cubes(n):
    for seed in range(10):
        inst = gen_rotated(gen_hypercube(n), seed)
        v1, v2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
        _assert_walk_matches_reference(inst, v1, v2, seed)


def test_walk_matches_reference_on_cut_cube():
    inst = gen_cut_cube(8)
    v1, v2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
    for seed in range(10):
        _assert_walk_matches_reference(inst, v1, v2, seed)


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3)])
def test_walk_matches_reference_on_small_transportation(p, q):
    # n = 1 and 2.  Some endpoints carry -0.0 coordinates, and their images
    # read 0.0 under @, so comparing the projections' reprs catches a
    # signed-zero change in how a vertex is projected.
    signed_zeros = 0
    for s in range(3):
        inst = gen_transportation(p, q, s)
        v1, v2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
        signed_zeros += int(np.count_nonzero((v1.x == 0) & np.signbit(v1.x)))
        for seed in range(10):
            _assert_walk_matches_reference(inst, v1, v2, seed)
    assert signed_zeros


def test_walk_matches_reference_on_perturbed_transportation(calls):
    # Walked on the lexicographically perturbed right-hand side: most
    # endpoints are degenerate, and so are vertices met on the way.
    calls.watch(shadow_mod, "edge_directions")
    walks = pivots = steps = met = 0
    for p, q in ((3, 3), (3, 4)):
        for s in range(3):
            inst = gen_transportation(p, q, s)
            r1, r2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
            for seed in range(10):
                calls.clear()
                # A fresh copy has an empty pivot memo: every pivot is counted.
                try:
                    path = _assert_walk_matches_reference(replace(inst), r1, r2, seed)
                except WalkFailure:
                    continue
                if any(v.degenerate for v in path.vertices):
                    assert path.status == "Perturbed+Completed"
                    assert path.objective.seed == seed
                else:
                    assert path.status == "Completed"
                    assert json.loads(path.to_json())["perturbation"] is None
                walks += 1
                pivots += len(calls["edge_directions"])
                steps += path.length
                met += sum(v.degenerate for v in path.vertices[1:-1])
    # Zero-length pivots were merged, and degenerate vertices met mid-walk.
    assert walks > 50 and pivots > steps and met > 0


def test_walk_through_a_degenerate_vertex_is_not_redrawn():
    # Both endpoints of transportation-p3q4-s1 are simple, but most of its
    # walks cross degenerate vertices; the lexicographic rule walks through
    # them with the first draw.
    inst = gen_transportation(3, 4, 1)
    ends = [verify_vertex(inst, x) for x in (inst.x1, inst.x2)]
    assert not any(v.degenerate for v in ends)
    crossed = 0
    for seed in range(10):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        assert path.retries == 0 and path.vertices[0].basis == ends[0].basis
        if any(v.degenerate for v in path.vertices[1:-1]):
            assert path.status == "Perturbed+Completed"
            assert path.objective.seed == seed
            crossed += 1
        else:
            assert path.status == "Completed"
    assert crossed >= 5


def test_walk_takes_one_slack_per_pivot(calls):
    # ratio_step reads the slack the walk computed when it reached the
    # vertex: one slack for the start, then one per new basis.  Instance.slack
    # and _basic_point's unchecked slack of a solved point both take it by
    # Instance._slack.
    calls.watch(shadow_mod, "ratio_step")
    calls.watch(polytope_mod.Instance, "_slack")
    calls.watch(linalg_mod, "solve")
    for inst in (gen_rotated(gen_hypercube(8), 0), gen_transportation(3, 4, 0)):
        v1, v2 = (verify_vertex(inst, x) for x in (inst.x1, inst.x2))
        pair = sample_objectives(inst, v1, v2, 0)
        calls.clear()
        walk(inst, v1, v2, pair)
        counts = calls.counts()
        assert counts["ratio_step"] >= inst.n
        assert counts["_slack"] == counts["solve"] + 1
        assert counts["solve"] >= counts["ratio_step"]


def test_walk_makes_one_next_basis_per_pivot(calls, monkeypatch):
    # A cold pivot names its new basis once, and again only when the
    # lexicographic rule changes the entering row; a warm one reads it from
    # the stored outcome and names none.
    inst = gen_transportation(3, 4, 2)
    ends = verify_endpoints(inst, inst.x1, inst.x2)
    pair = sample_objectives(inst, ends.v1, ends.v2, 0)
    _, changes = _lex_changes(inst, ends, pair, monkeypatch)
    calls.watch(shadow_mod, "_next_basis", "ratio_step")
    walk(replace(inst), ends.v1, ends.v2, pair)
    assert changes
    assert len(calls["_next_basis"]) == len(calls["ratio_step"]) + len(changes)

    inst = gen_rotated(gen_hypercube(8), 0)
    ends = verify_endpoints(inst, inst.x1, inst.x2)
    for expected in (inst.n, 0):
        calls.clear()
        walk(inst, ends.v1, ends.v2, sample_objectives(inst, ends.v1, ends.v2, 0))
        assert len(calls["_next_basis"]) == len(calls["ratio_step"]) == expected


@pytest.mark.parametrize("make", [lambda: gen_transportation(3, 4, 0),
                                  lambda: gen_hypercube(5), gen_degenerate_pyramid],
                         ids=["transportation-3x4-s0", "hypercube-5", "pyramid"])
def test_walk_from_a_list_start(make):
    # The start's record holds the start as given: a point given as a
    # Python list walks as its array does, and a NaN in it is still refused
    # by Instance.slack.
    inst = make()
    v1, v2 = (verify_vertex(inst, x) for x in (inst.x1, inst.x2))
    listed = VertexWithBasis(x=list(v1.x), basis=v1.basis, degenerate=v1.degenerate)
    for seed in range(3):
        pair = sample_objectives(inst, v1, v2, seed)
        assert walk(replace(inst), listed, v2, pair).to_json() == \
            walk(replace(inst), v1, v2, pair).to_json()
    nan = replace(listed, x=[math.nan, *listed.x[1:]])
    fresh = replace(inst)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        walk(fresh, nan, v2, sample_objectives(inst, v1, v2, 0))
    assert not fresh._pivot_memo


def test_walk_tight_sets_need_no_abs(monkeypatch):
    # Every record a pivot keeps has refused any slack below -TIGHT_TOL, so
    # slack <= TIGHT_TOL is its tight set: tight_rows' at its point.  Each
    # pivot record's vertex is fixed by (A, b, basis): its rows are its memo
    # key and its degenerate flag is its own tight set's.  On the acceptance
    # corpus and rotated n = 16, with no record evicted.
    from test_acceptance import N_PATH_SEEDS, _corpus_specs

    monkeypatch.setattr(shadow_mod, "PIVOT_MEMO_BYTES", math.inf)
    specs = _corpus_specs() + [GeneratorSpec(family="rotated", n=16)]
    checked = degenerate = 0
    for inst in map(generate, specs):
        for seed in range(N_PATH_SEEDS):
            find_path(inst, inst.x1, inst.x2, seed=seed)
        ends = inst._endpoint_memo
        assert ends.start.vertex is ends.v1
        for key, record in [*inst._pivot_memo.items(), (None, ends.start)]:
            assert record.slack.min() >= -TIGHT_TOL
            tight = tuple((record.slack <= TIGHT_TOL).nonzero()[0].tolist())
            assert tight == tight_rows(inst, record.vertex.x)
            checked += 1
            if key is not None:
                assert record.vertex.basis is key
                assert record.vertex.degenerate == (len(tight) > inst.n)
                assert not record.vertex.x.flags.writeable
                degenerate += record.vertex.degenerate
    assert checked > 1000
    assert degenerate > 0


def test_walk_hexagon_opposite_is_three():
    # Between antipodal vertices both boundary arcs have three edges, so the
    # walk length is draw-independent.
    inst = _hexagon()
    verts = enumerate_vertices(inst)
    x1 = verts[0].x
    x2 = min((v.x for v in verts),
             key=lambda p: float(np.dot(p, x1) / (np.linalg.norm(p) * np.linalg.norm(x1))))
    for seed in range(12):
        path = find_path(inst, x1, x2, seed=seed)
        assert path.status == "Completed"
        assert path.length == 3


def test_walk_simplex_follows_upper_left_chain():
    inst = gen_simplex(3)
    points = np.array([v.x for v in enumerate_vertices(inst)])
    # Seed 1 is a draw where the walk legitimately visits an intermediate
    # vertex even though the endpoints are adjacent.
    for seed, length in ((1, 2), (0, 1)):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        assert path.length == length
        assert check_walk(inst, path, points) == []


def test_walk_sphere_follows_upper_left_chain():
    inst = gen_random_sphere(9, 3, seed=0)
    points = np.array([v.x for v in enumerate_vertices(inst)])
    for seed in range(6):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        assert path.status == "Completed"
        assert check_walk(inst, path, points) == []


def test_find_path_deterministic_json(cube3):
    a = find_path(cube3, cube3.x1, cube3.x2, seed=42).to_json()
    b = find_path(cube3, cube3.x1, cube3.x2, seed=42).to_json()
    assert a == b
    record = json.loads(a)
    assert set(record) == {"status", "seed", "retries", "vertices", "bases",
                           "slopes", "projections", "perturbation"}
    assert record["seed"] == 42 and record["perturbation"] is None


def test_find_path_trivial_same_endpoint(cube3):
    path = find_path(cube3, [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], seed=0)
    assert path.status == "Completed"
    assert path.length == 0
    assert path.slopes == () and path.projections == ()
    record = json.loads(path.to_json())
    assert record["projections"] == [] and record["perturbation"] is None


def test_find_path_same_degenerate_vertex_with_noise(pyramid):
    # The apex given again with noise far below TIGHT_TOL has the same tight
    # rows, so the same basis: one vertex, and a zero-length path.
    apex = np.array([0.0, 0.0, 1.0])
    path = find_path(pyramid, apex, apex + 1e-12, seed=0)
    assert path.status == "Completed" and path.length == 0
    assert path.vertices[0].degenerate


def test_find_path_pyramid_degeneracy(pyramid):
    path = find_path(pyramid, [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], seed=0)
    assert path.status == "Perturbed+Completed" and path.retries == 0
    assert path.objective.seed == 0
    npt.assert_allclose(path.vertices[-1].x, [0.0, 0.0, 1.0], atol=1e-7)
    assert check_walk(pyramid, path) == []
    assert all(np.max(np.abs(a.x - c.x)) > 1e-7 for a, c in zip(path.vertices, path.vertices[1:]))


def _exact_lex_feasible(inst, basis, rows):
    """Whether ``basis`` is nonsingular and lexicographically feasible for
    ``rows``, in exact rationals on the raw data."""
    A = [[Fraction(float(a)) for a in row] for row in inst.raw_A]
    inverse = _exact_inverse([A[i] for i in basis])
    if inverse is None:
        return False
    for j in rows:
        # a_j B^-1, then the first nonzero of e_j - a_j B^-1 in row order.
        weights = [sum(A[j][r] * inverse[r][k] for r in range(inst.n))
                   for k in range(inst.n)]
        coef = {row: -w for row, w in zip(basis, weights)}
        coef[j] = coef.get(j, 0) + 1
        lead = next((coef[r] for r in sorted(coef) if coef[r] != 0), 0)
        if lead < 0:
            return False
    return True


def _exact_inverse(rows):
    """Gauss-Jordan inverse over the rationals; None when singular."""
    n = len(rows)
    work = [list(r) + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [v / work[c][c] for v in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                work[r] = [a - work[r][c] * b for a, b in zip(work[r], work[c])]
    return [row[n:] for row in work]


def test_find_path_representative_ties_go_to_first_subset():
    # At x1 of transportation-p3q4-s0 seven rows are tight, and several of
    # their 6-subsets are lexicographically feasible bases; the first in
    # combinations order stands for the vertex, on every seed.
    inst = generate(GeneratorSpec(family="transportation", n=3, m=4, seed=0))
    tight = tight_rows(inst, inst.x1)
    assert len(tight) == 7
    feasible = [b for b in combinations(tight, inst.n) if _exact_lex_feasible(inst, b, tight)]
    assert len(feasible) > 1
    for seed in range(5):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        assert path.status == "Perturbed+Completed" and path.retries == 0
        assert path.vertices[0].basis == feasible[0]


def test_representative_breaks_near_ties_by_subset_order():
    # At the origin rows 0, 1 and 2 are tight.  On basis (0, 1) the
    # epsilon-coefficients of row 2's slack are (-eta, 1) on rows (0, 1),
    # up to row 2's norm.  An eta within DIR_TOL of 0 counts as 0, so the
    # coefficient 1 leads and the first subset in combinations order stands
    # for the vertex; a larger eta makes the basis infeasible, and so is
    # (0, 2), by row 1's coefficients (-eta, 1).
    rows = lambda eta: [[-1.0, 0.0], [0.0, -1.0], [-eta, 1.0], [1.0, 0.0], [0.0, 1.0]]
    for eta, basis in ((1e-13, (0, 1)), (1e-3, (1, 2))):
        inst = build_instance(rows(eta), [0.0, 0.0, 0.0, 1.0, 1.0])
        origin = verify_vertex(inst, [0.0, 0.0])
        assert origin.degenerate and origin.basis == basis
        assert origin.basis == _reference_lex_basis(inst, origin)
        assert origin.x.tobytes() == np.zeros(2).tobytes()


def _degenerate_family():
    insts = [gen_transportation(p, q, s)
             for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)) for s in range(3)]
    return insts + [gen_degenerate_pyramid()]


def _reference_lex_basis(inst, v):
    """First subset of v's tight rows, one inverse per subset, whose tight
    rows all have a lexicographically positive epsilon-coefficient vector."""
    tight = tight_rows(inst, v.x)
    for basis in combinations(tight, inst.n):
        try:
            inverse = linalg_mod.inverse(inst.A[list(basis)])
        except Singular:
            continue
        for j in tight:
            coef = np.zeros(inst.m)
            coef[j] = 1.0
            coef[list(basis)] -= inst.A[j] @ inverse
            lead = coef[np.abs(coef) > DIR_TOL]
            if lead.size and lead[0] < 0:
                break
        else:
            return basis
    raise AssertionError("no lexicographically feasible basis")


def test_representative_matches_verify_vertex_route(calls):
    # find_path walks from verify_vertex's basis at every endpoint.  At a
    # degenerate one that is the first lexicographically feasible basis, by
    # a chunked search over its tight rows; the family holds degenerate
    # endpoints where the first nonsingular subset qualifies and ones where
    # it does not.
    calls.watch(linalg_mod, "solve_stack")
    simple = same = other = 0
    for inst in _degenerate_family():
        calls.clear()
        find_path(inst, inst.x1, inst.x2, seed=0)
        ends = inst._endpoint_memo
        degenerate_ends = 0
        for x, rep in ((inst.x1, ends.v1), (inst.x2, ends.v2)):
            v = verify_vertex(inst, x)
            assert rep.x.tobytes() == v.x.tobytes() and rep.degenerate == v.degenerate
            assert rep.basis == v.basis
            if not v.degenerate:
                simple += 1
                continue
            degenerate_ends += 1
            assert v.basis == _reference_lex_basis(inst, v)
            tight = tight_rows(inst, v.x)
            first = next(b for b in combinations(tight, inst.n)
                         if linalg_mod.rank(inst.A[list(b)]) == inst.n)
            if _exact_lex_feasible(inst, first, tight):
                assert v.basis == first
                same += 1
            else:
                other += 1
        # One search per degenerate endpoint in find_path, one more in the
        # verify_vertex call above, each over one chunk of subsets.
        assert len(calls["solve_stack"]) == 2 * degenerate_ends
    assert simple > 0 and same > 0 and other > 0


def _corner_endpoints(p, q, seed, monkeypatch):
    """Transportation p x q with the northwest-corner plan as x1 and the
    same rule on the reversed rows as x2, built without enumerating the
    vertex graph."""
    with monkeypatch.context() as patch:
        patch.setattr(instances_mod, "farthest_vertex_pair", lambda inst: (None, None))
        inst = gen_transportation(p, q, seed)
    n = (p - 1) * (q - 1)
    b = inst.raw_b.astype(int)
    supplies, demands, corner = b[n:n + p - 1], b[n + p - 1:-1], b[-1]
    supplies = [*supplies, demands.sum() + corner]
    demands = [*demands, corner + sum(supplies[:-1])]
    x1 = northwest_corner(supplies, demands)[:-1, :-1].ravel()
    x2 = northwest_corner(supplies[::-1], demands)[::-1][:-1, :-1].ravel()
    return replace(inst, x1=x1, x2=x2)


def test_degenerate_search_stops_at_the_first_chunk_with_a_hit(calls, monkeypatch):
    # The search solves the subsets of the tight rows against b one chunk at
    # a time, and stops at the chunk holding the first lexicographically
    # feasible one, at position k in combinations order: ceil((k + 1) /
    # chunk) stacked solves, and no enumeration of all m rows.  A hit's
    # slack and tight rows come from its solved point; the only
    # Instance._slack call is tight_rows' slack of the checked point.
    insts = _degenerate_family() + [_corner_endpoints(5, 5, s, monkeypatch)
                                    for s in range(3)]
    calls.watch(linalg_mod, "solve_stack")
    calls.watch(polytope_mod, "_vertex_classes")
    calls.watch(polytope_mod.Instance, "_slack")
    late = Counter()
    for chunk in (1, 7, linalg_mod.SUBSET_CHUNK):
        monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", chunk)
        for inst in insts:
            for x in (inst.x1, inst.x2):
                calls.clear()
                v = verify_vertex(inst, x)
                counts = calls.counts()
                if not v.degenerate:
                    continue
                assert v.basis == _reference_lex_basis(inst, v)
                k = list(combinations(tight_rows(inst, x), inst.n)).index(v.basis)
                late[chunk] += k >= chunk
                assert counts == {"solve_stack": -(-(k + 1) // chunk), "_slack": 1}
    # Chunks of 1 and of 7 each stop past their first chunk somewhere.
    assert late[1] > 0 and late[7] > 0


def test_find_path_retries_exhausted(cube3, monkeypatch):
    def always_leftward(*args, **kwargs):
        raise LeftwardEdge("forced by test")

    monkeypatch.setattr(shadow_mod, "walk", always_leftward)
    with pytest.raises(RetriesExhausted) as info:
        shadow_mod.find_path(cube3, cube3.x1, cube3.x2, seed=0)
    exc = info.value
    assert exc.reasons == ["LeftwardEdge"] * 16
    assert exc.path is not None
    assert exc.path.status.startswith("Failed(LeftwardEdge")
    assert exc.path.length == 0


def test_unfound_representative_is_reported_and_not_kept(monkeypatch):
    # With no lexicographically feasible basis, the endpoint is refused as
    # no vertex, and the memo keeps nothing.
    pyramid = gen_degenerate_pyramid()

    def all_singular(mats, rhs):
        return np.zeros(len(mats), dtype=bool), np.empty((0, 3, 3 + rhs.shape[2]))

    monkeypatch.setattr(linalg_mod, "solve_stack", all_singular)
    with pytest.raises(NotAVertex, match="lexicographically feasible"):
        find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    assert pyramid._endpoint_memo is None


def test_degenerate_endpoint_search_is_capped(tripled_cube3, monkeypatch):
    # The search over a degenerate endpoint's tight rows is an enumeration
    # like any other: over ENUM_CAP it raises CapExceeded, and the memo
    # keeps nothing.
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 83)
    with pytest.raises(CapExceeded, match=r"C\(9,3\) = 84 subsets exceeds cap 83"):
        find_path(tripled_cube3, tripled_cube3.x1, tripled_cube3.x2, seed=0)
    assert tripled_cube3._endpoint_memo is None
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 84)
    path = find_path(tripled_cube3, tripled_cube3.x1, tripled_cube3.x2, seed=0)
    assert path.status == "Perturbed+Completed" and path.length == 3


# -- the per-instance endpoint memo of find_path ------------------------------

_MEMO_FAMILIES = {
    "hypercube": lambda: gen_hypercube(4),
    "simplex": lambda: gen_simplex(4),
    "random-sphere": lambda: gen_random_sphere(9, 3, seed=0),
    "transportation": lambda: gen_transportation(3, 4, 0),
    "pyramid": gen_degenerate_pyramid,
}


@pytest.mark.parametrize("family", sorted(_MEMO_FAMILIES))
def test_warm_walk_reads_every_pivot_from_the_memo(family, calls, monkeypatch):
    # The second walk with one seed finds each pivot's outcome, next basis
    # and vertex in the memo, and its endpoints in the endpoint memo: no
    # ratio test, next basis, solve, inverse, directions, rank or new
    # vertex, and the first walk's JSON, which a fresh copy also gives.
    inst = _MEMO_FAMILIES[family]()
    first = find_path(inst, inst.x1, inst.x2, seed=0)
    assert first.length > 0
    calls.watch(shadow_mod, "_next_basis", "ratio_step", "edge_directions", "VertexWithBasis")
    calls.watch(linalg_mod, "solve", "inverse", "rank")
    again = find_path(inst, inst.x1, inst.x2, seed=0)
    assert calls.counts() == {}
    monkeypatch.undo()
    assert again.to_json() == first.to_json()
    assert again.to_json() == find_path(replace(inst), inst.x1, inst.x2, seed=0).to_json()


@pytest.mark.parametrize("family", sorted(_MEMO_FAMILIES))
def test_repeated_find_path_skips_verification(family, calls):
    make = _MEMO_FAMILIES[family]
    inst = make()
    calls.watch(shadow_mod, "verify_vertex")
    first = find_path(inst, inst.x1, inst.x2, seed=0)
    assert len(calls["verify_vertex"]) == 2
    if family == "transportation":
        assert first.status == "Perturbed+Completed"
    for seed in (0, 1, 7):
        again = find_path(inst, inst.x1, inst.x2, seed=seed).to_json()
        assert again == find_path(make(), inst.x1, inst.x2, seed=seed).to_json()
    # Each fresh instance verifies once; the repeated calls on inst never do.
    assert len(calls["verify_vertex"]) == 2 + 2 * 3


def test_endpoint_memo_list_and_array_agree(calls):
    inst = gen_transportation(3, 4, 0)
    calls.watch(shadow_mod, "verify_vertex")
    from_arrays = find_path(inst, inst.x1, inst.x2, seed=3).to_json()
    from_lists = find_path(inst, inst.x1.tolist(), inst.x2.tolist(), seed=3).to_json()
    assert from_lists == from_arrays
    assert len(calls["verify_vertex"]) == 2
    fresh = gen_transportation(3, 4, 0)
    assert find_path(fresh, fresh.x1.tolist(), fresh.x2.tolist(), seed=3).to_json() \
        == from_arrays


def test_endpoint_memo_holds_the_last_pair_only(calls):
    inst = gen_hypercube(3)
    points = [v.x for v in enumerate_vertices(inst)]
    calls.watch(shadow_mod, "verify_vertex")
    pairs = [(points[0], points[-1]), (points[1], points[2]), (points[3], points[0]),
             (points[0], points[-1])]
    for k, (x1, x2) in enumerate(pairs, start=1):
        path = find_path(inst, x1, x2, seed=k)
        npt.assert_array_equal(path.vertices[0].x, x1)
        npt.assert_array_equal(path.vertices[-1].x, x2)
        # A new pair is verified and replaces the one slot; the first pair,
        # walked again after others, is verified again.
        assert len(calls["verify_vertex"]) == 2 * k
        ends = inst._endpoint_memo
        assert ends.key == (x1.tobytes(), x2.tobytes())
        npt.assert_array_equal(ends.v1.x, x1)


@pytest.mark.parametrize("bad, error", [([0.5, 0.0, 0.0], NotAVertex),
                                        ([2.0, 0.0, 0.0], Infeasible),
                                        ([np.nan, 0.0, 0.0], ValueError)])
def test_failed_verification_is_never_kept(bad, error, calls):
    inst = gen_hypercube(3)
    find_path(inst, inst.x1, inst.x2, seed=0)
    memo = inst._endpoint_memo
    calls.watch(shadow_mod, "verify_vertex")
    for _ in range(2):
        with pytest.raises(error):
            find_path(inst, inst.x1, bad, seed=0)
        with pytest.raises(error):
            find_path(inst, bad, inst.x2, seed=0)
        assert inst._endpoint_memo is memo
    # A non-finite point fails while its key is taken, before any check.
    expected = 0 if error is ValueError else 6
    assert len(calls["verify_vertex"]) == expected
    find_path(inst, inst.x1, inst.x2, seed=1)
    assert len(calls["verify_vertex"]) == expected


def test_endpoint_key_stays_strict(calls):
    # After a warm walk, a (1, n) or (n, 1) endpoint has the memo key's
    # bytes and still fails as_vector's shape check, before any
    # verification; a list or a big-endian copy of the pair hits the memo.
    inst = gen_transportation(3, 4, 0)
    expected = find_path(inst, inst.x1, inst.x2, seed=0).to_json()
    memo = inst._endpoint_memo
    calls.watch(shadow_mod, "verify_vertex")
    for reshape in (lambda x: x[None, :], lambda x: x[:, None]):
        for x1, x2 in ((reshape(inst.x1), inst.x2), (inst.x1, reshape(inst.x2))):
            assert (x1.tobytes(), x2.tobytes()) == memo.key
            with pytest.raises(ValueError, match="1-d vector"):
                find_path(inst, x1, x2, 0)
            assert inst._endpoint_memo is memo
    for x1, x2 in ((inst.x1.tolist(), inst.x2.tolist()),
                   (inst.x1.astype(">f8"), inst.x2.astype(">f8"))):
        assert find_path(inst, x1, x2, seed=0).to_json() == expected
    assert calls["verify_vertex"] == [] and inst._endpoint_memo is memo


def test_endpoint_memo_keeps_no_instance_alive():
    gc.disable()
    try:
        for make in (_MEMO_FAMILIES["hypercube"], _MEMO_FAMILIES["transportation"]):
            inst = make()
            find_path(inst, inst.x1, inst.x2, seed=0)
            find_path(inst, inst.x1, inst.x2, seed=1)
            ref = weakref.ref(inst)
            del inst
            assert ref() is None
    finally:
        gc.enable()


def test_fresh_find_path_ranks_only_the_simple_endpoint(calls):
    # The pyramid's x1 is simple and its apex x2 degenerate: verify_vertex
    # runs its rank loop over x1's n tight rows only, and picks the apex's
    # basis by the lexicographic search alone.
    pyramid = gen_degenerate_pyramid()
    calls.watch(shadow_mod, "verify_vertex")
    calls.watch(linalg_mod, "rank")
    find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    assert calls.counts() == {"verify_vertex": 2, "rank": pyramid.n}


# -- the per-instance pivot memo of walk ---------------------------------------

_PIVOT_MEMO_INSTANCES = {
    **{family: make for family, make in _MEMO_FAMILIES.items() if family != "transportation"},
    # x2 a hair off the point its basis solves to: a walk that starts there
    # keeps its verified point and slack, even after a walk reached its basis.
    "hypercube-nudged": lambda: replace(gen_hypercube(4), x2=np.full(4, 1.0 + 2.0**-40)),
    **{f"transportation-{p}x{q}-s{s}": (lambda p=p, q=q, s=s: gen_transportation(p, q, s))
       for p, q in ((3, 3), (3, 4)) for s in range(3)},
}


def _walked(inst, x1, x2, seed):
    """``find_path``'s path, or the failed one ``RetriesExhausted`` carries."""
    try:
        return find_path(inst, x1, x2, seed=seed)
    except RetriesExhausted as exc:
        return exc.path


def _path_record(inst, x1, x2, seed):
    """The path JSON plus the ratio-test steps, which the JSON leaves out."""
    path = _walked(inst, x1, x2, seed)
    return path.to_json(), repr(path.pivot_trace)


def _arrays(record):
    """The arrays a basis record holds: its vertex's point, slack and edge
    directions, None where not yet computed.  Its outcome table is a tuple
    and its vertex a frozen dataclass around the point."""
    return [record.vertex.x, record.slack, record.directions]


def _memo_bytes(memo):
    """Bytes of arrays the memo keeps alive, which ``_record_bytes`` bounds:
    a view keeps all of its base."""
    return sum((a if a.base is None else a.base).nbytes
               for record in memo.values() for a in _arrays(record) if a is not None)


def _outcome_bytes(memo):
    """Bytes of the outcome tuples the memo keeps alive: each table, each
    outcome and its step, and each next basis that is not a kept record's
    key.  Entering rows below 257 are Python's cached ints, so they add
    nothing."""
    total = 0
    for table in [record.outcomes for record in memo.values() if record.outcomes]:
        total += sys.getsizeof(table)
        for outcome in [outcome for outcome in table if outcome is not None]:
            total += sys.getsizeof(outcome) + sys.getsizeof(outcome[1])
            if (after := outcome[2]) not in memo or memo[after].vertex.basis is not after:
                total += sys.getsizeof(after)
    return total


@pytest.mark.parametrize("name", sorted(_PIVOT_MEMO_INSTANCES))
def test_shared_pivot_memo_matches_fresh_instances(name):
    # Seeds 0-29 in both directions on one instance, each against the same
    # walk on its own fresh copy, whose memo starts empty.
    inst = _PIVOT_MEMO_INSTANCES[name]()
    for seed in range(30):
        for x1, x2 in ((inst.x1, inst.x2), (inst.x2, inst.x1)):
            shared = _path_record(inst, x1, x2, seed)
            fresh = replace(inst)
            assert not fresh._pivot_memo
            assert shared == _path_record(fresh, x1, x2, seed)
    assert inst._pivot_memo
    # Nothing was evicted, so each stored next basis is its record's key
    # itself, not a copy.
    records = [*inst._pivot_memo.values(), inst._endpoint_memo.start]
    for table in [record.outcomes for record in records if record.outcomes]:
        for after in [outcome[2] for outcome in table if outcome is not None]:
            assert after is inst._pivot_memo[after].vertex.basis


def test_start_outcomes_are_not_read_after_a_pivot():
    # A start keeps its verified point, so its slack need not be its basis's
    # solve: from (1, 1, 1, -2^-40) the pivot to x2 steps 1 + 2^-40, where
    # from the pivot-reached (1, 1, 1, 0) it steps 1.  The x1 -> x2 walks
    # after it, on the same instance, match walks on fresh copies.
    for j in range(4):
        cube = gen_hypercube(4)
        nudged = np.ones(4)
        nudged[j] = -2.0**-40
        find_path(cube, nudged, cube.x2, seed=0)
        for seed in range(12):
            shared = _path_record(cube, cube.x1, cube.x2, seed)
            assert shared == _path_record(replace(cube), cube.x1, cube.x2, seed)


def _dangling_outcomes(inst):
    """Stored outcomes whose next basis is not in the pivot memo."""
    records = [(basis, record.outcomes) for basis, record in inst._pivot_memo.items()]
    if inst._endpoint_memo is not None:
        ends = inst._endpoint_memo
        records.append((ends.v1.basis, ends.start.outcomes))
    count = 0
    for basis, table in records:
        for k, outcome in enumerate(table or ()):
            if outcome is not None:
                entering, _, after = outcome
                assert after == tuple(sorted(set(basis) - {basis[k]} | {entering}))
                count += after not in inst._pivot_memo
    return count


@pytest.mark.parametrize("name", ["hypercube", "transportation-3x3-s0",
                                  "transportation-3x4-s0"])
def test_outcomes_whose_next_basis_was_evicted(name, monkeypatch):
    # A memo of four records evicts the next basis of stored outcomes; a walk
    # that reads one solves that basis again.  A memo of none evicts each
    # record as it stores it, so only the start's record keeps outcomes.  The
    # transportation routes take lexicographic tie-breaks.
    for entries in (4, 0):
        inst = _PIVOT_MEMO_INSTANCES[name]()
        bound = entries * shadow_mod._record_bytes(*inst.A.shape)
        monkeypatch.setattr(shadow_mod, "PIVOT_MEMO_BYTES", bound)
        dangling = 0
        for x1, x2 in ((inst.x1, inst.x2), (inst.x2, inst.x1)):
            for seed in range(30):
                dangling += _dangling_outcomes(inst)
                shared = _path_record(inst, x1, x2, seed)
                assert shared == _path_record(replace(inst), x1, x2, seed)
                assert _memo_bytes(inst._pivot_memo) <= shadow_mod.PIVOT_MEMO_BYTES
                assert len(inst._pivot_memo) <= entries
        assert dangling


@pytest.mark.parametrize("name", ["hypercube", "transportation-3x3-s0",
                                  "transportation-3x4-s0"])
def test_fresh_walk_calls_do_not_depend_on_the_bound(name, calls, monkeypatch):
    # A walk on a fresh instance makes a memo-less walk's calls at any bound:
    # with room for no record, a pivot still solves the basis it probes
    # once.  The transportation walks take lexicographic tie-breaks.
    inst = _PIVOT_MEMO_INSTANCES[name]()
    calls.watch(linalg_mod, "solve")
    calls.watch(shadow_mod, "ratio_step", "edge_directions", "_lex_entering")

    def fresh_walk_calls(seed):
        fresh = replace(inst)
        ends = verify_endpoints(fresh, inst.x1, inst.x2)
        pair = sample_objectives(fresh, ends.v1, ends.v2, seed)
        calls.clear()
        try:
            walk(fresh, ends.v1, ends.v2, pair)
        except WalkFailure:
            pass
        return calls.counts()

    expected = [fresh_walk_calls(seed) for seed in range(20)]
    monkeypatch.setattr(shadow_mod, "PIVOT_MEMO_BYTES", 0)
    assert [fresh_walk_calls(seed) for seed in range(20)] == expected
    if name != "hypercube":
        assert any("_lex_entering" in counts for counts in expected)


@pytest.mark.parametrize("family", ["pyramid", "transportation"])
def test_objective_columns_match_the_per_seed_formula(family):
    # Two endpoint pairs alternate on one instance: each pair's objectives
    # read the endpoint memo's columns, and the other pair's, drawn while
    # the memo holds this one, compute theirs; both give the reference's bits.
    inst = _MEMO_FAMILIES[family]()
    pairs = [(inst.x1, inst.x2), (inst.x2, inst.x1)]
    for seed in range(6):
        for (x1, x2), (y1, y2) in (pairs, pairs[::-1]):
            ends = verify_endpoints(inst, x1, x2)
            other = verify_endpoints(replace(inst), y1, y2)
            assert shadow_mod._unit_columns(inst, ends.v1, ends.v2) is ends.columns
            for v1, v2 in ((ends.v1, ends.v2), (other.v1, other.v2)):
                pair = sample_objectives(inst, v1, v2, seed)
                reference = _reference_objectives(inst, v1, v2, seed)
                assert pair.w1.tobytes() == reference.w1.tobytes()
                assert pair.w2.tobytes() == reference.w2.tobytes()


@pytest.mark.parametrize("where", ["solve", "edge_directions", "ratio_step"])
def test_pivot_memo_stores_no_failure(where, monkeypatch):
    cube = gen_hypercube(4)
    # The endpoint memo's vertices: a walk from its x1 keeps the start's
    # outcomes in the memo's start record.
    ends = verify_endpoints(cube, cube.x1, cube.x2)
    v1, v2 = ends.v1, ends.v2
    pair = sample_objectives(cube, v1, v2, 0)
    expected = walk(replace(cube), v1, v2, pair)
    # The second vertex: a pivot reaches it, then walks from it.
    bad = expected.vertices[1].basis
    bad_slack = cube.slack(expected.vertices[1].x).tobytes()
    failed = Counter()
    real_solve, real_directions = linalg_mod.solve, shadow_mod.edge_directions
    real_ratio_step = shadow_mod.ratio_step

    def solve(mat, rhs):
        if mat.tobytes() == cube.A[list(bad)].tobytes():
            failed["solve"] += 1
            raise Singular("forced")
        return real_solve(mat, rhs)

    def edge_directions(inst, v):
        if v.basis == bad:
            failed["edge_directions"] += 1
            raise Singular("forced")
        return real_directions(inst, v)

    def ratio_step(inst, slack, d):
        if slack.tobytes() == bad_slack:
            failed["ratio_step"] += 1
            raise Unbounded("forced")
        return real_ratio_step(inst, slack, d)

    if where == "solve":
        monkeypatch.setattr(linalg_mod, "solve", solve)
    elif where == "edge_directions":
        monkeypatch.setattr(shadow_mod, "edge_directions", edge_directions)
    else:
        monkeypatch.setattr(shadow_mod, "ratio_step", ratio_step)
    for attempt in (1, 2):
        with pytest.raises(UnboundedShadow if where == "ratio_step" else InfeasibleStep):
            walk(cube, v1, v2, pair)
        # Raised again on the next walk: the failure was never stored.
        assert failed[where] == attempt
        record = cube._pivot_memo.get(bad)
        if where == "solve":
            # The start's pivot to bad failed: it stored no outcome either.
            assert record is None and ends.start.outcomes is None
        elif where == "edge_directions":
            assert record.directions is None and record.outcomes is None
        else:
            # bad's own pivot failed and stored no outcome.
            assert record.directions is not None and record.outcomes is None
    monkeypatch.undo()
    assert walk(cube, v1, v2, pair).to_json() == expected.to_json()
    assert all(part is not None for part in _arrays(cube._pivot_memo[bad]))
    assert cube._pivot_memo[bad].outcomes is not None


def _force_outside(monkeypatch, inst, bad, shift):
    """Shift every solve of basis ``bad`` by ``shift``, out of the polytope,
    counting those solves."""
    real = linalg_mod.solve
    calls = Counter()

    def outside(mat, rhs):
        if mat.tobytes() == inst.A[list(bad)].tobytes():
            calls["bad"] += 1
            return real(mat, rhs) + shift
        return real(mat, rhs)

    monkeypatch.setattr(linalg_mod, "solve", outside)
    return calls


def _lex_changes(inst, ends, pair, monkeypatch):
    """A walk on a fresh copy of inst, and the (basis, k, ratio test's row,
    lexicographic row) of each of its pivots whose tie-break changed the
    entering row."""
    real_ratio_step, real_lex = shadow_mod.ratio_step, shadow_mod._lex_entering
    ratio_rows, changes = [], []

    def ratio_step(inst_, slack, d):
        entering, step = real_ratio_step(inst_, slack, d)
        ratio_rows.append(entering)
        return entering, step

    def lex_entering(inst_, basis, directions, d, tight):
        entering = real_lex(inst_, basis, directions, d, tight)
        if entering != ratio_rows[-1]:
            k = next(i for i, row in enumerate(directions) if np.array_equal(row, d))
            changes.append((basis, k, ratio_rows[-1], entering))
        return entering

    with monkeypatch.context() as patch:
        patch.setattr(shadow_mod, "ratio_step", ratio_step)
        patch.setattr(shadow_mod, "_lex_entering", lex_entering)
        path = walk(replace(inst), ends.v1, ends.v2, pair)
    return path, changes


def test_pivot_memo_forced_infeasible_point_is_not_stored(monkeypatch):
    cube = gen_hypercube(4)
    v1, v2 = verify_vertex(cube, cube.x1), verify_vertex(cube, cube.x2)
    pair = sample_objectives(cube, v1, v2, 0)
    before, bad = (v.basis for v in walk(replace(cube), v1, v2, pair).vertices[1:3])
    calls = _force_outside(monkeypatch, cube, bad, 2.0)
    for attempt in (1, 2):
        with pytest.raises(InfeasibleStep, match="outside the polytope"):
            walk(cube, v1, v2, pair)
        assert calls["bad"] == attempt and bad not in cube._pivot_memo
        # The basis the failed pivot left stored no outcome for it.
        assert cube._pivot_memo[before].outcomes is None
    monkeypatch.undo()

    # Degenerate landings where the lexicographic rule picks another basis
    # than the ratio test's: that basis, forced outside the polytope, fails
    # the pivot after the ratio test's basis was kept, no outcome is stored
    # for the edge, and the next walk raises again.
    for p, q, s, seed in ((2, 3, 1, 0), (3, 3, 0, 1), (3, 4, 2, 0)):
        inst = gen_transportation(p, q, s)
        ends = verify_endpoints(inst, inst.x1, inst.x2)
        pair = sample_objectives(inst, ends.v1, ends.v2, seed)
        expected, changes = _lex_changes(inst, ends, pair, monkeypatch)
        before, k, ratio_row, lex_row = changes[0]
        rest = set(before) - {before[k]}
        probe, bad = (tuple(sorted(rest | {row})) for row in (ratio_row, lex_row))
        calls = _force_outside(monkeypatch, inst, bad, -1e3)
        for attempt in (1, 2):
            with pytest.raises(InfeasibleStep, match="outside the polytope"):
                walk(inst, ends.v1, ends.v2, pair)
            assert calls["bad"] == attempt and bad not in inst._pivot_memo
            assert probe in inst._pivot_memo
            left = ends.start if before == ends.v1.basis else inst._pivot_memo[before]
            assert left.outcomes is None or left.outcomes[k] is None
        monkeypatch.undo()
        assert walk(inst, ends.v1, ends.v2, pair).to_json() == expected.to_json()


def test_pivot_memo_is_bounded_and_keeps_the_start(calls):
    inst = gen_rotated(gen_hypercube(24), 0)
    reached = set()
    for seed in range(25):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        if seed == 0:
            first = path.to_json()
        reached.update(v.basis for v in path.vertices)
        # The arrays stay within the bound, and the outcome tuples within the
        # three float64s per edge that _record_bytes charges for them.
        outcomes = _outcome_bytes(inst._pivot_memo)
        assert outcomes <= len(inst._pivot_memo) * 3 * 8 * inst.n
        assert _memo_bytes(inst._pivot_memo) + outcomes <= shadow_mod.PIVOT_MEMO_BYTES
    # Bases were evicted.
    assert len(inst._pivot_memo) < len(reached)
    start = path.vertices[0].basis
    calls.watch(shadow_mod, "edge_directions")
    again = find_path(inst, inst.x1, inst.x2, seed=0)
    assert again.to_json() == first
    # The start's record, the endpoint memo's, keeps its directions.
    assert start not in [call["v"].basis for call in calls["edge_directions"]]
    # Least recently used first out: the bases the repeat's pivots reached,
    # hits included, are now the memo's most recent, in the order reached.
    bases = [v.basis for v in again.vertices[1:]]
    assert list(inst._pivot_memo)[-len(bases):] == bases


def test_pivot_memo_records_are_whole(monkeypatch):
    # Every record holds its point and slack, after walks both ways and after
    # walks that a forced singular basis failed.
    for name in ("hypercube", "transportation-3x4-s0"):
        inst = _PIVOT_MEMO_INSTANCES[name]()
        for x1, x2 in ((inst.x1, inst.x2), (inst.x2, inst.x1)):
            for seed in range(6):
                find_path(inst, x1, x2, seed=seed)
        assert inst._pivot_memo
        assert all(r.vertex.x is not None and r.slack is not None
                   for r in inst._pivot_memo.values())
    cube = gen_hypercube(4)
    ends = verify_endpoints(cube, cube.x1, cube.x2)
    pair = sample_objectives(cube, ends.v1, ends.v2, 0)
    bad = walk(replace(cube), ends.v1, ends.v2, pair).vertices[2].basis
    real = shadow_mod.edge_directions

    def edge_directions(inst_, v):
        if v.basis == bad:
            raise Singular("forced")
        return real(inst_, v)

    monkeypatch.setattr(shadow_mod, "edge_directions", edge_directions)
    with pytest.raises(InfeasibleStep):
        walk(cube, ends.v1, ends.v2, pair)
    assert bad in cube._pivot_memo and cube._pivot_memo[bad].directions is None
    assert all(r.vertex.x is not None and r.slack is not None for r in cube._pivot_memo.values())


def _kept_arrays(inst, paths):
    """Every array the package keeps that ``paths`` and ``inst`` reach: each
    vertex point, each objective's lam and mu, the endpoint memo's points,
    columns and start record, each pivot-memo record and the instance."""
    arrays = [inst.A, inst.b, inst.raw_A, inst.raw_b, inst.x1, inst.x2]
    for path in paths:
        arrays += [v.x for v in path.vertices]
        if path.objective is not None:
            arrays += [path.objective.lam, path.objective.mu]
    if (ends := inst._endpoint_memo) is not None:
        arrays += [ends.v1.x, ends.v2.x, *ends.columns, *_arrays(ends.start)]
    for record in inst._pivot_memo.values():
        arrays += _arrays(record)
    return [a for a in arrays if a is not None]


def _assert_frozen(arrays):
    """Each array, and the array it views, refuses ``flags.writeable = True``."""
    for a in arrays:
        for part in (a, a.base):
            with pytest.raises(ValueError):
                part.flags.writeable = True


def test_memo_arrays_are_read_only():
    inst = gen_transportation(3, 4, 0)
    paths = [find_path(inst, inst.x1, inst.x2, seed=seed) for seed in range(3)]
    assert all(path.length > 0 for path in paths)
    records = [*inst._pivot_memo.values(), inst._endpoint_memo.start]
    assert any(record.outcomes is not None for record in inst._pivot_memo.values())
    assert inst._endpoint_memo.start.outcomes is not None
    _assert_frozen(_kept_arrays(inst, paths))
    # w1 and w2 belong to their pair, which no memo keeps: only flagged read-only.
    for pair in [path.objective for path in paths]:
        for part in (pair.w1, pair.w2):
            with pytest.raises(ValueError):
                part[0] = 1.0
    # The outcome tables and each stored outcome are tuples: they refuse writes too.
    for table in [record.outcomes for record in records if record.outcomes is not None]:
        with pytest.raises(TypeError):
            table[0] = None
        for outcome in [outcome for outcome in table if outcome is not None]:
            with pytest.raises(TypeError):
                outcome[0] = -1


_HISTORY_INSTANCES = (
    lambda: gen_transportation(3, 3, 0),
    lambda: gen_transportation(3, 4, 1),
    lambda: gen_random_sphere(15, 5, 0),
    lambda: gen_random_sphere(12, 4, 2),
    lambda: gen_cut_cube(4),
    gen_degenerate_pyramid,
)


def test_walk_history_changes_no_record_with_both_memos_evicting(monkeypatch):
    # 1,008 seeded walks between random vertex pairs, interleaved over six
    # instances, one shared copy each, with both memos small enough to evict:
    # 4 KiB of pivot records per instance and 16 weight draws.  Each record
    # equals the same walk on a fresh copy with the weight memo cleared, and
    # afterwards no array the walks kept accepts the writeable flag back.
    monkeypatch.setattr(shadow_mod, "PIVOT_MEMO_BYTES", 4096)
    memo = lru_cache(maxsize=16)(shadow_mod._objective_weights.__wrapped__)
    monkeypatch.setattr(shadow_mod, "_objective_weights", memo)
    shared = [make() for make in _HISTORY_INSTANCES]
    points = [[v.x for v in enumerate_vertices(inst)] for inst in shared]
    rng = np.random.default_rng(31)
    draws = []
    for i in rng.integers(len(shared), size=1008).tolist():
        a, b = rng.integers(len(points[i]), size=2).tolist()
        draws.append((i, points[i][a], points[i][b], int(rng.integers(700))))
    expected = []
    for i, x1, x2, seed in draws:
        memo.cache_clear()
        expected.append(_path_record(replace(shared[i]), x1, x2, seed))
    memo.cache_clear()
    paths = [[] for _ in shared]
    for (i, x1, x2, seed), want in zip(draws, expected):
        path = _walked(shared[i], x1, x2, seed)
        assert (path.to_json(), repr(path.pivot_trace)) == want, (i, seed)
        paths[i].append(path)
    info = memo.cache_info()
    assert info.currsize == 16 and info.misses > 16 and info.hits
    evicted = 0
    for inst, walked in zip(shared, paths):
        room = shadow_mod.PIVOT_MEMO_BYTES // shadow_mod._record_bytes(*inst.A.shape)
        assert len(inst._pivot_memo) <= room
        evicted += len({v.basis for path in walked for v in path.vertices[1:]}) > room
        _assert_frozen(_kept_arrays(inst, walked))
    # Every memo but the pyramid's, whose six reached bases all fit, evicted.
    assert evicted == len(shared) - 1


def test_pivot_memo_keeps_no_instance_alive():
    gc.disable()
    try:
        for make in (_MEMO_FAMILIES["hypercube"], _MEMO_FAMILIES["transportation"]):
            inst = make()
            for seed in range(3):
                find_path(inst, inst.x1, inst.x2, seed=seed)
            assert inst._pivot_memo
            ref = weakref.ref(inst)
            del inst
            assert ref() is None
    finally:
        gc.enable()


# -- exact oracle and scale invariance of the lexicographic rule ---------------

_LEX_FAMILIES = {
    "pyramid": gen_degenerate_pyramid,
    "transportation-3x3": lambda: gen_transportation(3, 3, 0),
    "transportation-3x4": lambda: gen_transportation(3, 4, 0),
}


def _exact_point(inst, basis):
    """The point of a basis, in exact rationals on the raw data."""
    A = [[Fraction(float(a)) for a in inst.raw_A[i]] for i in basis]
    inverse = _exact_inverse(A)
    b = [Fraction(float(inst.raw_b[i])) for i in basis]
    return [sum(inverse[r][k] * b[k] for k in range(inst.n)) for r in range(inst.n)]


def _exact_slack(inst, x):
    return [Fraction(float(bi)) - sum(Fraction(float(a)) * xk for a, xk in zip(row, x))
            for row, bi in zip(inst.raw_A, inst.raw_b)]


@pytest.mark.parametrize("family", sorted(_LEX_FAMILIES))
def test_lex_walk_exact_oracle(family, calls):
    # Every basis a walk visits, zero-length pivots included, is checked in
    # exact rationals: it is lexicographically feasible, and consecutive
    # bases differ in one row.  Every kept point is a vertex of P, the slopes
    # strictly decrease, and the walk ends at x2.
    inst = _LEX_FAMILIES[family]()
    calls.watch(shadow_mod, "edge_directions")
    # x2 as generated carries rounding; its vertex is the point of its basis.
    target = _exact_point(inst, verify_vertex(inst, inst.x2).basis)
    pivots = steps = 0
    for seed in range(20):
        calls.clear()
        # Each seed walks a fresh copy, so edge_directions sees every basis.
        fresh = replace(inst)
        path = find_path(fresh, fresh.x1, fresh.x2, seed=seed)
        assert path.status == "Perturbed+Completed" and path.retries == 0
        bases = [call["v"].basis for call in calls["edge_directions"]] + [path.vertices[-1].basis]
        for basis in bases:
            slack = _exact_slack(inst, _exact_point(inst, basis))
            assert min(slack) >= 0
            tight = [i for i, s in enumerate(slack) if s == 0]
            assert _exact_lex_feasible(inst, basis, tight)
        for before, after in zip(bases, bases[1:]):
            assert len(set(before) & set(after)) == inst.n - 1
        for v in path.vertices:
            x = _exact_point(inst, v.basis)
            assert min(_exact_slack(inst, x)) >= 0
            assert max(abs(float(e) - f) for e, f in zip(x, v.x)) <= 1e-12
        assert all(s1 > s2 for s1, s2 in zip(path.slopes, path.slopes[1:]))
        assert _exact_point(inst, path.vertices[-1].basis) == target
        pivots += len(bases) - 1
        steps += path.length
    if family != "pyramid":
        assert pivots > steps  # zero-length pivots were walked and merged


@pytest.mark.parametrize("family", ["pyramid", "transportation-3x3"])
def test_lex_walk_bases_do_not_change_with_scale(family):
    # The lexicographic rule reads only A and the bases; b, x1 and x2 scaled
    # by k move no tie and no basis.
    inst = _LEX_FAMILIES[family]()

    def routes(k):
        scaled = build_instance(inst.raw_A, k * inst.raw_b, x1=k * inst.x1, x2=k * inst.x2)
        found = []
        for seed in range(10):
            for x1, x2 in ((scaled.x1, scaled.x2), (scaled.x2, scaled.x1)):
                path = find_path(scaled, x1, x2, seed=seed)
                found.append((path.status, path.retries, [v.basis for v in path.vertices]))
        return found

    reference = routes(1.0)
    assert all(status == "Perturbed+Completed" for status, _, _ in reference)
    for k in (1e-3, 1e3):
        assert routes(k) == reference
