"""Polytope geometry: tight sets, vertices, edges, ratio test, BFS oracle."""

import math
import re
import warnings
from itertools import combinations

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.linalg as linalg_mod
import polywalk.polytope as polytope_mod
from polywalk.errors import (
    CapExceeded,
    Disconnected,
    Infeasible,
    NotAVertex,
    Singular,
    Unbounded,
)
from polywalk.flatness import delta_A
from polywalk.instances import (
    _farthest_pair,
    farthest_vertex_pair,
    gen_cut_cube,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_random_sphere,
    gen_rotated,
    gen_simplex,
    gen_transportation,
)
from polywalk.polytope import (
    bfs_distance,
    build_instance,
    edge_directions,
    enumerate_vertices,
    _vertex_classes,
    feasible_bases,
    graph_distances,
    ratio_step,
    solved_subsets,
    tight_rows,
    verify_vertex,
    vertex_graph,
)
from reference import hop_distances, vertex_classes


def test_build_instance_canonicalizes_rows():
    inst = build_instance([[2.0, 0.0], [0.0, -3.0], [1.0, 1.0]], [4.0, 0.0, 2.0])
    npt.assert_allclose(np.linalg.norm(inst.A, axis=1), 1.0, atol=1e-15)
    npt.assert_allclose(inst.A[0], [1.0, 0.0])
    npt.assert_allclose(inst.b, [2.0, 0.0, 2.0 / np.sqrt(2.0)])
    assert inst.integral  # entries are integer-valued floats
    assert inst.int_A == ((2, 0), (0, -3), (1, 1))


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_build_instance_norms_rows_whose_sum_of_squares_leaves_the_normal_range(scale):
    rows = [[1.0, 0.5], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    box = build_instance(rows, [1.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = build_instance([[scale, scale / 2]] + rows[1:], [scale, 1.0, 1.0, 1.0],
                              integral=False)
    npt.assert_allclose(inst.A, box.A, rtol=1e-15, atol=0)
    npt.assert_allclose(inst.b, box.b, rtol=1e-15, atol=0)
    assert inst.raw_A[0].tolist() == [scale, scale / 2]
    got, want = enumerate_vertices(inst), enumerate_vertices(box)
    assert [v.basis for v in got] == [v.basis for v in want] and len(want) == 4
    npt.assert_allclose([v.x for v in got], [v.x for v in want], rtol=1e-14, atol=1e-15)
    corner = [1.5, -1.0]
    assert verify_vertex(inst, corner).basis == verify_vertex(box, corner).basis == (0, 3)


def test_build_instance_keeps_a_row_with_a_huge_entry():
    # (1e200)**2 overflows: the plain norm was inf, which turned the row into 0 <= 0.
    inst = build_instance([[1e200, 0.5], [0, 1], [-1, 0], [0, -1]], [1e200, 1, 1, 1],
                          integral=False)
    npt.assert_allclose(inst.A[0], [1.0, 5e-201], rtol=1e-15, atol=0)
    assert inst.b[0] == 1.0
    assert verify_vertex(inst, [1.0, 1.0]).basis == (0, 1)
    with pytest.raises(ValueError, match="row 1 of A has zero norm"):
        build_instance([[1e-200, 5e-201], [0.0, 0.0]], [1.0, 1.0], integral=False)


def test_build_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_instance([[1.0, 0.0]], [1.0])  # m < n
    with pytest.raises(ValueError):
        build_instance([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])  # zero row
    with pytest.raises(ValueError):
        build_instance([[1.0, 0.0], [0.0, 1.0]], [1.0])  # b length
    with pytest.raises(ValueError, match=r"^endpoint has length 3, expected 2$"):
        build_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], x1=[0.0, 0.0, 0.0])


def test_tight_rows_cube_corners(cube3):
    # Rows are [I; -I]: the origin is tight on the three lower bounds.
    assert tight_rows(cube3, [0.0, 0.0, 0.0]) == (3, 4, 5)
    assert tight_rows(cube3, [1.0, 1.0, 1.0]) == (0, 1, 2)
    assert tight_rows(cube3, [0.5, 0.5, 0.5]) == ()
    with pytest.raises(Infeasible):
        tight_rows(cube3, [1.5, 0.0, 0.0])


def test_point_of_the_wrong_length_is_named(cube3):
    for check in (tight_rows, verify_vertex):
        with pytest.raises(ValueError, match=r"^point has length 2, expected 3$"):
            check(cube3, [0.0, 0.0])


def test_verify_vertex_and_not_a_vertex(cube3, pyramid):
    v = verify_vertex(cube3, [0.0, 0.0, 0.0])
    assert v.basis == (3, 4, 5) and not v.degenerate
    apex = verify_vertex(pyramid, [0.0, 0.0, 1.0])
    assert apex.degenerate and len(apex.basis) == 3
    with pytest.raises(NotAVertex):
        verify_vertex(cube3, [0.5, 0.0, 0.0])  # edge midpoint, rank 2
    # Two tight rows at a point, one written twice: n tight rows of rank 1.
    doubled = build_instance([[1, 0], [2, 0], [-1, 0], [0, 1], [0, -1]], [1, 2, 0, 1, 0])
    with pytest.raises(NotAVertex, match=r"^tight rows have rank 1 < 2$"):
        verify_vertex(doubled, [1.0, 0.5])


def _cube_with_shallow_cuts():
    """The 3-cube (rows I with b = 1, then -I with b = 0) plus seeded cuts,
    each 1e-9 inside a random cube vertex: m = 9."""
    rng = np.random.default_rng(2)
    rows, rhs = [np.eye(3), -np.eye(3)], [np.ones(3), np.zeros(3)]
    for _ in range(rng.integers(1, 4)):
        v = rng.integers(0, 2, size=3)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        rows.append(a[None, :])
        rhs.append([a @ v - 1e-9])
    return build_instance(np.vstack(rows), np.concatenate(rhs))


def test_degenerate_vertex_basis_reproduces_its_tight_rows():
    # The vertex with tight rows (0, 1, 2, 7) has one basis whose point has
    # them, (0, 1, 2), and it is not lexicographically feasible; the feasible
    # (0, 2, 7) solves to the vertex with tight rows (0, 2, 7).  So no basis
    # stands for the vertex, and every other vertex keeps a basis of its own.
    inst = _cube_with_shallow_cuts()
    assert inst.m == 9
    verts = enumerate_vertices(inst)
    by_rows = {tight_rows(inst, v.x): v for v in verts}
    assert (0, 1, 2, 7) in by_rows and (0, 2, 7) in by_rows

    def solved_rows(basis):
        """Tight rows of the basis's point, None when it leaves the polytope."""
        try:
            return tight_rows(inst, linalg_mod.solve(inst.A[list(basis)], inst.b[list(basis)]))
        except Infeasible:
            return None

    assert [s for s in combinations((0, 1, 2, 7), 3)
            if solved_rows(s) == (0, 1, 2, 7)] == [(0, 1, 2)]
    with pytest.raises(NotAVertex, match="exactly those tight rows"):
        verify_vertex(inst, by_rows[(0, 1, 2, 7)].x)
    for rows, v in by_rows.items():
        if rows != (0, 1, 2, 7):
            assert solved_rows(verify_vertex(inst, v.x).basis) == rows

    # Rows 1 and 2 meet at the origin, 1.2e-9 outside row 0, so their basis,
    # the one lexicographically feasible subset, has the three tight rows of
    # (0, -5e-10) but leaves the polytope: that is not the point either.
    wedge = build_instance([[0.0, 1.0], [-1e-3, 1.0], [1e-3, 1.0], [0.0, -1.0]],
                           [-1.2e-9, 0.0, 0.0, 1.0])
    assert tight_rows(wedge, [0.0, -5e-10]) == (0, 1, 2)
    origin = linalg_mod.solve(wedge.A[[1, 2]], wedge.b[[1, 2]])
    assert wedge.slack(origin)[0] < -polytope_mod.TIGHT_TOL
    with pytest.raises(NotAVertex, match="exactly those tight rows"):
        verify_vertex(wedge, [0.0, -5e-10])


def test_edge_directions_cube_origin(cube3):
    v = verify_vertex(cube3, [0.0, 0.0, 0.0])
    dirs = dict(zip(v.basis, edge_directions(cube3, v)))
    assert set(dirs) == {3, 4, 5}
    got = sorted(tuple(np.round(d, 12)) for d in dirs.values())
    assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


@pytest.mark.parametrize("make", [lambda: gen_hypercube(3), lambda: gen_simplex(3),
                                  lambda: gen_rotated(gen_hypercube(8), 0)],
                         ids=["cube3", "simplex3", "rotated8"])
def test_edge_directions_are_stacked_inverse_columns(make):
    inst = make()
    for x in (inst.x1, inst.x2):
        v = verify_vertex(inst, x)
        basis_rows = inst.A[list(v.basis)]
        dirs = edge_directions(inst, v)
        assert dirs.shape == (inst.n, inst.n) and dirs.flags.c_contiguous
        assert not dirs.flags.writeable
        inverse = linalg_mod.inverse(basis_rows)
        for k in range(inst.n):
            assert dirs[k].tobytes() == (-inverse[:, k]).tobytes()
        npt.assert_allclose(basis_rows @ dirs.T, -np.eye(inst.n), rtol=0, atol=1e-12)


def test_ratio_step_simplex_origin(simplex3):
    v = verify_vertex(simplex3, [0.0, 0.0, 0.0])
    entering, step = ratio_step(simplex3, simplex3.slack(v.x), [1.0, 0.0, 0.0])
    assert entering == 3  # the sum row comes in
    npt.assert_allclose(step, 1.0, atol=1e-12)


def test_ratio_step_unbounded():
    wedge = build_instance([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    v = verify_vertex(wedge, [0.0, 0.0])
    with pytest.raises(Unbounded):
        ratio_step(wedge, wedge.slack(v.x), [1.0, 1.0])


def test_enumerate_vertices_counts(cube3, simplex3, cut_cube3):
    assert len(enumerate_vertices(cube3)) == 8
    assert len(enumerate_vertices(simplex3)) == 4
    # Slicing one corner off the cube removes a vertex and adds a triangle.
    assert len(enumerate_vertices(cut_cube3)) == 8 - 1 + 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_vertices_closed_form(n):
    assert len(enumerate_vertices(gen_hypercube(n))) == 2**n
    assert len(enumerate_vertices(gen_simplex(n))) == n + 1


def test_vertex_graph_is_symmetric_and_regular(cube3):
    verts, adj = vertex_graph(cube3)
    assert len(verts) == 8
    for i, nbrs in enumerate(adj):
        assert len(nbrs) == 3  # the cube graph is 3-regular
        for j in nbrs:
            assert i in adj[j]


def test_vertex_graph_symmetric_on_random_sphere():
    inst = gen_random_sphere(9, 3, seed=4)
    verts, adj = vertex_graph(inst)
    assert len(verts) >= 2
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            assert i in adj[j]


def test_bfs_distance_values(cube3, cut_cube3):
    assert bfs_distance(cube3, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == 3
    assert bfs_distance(cube3, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 0
    assert bfs_distance(cut_cube3, cut_cube3.x1, cut_cube3.x2) == 3
    with pytest.raises(ValueError, match=re.escape("point has length 2, expected 3")):
        bfs_distance(cube3, [0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(
            "expected a nonempty 1-d vector, got shape (1, 3)")):
        bfs_distance(cube3, [[0.0, 0.0, 0.0]], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="vector entries must be finite"):
        bfs_distance(cube3, [0.0, 0.0, 0.0], [np.nan] * 3)
    with pytest.raises(NotAVertex, match="does not match any enumerated vertex"):
        bfs_distance(cube3, [0.5, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_bfs_accepts_prebuilt_graph(cube3):
    verts, adjacency = vertex_graph(cube3)
    points = [tuple(v.x) for v in verts]
    source, target = points.index((0.0, 0.0, 0.0)), points.index((1.0, 1.0, 0.0))
    assert graph_distances(adjacency, [source])[0, target] == 2


def test_simplex_vertices_match_unit_points():
    inst = gen_simplex(4)
    pts = sorted(tuple(np.round(v.x, 9)) for v in enumerate_vertices(inst))
    expected = sorted([(0.0, 0.0, 0.0, 0.0)]
                      + [tuple(np.eye(4)[k]) for k in range(4)])
    assert pts == expected


def test_hypercube_bfs_is_hamming():
    inst = gen_hypercube(4)
    rng = np.random.default_rng(0)
    verts, adjacency = vertex_graph(inst)
    points = [tuple(v.x) for v in verts]
    for _ in range(10):
        a = rng.integers(0, 2, size=4).astype(float)
        c = rng.integers(0, 2, size=4).astype(float)
        d = graph_distances(adjacency, [points.index(tuple(a))])[0, points.index(tuple(c))]
        assert d == int(np.sum(a != c))


def _bases(items):
    return [(v.x.tobytes(), v.basis, v.degenerate) for v in items]


def _assert_classes_match_reference(inst):
    """_vertex_classes against the per-subset feasible_bases: the same bases
    in order, each owned by the first vertex with its tight rows, and each
    vertex bitwise the reference's first basis at it."""
    reference = list(feasible_bases(inst))
    verts, bases, owner = _vertex_classes(inst)
    assert [tuple(b) for b in bases] == [v.basis for v in reference]
    tight = [tight_rows(inst, v.x) for v in verts]
    for v, i in zip(reference, owner):
        assert tight.index(tight_rows(inst, v.x)) == i
    assert [verts[i].degenerate for i in owner] == [v.degenerate for v in reference]
    firsts = [owner.index(i) for i in range(len(verts))]
    assert firsts == sorted(firsts)
    assert _bases(verts) == _bases([reference[k] for k in firsts])
    return verts, bases, owner


@pytest.mark.parametrize("make", [lambda: gen_hypercube(4),
                                  lambda: gen_random_sphere(12, 4, seed=1)])
def test_enumeration_same_across_chunk_boundaries(make, monkeypatch):
    # A chunk of 7 subsets splits C(8,4) = 70 and C(12,4) = 495 many times;
    # the per-subset feasible_bases is the reference.
    inst = make()
    verts, adj = vertex_graph(inst)
    found = _assert_classes_match_reference(inst)
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    assert _bases(enumerate_vertices(inst)) == _bases(verts)
    chunked_verts, chunked_adj = vertex_graph(inst)
    assert _bases(chunked_verts) == _bases(verts) and chunked_adj == adj
    chunked = _assert_classes_match_reference(inst)
    assert _bases(chunked[0]) == _bases(found[0]) and chunked[1:] == found[1:]


def test_vertex_classes_flag_every_apex_basis(pyramid):
    # The apex carries four tight rows, so each of its bases is degenerate;
    # the vertex list keeps the first of them.
    reference = list(feasible_bases(pyramid))
    verts, bases, owner = _assert_classes_match_reference(pyramid)
    degenerate = [verts[i].degenerate for i in owner]
    assert sum(degenerate) == 4
    apex = [v for v in enumerate_vertices(pyramid) if v.degenerate]
    first = degenerate.index(True)
    assert len(apex) == 1 and apex[0].basis == tuple(bases[first]) == reference[first].basis


def _stream_cases():
    """(name, A, rows, n, nonsingular subsets) for the subset stream: rows
    1-6 with row 1 repeated as row 6, n = 1 with two zero rows, fewer rows
    than n, rows in general position (every subset nonsingular) and rows of
    rank 2 < n (every subset singular)."""
    rng = np.random.default_rng(0)
    repeated = rng.standard_normal((7, 3))
    repeated[6] = repeated[1]
    flat = rng.standard_normal((6, 3))
    flat[:, 2] = 0.0
    yield "repeated row", repeated, range(1, 7), 3, 16
    yield "n = 1", np.array([[0.5], [0.0], [-2.0], [1.0], [0.0]]), range(5), 1, 3
    yield "too few rows", rng.standard_normal((4, 3)), range(2), 3, 0
    yield "all pass", rng.standard_normal((6, 3)), range(6), 3, 20
    yield "all fail", flat, range(6), 3, 0


def _stream_by_hand(A, rows, n, b, chunk):
    """The stream's chunks from first principles: the n-subsets of rows in
    combinations order, ``chunk`` at a time, each subset kept when
    linalg.inverse takes it, with [B^-1 | linalg.solve(B, b_B)] when b is
    given; chunks left empty are not yielded.  Also the solves it takes."""
    subsets = list(combinations(rows, n))
    groups = [subsets[lo:lo + chunk] for lo in range(0, len(subsets), chunk)]
    chunks = []
    for group in groups:
        kept = []
        for subset in group:
            try:
                inv = linalg_mod.inverse(A[list(subset)])
            except Singular:
                continue
            if b is not None:
                inv = np.column_stack([inv, linalg_mod.solve(A[list(subset)], b[list(subset)])])
            kept.append((subset, inv))
        if kept:
            chunks.append(kept)
    return chunks, len(groups)


def test_solved_subsets_keep_order_across_boundaries(calls, monkeypatch):
    # Seven subsets per chunk cut the C(6, 3) = 20 subsets of rows 1-6 into
    # 7, 7 and 6, in combinations order.  The four holding both copies of a
    # repeated row are singular and drop out, two from each of the first
    # two chunks.  Without b the stream yields inverses, with b the points
    # after them.
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 3))
    A[6] = A[1]
    rows = range(1, 7)
    want = [c for c in combinations(rows, 3) if not {1, 6} <= set(c)]
    calls.watch(linalg_mod, "solve_stack")
    for b in (None, rng.standard_normal(7)):
        calls.clear()
        chunks = list(solved_subsets(A, rows, 3, b))
        assert len(calls["solve_stack"]) == 3
        assert [len(c) for c, _ in chunks] == [5, 5, 6]
        assert [tuple(r) for c, _ in chunks for r in c.tolist()] == want
        for subsets, out in chunks:
            assert out.shape == (len(subsets), 3, 3 if b is None else 4)
            for subset, solved in zip(subsets.tolist(), out):
                npt.assert_allclose(solved[:, :3], linalg_mod.inverse(A[subset]), atol=1e-12)
                if b is not None:
                    npt.assert_allclose(solved[:, 3], linalg_mod.solve(A[subset], b[subset]),
                                        atol=1e-12)
    # Every edge of the stream, at one subset per chunk, seven and the
    # default: each chunk is one stacked solve, a chunk whose subsets all
    # fail yields nothing, one whose subsets all pass yields every one in
    # order, and fewer rows than n give no chunk and no solve.  Each member
    # has the bits of its own inverse and solve.
    for name, A, rows, n, nonsingular in _stream_cases():
        for chunk in (1, 7, 256):
            monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", chunk)
            for b in (None, np.arange(1.0, len(A) + 1.0)):
                want, solves = _stream_by_hand(A, rows, n, b, chunk)
                assert solves == -(-math.comb(len(rows), n) // chunk)
                assert sum(map(len, want)) == nonsingular, name
                calls.clear()
                got = list(solved_subsets(A, rows, n, b))
                sizes = [len(call["mats"]) for call in calls["solve_stack"]]
                assert len(sizes) == solves and all(s <= chunk for s in sizes), (name, chunk)
                assert [[tuple(s) for s in subsets.tolist()] for subsets, _ in got] \
                    == [[s for s, _ in kept] for kept in want], (name, chunk)
                for (subsets, out), kept in zip(got, want):
                    assert out.shape == (len(subsets), n, n + (b is not None))
                    assert out.tobytes() == np.array([x for _, x in kept]).tobytes(), name


_STREAM_CONSUMERS = {
    "delta_A": (lambda: gen_random_sphere(12, 4, seed=1), delta_A, 12, 71),
    "vertex_graph": (lambda: gen_random_sphere(12, 4, seed=1), vertex_graph, 12, 9),
    "verify_vertex": (gen_degenerate_pyramid,
                      lambda inst: verify_vertex(inst, [0.0, 0.0, 1.0]), 4, 1),
}


@pytest.mark.parametrize("consumer", sorted(_STREAM_CONSUMERS))
def test_every_enumeration_runs_on_the_one_subset_stream(consumer, calls, monkeypatch):
    # At seven subsets per chunk, delta_A makes ceil(495 / 7) = 71 stacked
    # solves on the random sphere, and the apex search stops in its first
    # chunk.  vertex_graph's first chunk holds a feasible basis, and its
    # pivot search then solves 12, 10, 8, 2 and 2 new bases, level by level,
    # in 2 + 2 + 2 + 1 + 1 chunks of at most seven.  With ENUM_CAP one below
    # C(r, n), each is refused by the same cap before its first solve.
    make, run, rows, solves = _STREAM_CONSUMERS[consumer]
    inst = make()
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    calls.watch(linalg_mod, "solve_stack")
    run(inst)
    assert len(calls["solve_stack"]) == solves
    total = math.comb(rows, inst.n)
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", total - 1)
    calls.clear()
    message = f"C({rows},{inst.n}) = {total} subsets exceeds cap {total - 1}"
    with pytest.raises(CapExceeded, match=re.escape(message)):
        run(inst)
    assert calls["solve_stack"] == []


def _band_cubes():
    """A seeded sample of the tolerance band, on the n-cube [-1, 1]^n for
    n = 3, 4: one to three cuts, each eps inside a random corner, and facet
    0 repeated and tilted by eta.  Then the 5-cube cut eps inside one corner,
    as given and rotated, where C(11, 5) = 462 subsets make the search pivot
    at the default chunk: for eps in (TIGHT_TOL / sqrt(5), TIGHT_TOL] the
    corner stays a vertex, although the facet that closes it is left
    eps sqrt(5) > TIGHT_TOL of slack by the cut along every cube edge."""
    rng = np.random.default_rng(7)
    for n in (3, 4):
        eye = np.eye(n)
        rows, rhs = np.vstack([eye, -eye]), np.ones(2 * n)
        for eps in (1e-4, 1e-7, 1e-9, 8e-10, 7e-10, 3e-10, 1e-10, 1e-12):
            corners = rng.choice([-1.0, 1.0], size=(rng.integers(1, 4), n))
            yield build_instance(np.vstack([rows, corners]),
                                 np.append(rhs, [n - eps * np.sqrt(n)] * len(corners)),
                                 integral=False, name=f"cut-n{n}-eps{eps:g}")
        for eta in (1e-3, 1e-8, 1e-9, 1e-10, 1e-12):
            tilted = eye[0] + eta * rng.standard_normal(n)
            yield build_instance(np.vstack([rows, tilted]), np.append(rhs, 1.0),
                                 integral=False, name=f"tilt-n{n}-eta{eta:g}")
    eye = np.eye(5)
    for eps in (1e-9, 8e-10, 7e-10, 5e-10, 3e-10):
        cube = build_instance(np.vstack([eye, -eye, -np.ones(5)]),
                              np.append(np.ones(10), 5 - eps * np.sqrt(5)),
                              integral=False, name=f"cut-n5-eps{eps:g}")
        yield cube
        yield gen_rotated(cube, seed=5)


def _enumeration_cases():
    yield from (gen_hypercube(4), gen_simplex(5), gen_cut_cube(4), gen_degenerate_pyramid(),
                gen_rotated(gen_hypercube(6), seed=0))
    for n in range(3, 8):
        yield gen_random_sphere(3 * n, n, seed=0)
    for p, q in ((2, 3), (3, 3), (3, 4), (4, 4)):
        yield gen_transportation(p, q, seed=0)
    yield from _band_cubes()
    yield from _unbounded_cases()
    yield from _integer_draws()


def _empty_cases():
    """An infeasible cube, and a prism whose rows span two of three dimensions."""
    eye = np.eye(3)
    yield build_instance(np.vstack([eye, -eye, np.ones((1, 3))]), [1.0] * 3 + [0.0] * 3 + [-1.0],
                         name="infeasible")
    yield build_instance([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 1, 0]],
                         [1, 1, 1, 1, 1], name="rank-deficient")


def test_pivoting_search_equals_the_all_subsets_pass(monkeypatch):
    # Points bit for bit, first bases, degenerate flags, and every feasible
    # basis with its owner, at the default chunk and at chunks small enough
    # that every instance with C(m, n) > 2 pivots.
    default = linalg_mod.SUBSET_CHUNK
    degenerate = 0
    for inst in _enumeration_cases():
        monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", default)
        verts, bases, owner = vertex_classes(inst)
        want = (_bases(verts), [tuple(b) for b in bases], owner)
        assert verts, inst.name
        degenerate += any(v.degenerate for v in verts)
        for chunk in (default, 7, 2):
            monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", chunk)
            verts, bases, owner = _vertex_classes(inst)
            assert (_bases(verts), [tuple(b) for b in bases], owner) == want, (inst.name, chunk)
    assert degenerate >= 10
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", default)
    assert _vertex_classes(_split_cone())[1] == [[6, 7, 8], [6, 7, 9], [6, 8, 9], [7, 8, 9]]
    for inst in _empty_cases():
        assert vertex_classes(inst) == ([], [], [])
        for chunk in (default, 2):
            monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", chunk)
            assert _vertex_classes(inst) == ([], [], [])


def test_vertex_graph_solves_far_fewer_bases_than_subsets(calls):
    # 98 vertices, against C(15, 5) = 3,003 subsets.
    inst = gen_random_sphere(15, 5, seed=0)
    calls.watch(linalg_mod, "solve_stack")
    verts, _ = vertex_graph(inst)
    assert len(verts) == 98 and sum(len(call["mats"]) for call in calls["solve_stack"]) < 1000


def _reference_graph(inst):
    """The graph by ratio_step's rule: one ratio test along every edge
    direction of every feasible basis, and its end point matched to the
    vertex with its tight rows."""
    verts = enumerate_vertices(inst)
    index = {tight_rows(inst, v.x): i for i, v in enumerate(verts)}
    adjacency = [set() for _ in verts]
    for v in feasible_bases(inst):
        x = v.x
        dirs = -linalg_mod.inverse(inst.A[list(v.basis)])
        i = index[tight_rows(inst, x)]
        denom = inst.A @ dirs
        movers = denom > polytope_mod.DIR_TOL
        steps = np.divide(inst.slack(x)[:, None], denom,
                          out=np.full(denom.shape, np.inf), where=movers)
        for k in movers.any(axis=0).nonzero()[0].tolist():
            t = index[tight_rows(inst, x + max(steps[:, k].min(), 0.0) * dirs[:, k])]
            if t != i:
                adjacency[i].add(t)
                adjacency[t].add(i)
    return verts, adjacency


def _reference_farthest(verts, adjacency):
    """The earlier farthest pair: one search per source, first maximum wins."""
    best = (-1, 0, 0)
    for s in range(len(verts)):
        dist = hop_distances(adjacency, s)
        t = max(range(len(verts)), key=dist.__getitem__)
        if dist[t] > best[0]:
            best = (dist[t], s, t)
    return verts[best[1]].x, verts[best[2]].x


def _unbounded_cases():
    return [build_instance([[-1, 0], [0, -1]], [0, 0]),
            build_instance([[-1, 0], [0, -1], [-1, -1]], [0, 0, -1]),
            build_instance([[-1, 0], [0, -1], [1, 1], [1, -1]], [0, 0, 1, 1]),
            _split_cone()]


def _split_cone():
    """The cone x >= |y| + |z|, rows 6..9, padded with nine rows that are
    never tight, so that C(13, 3) = 286 subsets fill more than one chunk.

    Its apex has four tight rows with a_6 + a_7 = a_8 + a_9 and every edge
    is a ray.  Bases {6, 7, 8} and {6, 7, 9} lie in the first chunk and
    reach each other by min-ratio pivots; {6, 8, 9} and {7, 8, 9} lie in the
    second and are reached only by exchanges against a_j.d < 0 at the apex.
    """
    pads = [[-1.0, c, 0.0] for c in np.linspace(-0.9, 0.9, 9)]
    cone = [[-1, 1, -1], [-1, -1, 1], [-1, 1, 1], [-1, -1, -1]]
    return build_instance(pads[:6] + cone + pads[6:], [1] * 6 + [0] * 4 + [1] * 3,
                          integral=False, name="split-cone")


def _integer_draws():
    """Seeded integer rows in R^3, each with a degenerate vertex and a ray."""
    for seed in (3, 11, 18):
        rng = np.random.default_rng(seed)
        yield build_instance(rng.integers(-2, 3, size=(7, 3)),
                             rng.integers(0, 3, size=7), name=f"draw-s{seed}")


def _graph_cases():
    for n in (3, 4, 5):
        yield from (gen_hypercube(n), gen_simplex(n), gen_cut_cube(n),
                    gen_rotated(gen_hypercube(n), seed=n))
    for p, q in ((2, 3), (2, 4), (3, 3), (3, 4)):
        for seed in range(3):
            yield gen_transportation(p, q, seed)
    yield gen_transportation(4, 4, 0)
    for n in (2, 3, 4, 5, 6):
        for m in (n + 2, 3 * n):
            yield gen_random_sphere(m, n, seed=0)
    yield gen_degenerate_pyramid()
    yield from _unbounded_cases()
    yield from _integer_draws()


def _assert_graph_matches_reference(inst):
    verts, adjacency = vertex_graph(inst)
    ref_verts, ref_adjacency = _reference_graph(inst)
    assert _bases(verts) == _bases(ref_verts)
    assert adjacency == ref_adjacency
    count = len(verts)
    dist = graph_distances(adjacency, range(count))
    assert dist.tolist() == [hop_distances(adjacency, s) for s in range(count)]
    if count > 1:
        pair = _farthest_pair(verts, adjacency)
        ref_pair = _reference_farthest(verts, adjacency)
        assert [x.tobytes() for x in pair] == [x.tobytes() for x in ref_pair]


def test_stacked_graph_matches_per_basis_reference():
    for inst in _graph_cases():
        _assert_graph_matches_reference(inst)
    for inst in _integer_draws():
        inverses = np.array([linalg_mod.inverse(inst.A[list(v.basis)])
                             for v in feasible_bases(inst)])
        rays = (inst.A @ -inverses <= polytope_mod.DIR_TOL).all(axis=1)
        assert rays.any() and any(v.degenerate for v in enumerate_vertices(inst))


@pytest.mark.parametrize("make", [lambda: gen_transportation(3, 4, 0),
                                  lambda: gen_random_sphere(15, 5, seed=0),
                                  gen_degenerate_pyramid])
def test_stacked_graph_same_across_chunks_and_blocks(make, monkeypatch):
    # Seven subsets per enumeration chunk.
    inst = make()
    verts, adjacency = vertex_graph(inst)
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    _assert_graph_matches_reference(inst)
    chunked_verts, chunked_adjacency = vertex_graph(inst)
    assert _bases(chunked_verts) == _bases(verts) and chunked_adjacency == adjacency


def test_farthest_pair_tie_goes_to_first_source():
    cube = gen_hypercube(4)
    verts, adjacency = vertex_graph(cube)
    dist = graph_distances(adjacency, range(len(verts)))
    # Every vertex has exactly one vertex at the largest distance, its
    # antipode: all 16 ordered pairs tie.
    assert dist.max() == 4 and np.count_nonzero(dist == 4) == 16
    x1, x2 = farthest_vertex_pair(cube)
    assert x1.tobytes() == verts[0].x.tobytes()
    npt.assert_array_equal(x2, 1.0 - verts[0].x)


@pytest.mark.parametrize("make, count", [(lambda: gen_hypercube(6), 64),
                                         (lambda: gen_hypercube(7), 128),
                                         (lambda: gen_random_sphere(21, 7, seed=2), 792)],
                         ids=["one-word", "two-words", "thirteen-words"])
def test_distances_and_farthest_pair_across_source_words(make, count):
    # The search packs 64 sources to a word: 64 vertices fill one word, 128
    # fill two, and 792 take 13, the last one partly.
    verts, adjacency = vertex_graph(make())
    assert len(verts) == count
    dist = graph_distances(adjacency, range(count))
    assert dist.tolist() == [hop_distances(adjacency, s) for s in range(count)]
    pair = _farthest_pair(verts, adjacency)
    ref_pair = _reference_farthest(verts, adjacency)
    assert [x.tobytes() for x in pair] == [x.tobytes() for x in ref_pair]


def test_graph_distances_of_repeated_and_empty_sources(cube3):
    _, adjacency = vertex_graph(cube3)
    empty = graph_distances(adjacency, [])
    assert empty.shape == (0, 8) and empty.dtype == np.intp
    sources = [5, 0, 5] + [3] * 70
    assert graph_distances(adjacency, sources).tolist() == \
        [hop_distances(adjacency, s) for s in sources]


@pytest.mark.parametrize("source", [-1, 8])
def test_graph_distances_rejects_a_source_outside_the_graph(cube3, source):
    _, adjacency = vertex_graph(cube3)
    with pytest.raises(IndexError, match=re.escape("sources must lie in range(8)")):
        graph_distances(adjacency, [0, source])


def test_bfs_distance_disconnected(cube3, monkeypatch):
    # Keep only the cube's edges inside the faces x0 = 0 and x0 = 1.
    verts, adjacency = vertex_graph(cube3)
    split = [{j for j in nbrs if verts[j].x[0] == verts[i].x[0]}
             for i, nbrs in enumerate(adjacency)]
    monkeypatch.setattr(polytope_mod, "vertex_graph", lambda inst: (verts, split))
    assert bfs_distance(cube3, [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]) == 2
    with pytest.raises(Disconnected):
        bfs_distance(cube3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert (graph_distances(split, [0]) < 0).sum() == 4
