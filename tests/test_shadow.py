"""Shadow walks: objectives, projections, walk invariants, degeneracy route."""

import gc
import json
import weakref
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.linalg as linalg_mod
import polywalk.shadow as shadow_mod
from polywalk.cli import main
from polywalk.errors import (
    DegenerateVertex,
    Infeasible,
    NotAVertex,
    PerturbationFailed,
    RetriesExhausted,
    TooShort,
    VerticalEdge,
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
    write_instance,
)
from polywalk.polytope import (
    POINT_TOL,
    TIGHT_TOL,
    VertexWithBasis,
    build_instance,
    enumerate_vertices,
    feasible_subsets,
    perturb,
    ratio_step,
    tight_rows,
    verify_vertex,
)
from polywalk.shadow import (
    SLOPE_TOL,
    ObjectivePair,
    ShadowPath,
    default_max_steps,
    find_path,
    project,
    sample_objectives,
    slope,
    slope_gap,
    walk,
)


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


def test_sample_objectives_rejects_degenerate(pyramid):
    apex = verify_vertex(pyramid, [0.0, 0.0, 1.0])
    base = verify_vertex(pyramid, [1.0, 1.0, 0.0])
    with pytest.raises(DegenerateVertex):
        sample_objectives(pyramid, base, apex, 0)


def test_project_and_slope_hand_values():
    pair = ObjectivePair(lam=np.ones(2), mu=np.ones(2),
                         w1=np.array([1.0, 0.0]), w2=np.array([0.0, 1.0]),
                         u_rows=(0, 1), v_rows=(2, 3), seed=0)
    assert project(pair, [3.0, 4.0]) == (3.0, 4.0)
    npt.assert_allclose(slope(pair, [0.0, 0.0], [1.0, 2.0]), 2.0, atol=1e-15)
    with pytest.raises(VerticalEdge):
        slope(pair, [0.0, 0.0], [0.0, 1.0])


def test_default_max_steps(cube3):
    assert default_max_steps(cube3) == 10 * 20


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
            for a, c in zip(path.vertices, path.vertices[1:]):
                assert len(set(a.basis) & set(c.basis)) == n - 1
            assert all(s > 0 for s in path.slopes)
            assert all(s1 - s2 > 0 for s1, s2 in zip(path.slopes, path.slopes[1:]))


def _reference_objectives(inst, v1, v2, seed):
    """The objective draw as first written: one normalize call per basis row."""
    rng = np.random.default_rng(seed)
    lam = 1.0 - rng.random(inst.n)
    mu = 1.0 - rng.random(inst.n)
    u_cols = np.column_stack([linalg_mod.normalize(inst.A[i]) for i in v1.basis])
    v_cols = np.column_stack([linalg_mod.normalize(inst.A[i]) for i in v2.basis])
    return ObjectivePair(lam=lam, mu=mu, w1=-(u_cols @ lam), w2=v_cols @ mu,
                         u_rows=v1.basis, v_rows=v2.basis, seed=seed)


def _reference_walk(inst, start, target, pair):
    """The pivot loop as first written, the byte reference for :func:`walk`.

    Every pivot lists the basis inverse's negated columns as (row, d) pairs,
    restacks them for the edge choice, and solves the new basis afresh.
    """
    current, vertices, slopes, trace = start, [start], [], []
    projections = [project(pair, start.x)]
    for _ in range(default_max_steps(inst)):
        if set(current.basis) == set(target.basis) or \
                float(np.max(np.abs(current.x - target.x))) <= POINT_TOL:
            return vertices, slopes, projections, trace
        basis_inv = linalg_mod.inverse(inst.A[list(current.basis)])
        directions = [(row, -basis_inv[:, k]) for k, row in enumerate(current.basis)]
        stacked = np.array([d for _, d in directions])
        rises, runs = stacked @ pair.w2, stacked @ pair.w1
        candidates = np.flatnonzero(rises > SLOPE_TOL)
        edge_slopes = rises[candidates] / runs[candidates]
        best = int(np.argmax(edge_slopes))
        leaving, d = directions[int(candidates[best])]
        entering, step = ratio_step(inst, current, d)
        new_basis = tuple(sorted(set(current.basis) - {leaving} | {entering}))
        x_new = linalg_mod.solve(inst.A[list(new_basis)], inst.b[list(new_basis)])
        assert float(np.min(inst.slack(x_new))) >= -TIGHT_TOL
        current = VertexWithBasis(x=x_new, basis=new_basis)
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


def test_walk_matches_reference_on_perturbed_transportation():
    inst = gen_transportation(3, 3, 0)
    v1, v2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
    assert v1.degenerate or v2.degenerate
    perturbed, _ = perturb(inst, shadow_mod._default_magnitude(inst, v1, v2), 0)
    r1 = shadow_mod._representative(perturbed, inst, v1)
    r2 = shadow_mod._representative(perturbed, inst, v2)
    _assert_walk_matches_reference(perturbed, r1, r2, 0)


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


def _assert_chain_supports_cloud(inst, path):
    """Every walked edge's line must support the whole projected vertex set
    from above: that is what makes the walk the upper-left chain."""
    pair = path.objective
    pts = [project(pair, v.x) for v in enumerate_vertices(inst)]
    for (xi0, eta0), s in zip(path.projections, path.slopes):
        level = eta0 - s * xi0
        for xq, yq in pts:
            assert yq - s * xq <= level + 1e-9


def test_walk_simplex_follows_upper_left_chain():
    inst = gen_simplex(3)
    # Seed 1 is a draw where the walk legitimately visits an intermediate
    # vertex even though the endpoints are adjacent.
    path = find_path(inst, inst.x1, inst.x2, seed=1)
    assert path.length == 2
    _assert_chain_supports_cloud(inst, path)
    path = find_path(inst, inst.x1, inst.x2, seed=0)
    assert path.length == 1
    _assert_chain_supports_cloud(inst, path)


def test_walk_sphere_follows_upper_left_chain():
    inst = gen_random_sphere(9, 3, seed=0)
    for seed in range(6):
        path = find_path(inst, inst.x1, inst.x2, seed=seed)
        assert path.status == "Completed"
        _assert_chain_supports_cloud(inst, path)
        # The projected chain is concave: increasing xi, decreasing slopes.
        xs = [xi for xi, _ in path.projections]
        assert all(b - a > 0 for a, b in zip(xs, xs[1:]))


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


def test_find_path_pyramid_degeneracy(pyramid):
    path = find_path(pyramid, [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], seed=0)
    assert path.status == "Perturbed+Completed"
    assert path.perturbation is not None and path.perturbation.magnitude > 0
    npt.assert_allclose(path.vertices[-1].x, [0.0, 0.0, 1.0], atol=1e-7)
    for v in path.vertices:
        assert float(np.min(pyramid.slack(v.x))) >= -1e-7
    for a, c in zip(path.vertices, path.vertices[1:]):
        assert float(np.max(np.abs(a.x - c.x))) > 1e-7  # no duplicates
        shared = set(tight_rows(pyramid, a.x)) & set(tight_rows(pyramid, c.x))
        assert len(shared) >= pyramid.n - 1  # consecutive points share an edge
    assert all(s1 - s2 > 0 for s1, s2 in zip(path.slopes, path.slopes[1:]))


def test_find_path_representative_ties_go_to_first_subset():
    # At x1 of transportation-p3q4-s0 seven rows are tight.  On the polytope
    # perturbed for path seed 25, the bases (0,3,5,6,10,11) and
    # (1,3,5,6,10,11) lie at the same distance from x1; the first in
    # combinations order must win, whatever the rounding noise.
    inst = generate(GeneratorSpec(family="transportation", n=3, m=4, seed=0))
    assert len(tight_rows(inst, inst.x1)) == 7
    path = find_path(inst, inst.x1, inst.x2, seed=25)
    assert path.status == "Perturbed+Completed" and path.retries == 0
    assert path.vertices[0].basis == (0, 3, 5, 6, 10, 11)


def test_representative_breaks_near_ties_by_subset_order():
    # At the origin rows 0, 1 and 2 are tight.  Pushed out by p, q and r
    # with r*sqrt(2) = p + q - d, the degenerate vertex splits into the
    # points of bases (0, 2) and (1, 2), at max-norm distances p and q from
    # the origin.  q is smaller by a relative 1e-12, within DIST_TIE_RTOL,
    # so the first basis in combinations order stands for the vertex.
    from polywalk.polytope import build_instance
    rows = [[-1.0, 0.0], [0.0, -1.0], [-np.sqrt(0.5), -np.sqrt(0.5)],
            [1.0, 0.0], [0.0, 1.0]]
    original = build_instance(rows, [0.0, 0.0, 0.0, 1.0, 1.0])
    p, d = 1e-5, 1e-6
    q = p * (1.0 - 1e-12)
    perturbed = build_instance(rows, [p, q, (p + q - d) * np.sqrt(0.5), 1.0, 1.0])
    origin = verify_vertex(original, [0.0, 0.0])
    assert origin.degenerate
    rep = shadow_mod._representative(perturbed, original, origin)
    assert rep.basis == (0, 2)
    npt.assert_allclose(rep.x, [-p, d - q], rtol=0, atol=1e-15)


def test_slope_gap_values():
    path = ShadowPath(vertices=(), slopes=(3.0, 2.0, 0.5), projections=(),
                      pivot_trace=(), status="Completed", seed=0)
    diag = slope_gap(path)
    npt.assert_allclose(diag.min_gap, 1.0, atol=1e-15)
    assert diag.attained_at == (0, 1)


def test_slope_gap_too_short(cube3):
    single = ShadowPath(vertices=(), slopes=(1.0,), projections=(),
                        pivot_trace=(), status="Completed", seed=0)
    with pytest.raises(TooShort):
        slope_gap(single)


def test_find_path_retries_exhausted(cube3, monkeypatch):
    def always_vertical(*args, **kwargs):
        raise VerticalEdge("forced by test")

    monkeypatch.setattr(shadow_mod, "walk", always_vertical)
    with pytest.raises(RetriesExhausted) as info:
        shadow_mod.find_path(cube3, cube3.x1, cube3.x2, seed=0)
    exc = info.value
    assert exc.reasons == ["VerticalEdge"] * 16
    assert exc.path is not None
    assert exc.path.status.startswith("Failed(VerticalEdge")
    assert exc.path.length == 0


def _reference_representative(perturbed, original, v):
    """The earlier route: pick the nearest point, then re-verify it.

    ``verify_vertex`` chooses the basis by its one-row-at-a-time rank loop;
    the point must be non-degenerate and its loose rows cleanly separated.
    A point that is not a vertex of the perturbed polytope is a failed
    perturbation.
    """
    _, out, _ = feasible_subsets(perturbed, tight_rows(original, v.x))
    best = None
    for dist, x in zip(np.abs(out[:, :, -1] - v.x).max(axis=1).tolist(), out[:, :, -1]):
        if best is None or dist < best[0] * (1.0 - shadow_mod.DIST_TIE_RTOL):
            best = (dist, x)
    if best is None:
        raise PerturbationFailed("no feasible basis")
    try:
        rep = verify_vertex(perturbed, best[1])
    except (NotAVertex, Infeasible) as exc:
        raise PerturbationFailed(str(exc)) from exc
    if rep.degenerate:
        raise PerturbationFailed("still degenerate")
    loose = np.delete(perturbed.slack(rep.x), list(rep.basis))
    if loose.size and float(np.min(loose)) <= 10.0 * TIGHT_TOL:
        raise PerturbationFailed("not separated")
    return rep


def _same_representative(perturbed, original, v):
    try:
        expected = _reference_representative(perturbed, original, v)
    except PerturbationFailed:
        with pytest.raises(PerturbationFailed):
            shadow_mod._representative(perturbed, original, v)
        return False
    rep = shadow_mod._representative(perturbed, original, v)
    assert rep.x.tobytes() == expected.x.tobytes()
    assert rep.basis == expected.basis
    assert not rep.degenerate and not expected.degenerate
    assert not rep.x.flags.writeable
    return True


def _degenerate_family():
    insts = [gen_transportation(p, q, s)
             for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)) for s in range(3)]
    return insts + [gen_degenerate_pyramid()]


def test_representative_matches_verify_vertex_route():
    # The default magnitude, and two that leave the perturbed polytope
    # degenerate (below TIGHT_TOL) or its slacks unseparated, so both the
    # accepted points and the refusals are compared.
    found = refused = 0
    for inst in _degenerate_family():
        v1, v2 = verify_vertex(inst, inst.x1), verify_vertex(inst, inst.x2)
        default = shadow_mod._default_magnitude(inst, v1, v2)
        for magnitude in (default, 1e-12, 5e-9):
            for seed in range(20):
                perturbed, _ = perturb(inst, magnitude, seed)
                for v in (v1, v2):
                    if _same_representative(perturbed, inst, v):
                        found += 1
                    else:
                        refused += 1
    assert found > 1000 and refused > 400


def test_representative_refuses_a_tight_set_other_than_the_subset(pyramid):
    # Unperturbed, the apex keeps its four tight rows: a superset of the
    # chosen basis.
    apex = verify_vertex(pyramid, pyramid.x2)
    _same_representative(pyramid, pyramid, apex)
    with pytest.raises(PerturbationFailed, match="degenerate"):
        shadow_mod._representative(pyramid, pyramid, apex)

    # An ill-conditioned but full-rank basis whose solved point leaves one
    # of its own rows slack by more than TIGHT_TOL: a subset of the basis.
    rng = np.random.default_rng(1)
    for _ in range(200):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rows = u @ np.diag([1.0, 1.0, 1.0, 10.0 ** -rng.uniform(5, 8.5)]) @ w
        perturbed = build_instance(rows, rng.standard_normal(4), integral=False)
        _, out, _ = feasible_subsets(perturbed, range(4))
        if len(out) and np.count_nonzero(
                np.abs(perturbed.slack(out[0, :, -1])) <= TIGHT_TOL) < 4:
            break
    else:
        pytest.fail("no ill-conditioned basis found")
    assert linalg_mod.rank(perturbed.A) == 4
    original = build_instance(rows, np.zeros(4), integral=False)
    corner = VertexWithBasis(x=np.zeros(4), basis=(0, 1, 2, 3))
    _same_representative(perturbed, original, corner)
    with pytest.raises(PerturbationFailed, match="not its basis"):
        shadow_mod._representative(perturbed, original, corner)

    # Exactly the basis rows are tight, but their singular values span more
    # than 1/RANK_TOL while the inverse stays below 1/PIVOT_TOL: the one rank
    # test refuses what verify_vertex's loop refuses.
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    w, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rows = np.vstack([u @ np.diag([1.0, 1.0, 1.0, 1e-11]) @ w, np.eye(4)])
    b = np.concatenate([np.zeros(4), np.ones(4)])
    perturbed = build_instance(rows, b, integral=False)
    original = build_instance(rows[:4], np.zeros(4), integral=False)
    assert linalg_mod.rank(perturbed.A[:4]) == 3
    assert len(feasible_subsets(perturbed, range(4))[0]) == 1
    _same_representative(perturbed, original, corner)
    with pytest.raises(PerturbationFailed, match="dependent"):
        shadow_mod._representative(perturbed, original, corner)


def _pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    write_instance(gen_degenerate_pyramid(), path)
    return path


def test_representative_off_the_vertex_is_retried(pyramid, monkeypatch, tmp_path, capsys):
    # Every representative point is pulled slightly into the interior, so it
    # is no vertex at all: each attempt fails and is recorded.
    stacked = shadow_mod.feasible_subsets

    def inside(inst, rows):
        subsets, out, degenerate = stacked(inst, rows)
        out = out.copy()
        out[:, :, -1] += 0.01 * (np.array([0.0, 0.0, 0.25]) - out[:, :, -1])
        return subsets, out, degenerate

    monkeypatch.setattr(shadow_mod, "feasible_subsets", inside)
    with pytest.raises(RetriesExhausted) as info:
        find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    assert info.value.reasons == ["PerturbationFailed"] * shadow_mod.MAX_ATTEMPTS
    out_json = tmp_path / "failed.json"
    assert main(["path", "--instance", str(_pyramid_file(tmp_path)), "--seed", "0",
                 "--json", str(out_json)]) == 2
    assert "status=Failed(PerturbationFailed;" in capsys.readouterr().out
    assert json.loads(out_json.read_text())["status"].startswith("Failed(PerturbationFailed")


def test_unmappable_collapse_is_retried(pyramid, monkeypatch, tmp_path, capsys):
    # The walk's last vertex comes back with a repeated basis row, which is
    # singular on the original rows.
    real_walk = shadow_mod.walk

    def repeated_row(inst, start, target, pair):
        path = real_walk(inst, start, target, pair)
        last = path.vertices[-1]
        broken = VertexWithBasis(x=last.x, basis=(last.basis[0],) * inst.n)
        return ShadowPath(vertices=path.vertices[:-1] + (broken,), slopes=path.slopes,
                          projections=path.projections, pivot_trace=path.pivot_trace,
                          status=path.status, seed=path.seed, objective=path.objective)

    monkeypatch.setattr(shadow_mod, "walk", repeated_row)
    with pytest.raises(RetriesExhausted) as info:
        find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    # Each mapping failure shrinks the magnitude, until the perturbation no
    # longer separates the tight rows; every attempt is recorded.
    reasons = info.value.reasons
    assert len(reasons) == shadow_mod.MAX_ATTEMPTS and reasons[0] == "MappingFailed"
    assert set(reasons) == {"MappingFailed", "PerturbationFailed"}
    assert main(["path", "--instance", str(_pyramid_file(tmp_path)), "--seed", "0"]) == 2
    assert "status=Failed(MappingFailed;" in capsys.readouterr().out


# -- the per-instance endpoint memo of find_path ------------------------------

_MEMO_FAMILIES = {
    "hypercube": lambda: gen_hypercube(4),
    "simplex": lambda: gen_simplex(4),
    "random-sphere": lambda: gen_random_sphere(9, 3, seed=0),
    "transportation": lambda: gen_transportation(3, 4, 0),
    "pyramid": gen_degenerate_pyramid,
}


def _counted(monkeypatch, *targets):
    """Count the calls of each (module, name) in targets, still running them."""
    counts = Counter()
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _key=f"{module.__name__}.{name}", **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("family", sorted(_MEMO_FAMILIES))
def test_repeated_find_path_skips_verification(family, monkeypatch):
    make = _MEMO_FAMILIES[family]
    inst = make()
    counts = _counted(monkeypatch, (shadow_mod, "verify_vertex"))
    first = find_path(inst, inst.x1, inst.x2, seed=0)
    assert counts["polywalk.shadow.verify_vertex"] == 2
    if family == "transportation":
        assert first.perturbation is not None
    for seed in (0, 1, 7):
        again = find_path(inst, inst.x1, inst.x2, seed=seed).to_json()
        assert again == find_path(make(), inst.x1, inst.x2, seed=seed).to_json()
    # Each fresh instance verifies once; the repeated calls on inst never do.
    assert counts["polywalk.shadow.verify_vertex"] == 2 + 2 * 3


def test_endpoint_memo_list_and_array_agree(monkeypatch):
    inst = gen_transportation(3, 4, 0)
    counts = _counted(monkeypatch, (shadow_mod, "verify_vertex"))
    from_arrays = find_path(inst, inst.x1, inst.x2, seed=3).to_json()
    from_lists = find_path(inst, inst.x1.tolist(), inst.x2.tolist(), seed=3).to_json()
    assert from_lists == from_arrays
    assert counts["polywalk.shadow.verify_vertex"] == 2
    fresh = gen_transportation(3, 4, 0)
    assert find_path(fresh, fresh.x1.tolist(), fresh.x2.tolist(), seed=3).to_json() \
        == from_arrays


def test_endpoint_memo_holds_the_last_pair_only(monkeypatch):
    inst = gen_hypercube(3)
    points = [v.x for v in enumerate_vertices(inst)]
    counts = _counted(monkeypatch, (shadow_mod, "verify_vertex"))
    pairs = [(points[0], points[-1]), (points[1], points[2]), (points[3], points[0]),
             (points[0], points[-1])]
    for k, (x1, x2) in enumerate(pairs, start=1):
        path = find_path(inst, x1, x2, seed=k)
        npt.assert_array_equal(path.vertices[0].x, x1)
        npt.assert_array_equal(path.vertices[-1].x, x2)
        # A new pair is verified and replaces the one slot; the first pair,
        # walked again after others, is verified again.
        assert counts["polywalk.shadow.verify_vertex"] == 2 * k
        key, ends = inst._endpoint_memo
        assert key == (x1.tobytes(), x2.tobytes())
        npt.assert_array_equal(ends.v1.x, x1)


@pytest.mark.parametrize("bad, error", [([0.5, 0.0, 0.0], NotAVertex),
                                        ([2.0, 0.0, 0.0], Infeasible),
                                        ([np.nan, 0.0, 0.0], ValueError)])
def test_failed_verification_is_never_kept(bad, error, monkeypatch):
    inst = gen_hypercube(3)
    find_path(inst, inst.x1, inst.x2, seed=0)
    memo = inst._endpoint_memo
    counts = _counted(monkeypatch, (shadow_mod, "verify_vertex"))
    for _ in range(2):
        with pytest.raises(error):
            find_path(inst, inst.x1, bad, seed=0)
        with pytest.raises(error):
            find_path(inst, bad, inst.x2, seed=0)
        assert inst._endpoint_memo is memo
    # A non-finite point fails while its key is taken, before any check.
    expected = 0 if error is ValueError else 6
    assert counts["polywalk.shadow.verify_vertex"] == expected
    find_path(inst, inst.x1, inst.x2, seed=1)
    assert counts["polywalk.shadow.verify_vertex"] == expected


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


def test_first_call_counts_unchanged_and_repeat_skips_verification(monkeypatch):
    # The counts the benchmark's tracer pins for a fresh hypercube-10 walk.
    cube = gen_hypercube(10)
    counts = _counted(monkeypatch, (shadow_mod, "verify_vertex"), (linalg_mod, "rank"),
                      (linalg_mod, "inverse"), (linalg_mod, "solve"),
                      (shadow_mod, "ratio_step"), (shadow_mod, "edge_directions"))
    walk_calls = {"polywalk.linalg.inverse": 10, "polywalk.linalg.solve": 10,
                  "polywalk.shadow.ratio_step": 10, "polywalk.shadow.edge_directions": 10}
    find_path(cube, cube.x1, cube.x2, seed=0)
    assert counts == {"polywalk.shadow.verify_vertex": 2, "polywalk.linalg.rank": 20,
                      **walk_calls}
    counts.clear()
    find_path(cube, cube.x1, cube.x2, seed=0)
    assert counts == walk_calls
