"""Instance generators and the JSON file format."""

import functools
import json
import operator
import sys

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.instances as instances_mod
from polywalk.errors import (
    InfeasibleTotals,
    NonIntegerEntry,
    ParseError,
    PolywalkError,
    SchemaError,
    UnboundedSample,
)
from polywalk.flatness import subdet_report
from polywalk.instances import (
    FAMILIES,
    GeneratorSpec,
    _clean_draw,
    farthest_vertex_pair,
    gen_cut_cube,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_random_sphere,
    gen_rotated,
    gen_simplex,
    gen_transportation,
    generate,
    read_instance,
    write_instance,
    write_text,
)
from polywalk.polytope import (
    bfs_distance,
    build_instance,
    edge_directions,
    enumerate_vertices,
    ratio_step,
    tight_rows,
    verify_vertex,
    vertex_graph,
)

from reference import hop_distances, northwest_corner


def test_hypercube_shape(cube3):
    assert (cube3.m, cube3.n) == (6, 3)
    assert cube3.integral
    npt.assert_array_equal(cube3.raw_A, np.vstack([np.eye(3), -np.eye(3)]))
    verify_vertex(cube3, cube3.x1)
    verify_vertex(cube3, cube3.x2)


def test_simplex_shape(simplex3):
    assert (simplex3.m, simplex3.n) == (4, 3)
    assert simplex3.integral
    verify_vertex(simplex3, simplex3.x1)
    verify_vertex(simplex3, simplex3.x2)


def test_cut_cube_shape(cut_cube3):
    assert (cut_cube3.m, cut_cube3.n) == (7, 3)
    # The slice keeps (1,1,0.5) a vertex and removes (1,1,1).
    verify_vertex(cut_cube3, cut_cube3.x2)
    pts = [tuple(np.round(v.x, 9)) for v in enumerate_vertices(cut_cube3)]
    assert (1.0, 1.0, 1.0) not in pts


def test_transportation_structure():
    inst = gen_transportation(2, 3, seed=0)
    assert (inst.m, inst.n) == (6, 2)  # p*q rows over (p-1)(q-1) free cells
    assert inst.integral
    entries = {v for row in inst.int_A for v in row}
    assert entries <= {-1, 0, 1}
    assert subdet_report(inst.int_A).Delta == 1  # reduced system stays TU
    verify_vertex(inst, inst.x1)
    verify_vertex(inst, inst.x2)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_transportation_rows_are_the_cells_of_a_plan(p, q):
    # Row by row, b - A x is the free cells x, then the last column, the last
    # row and the corner of the plan whose free cells are x.
    n = (p - 1) * (q - 1)
    for seed in range(3):
        inst = gen_transportation(p, q, seed)
        b = inst.raw_b.astype(int)
        supplies, demands, corner = b[n:n + p - 1], b[n + p - 1:-1], b[-1]
        supplies = [*supplies, demands.sum() + corner]
        demands = [*demands, corner + sum(supplies[:-1])]
        assert sum(supplies) == sum(demands)
        plan = northwest_corner(supplies, demands)
        assert np.array_equal(plan.sum(axis=1), supplies)
        assert np.array_equal(plan.sum(axis=0), demands)
        cells = np.concatenate([plan[:-1, :-1].ravel(), plan[:-1, -1], plan[-1, :-1],
                                plan[-1:, -1]])
        npt.assert_array_equal(inst.raw_b - inst.raw_A @ plan[:-1, :-1].ravel(), cells)


@pytest.mark.parametrize("p, q", [(2, 11), (11, 2), (3, 16)])
def test_transportation_shape_that_never_balances(p, q):
    with pytest.raises(InfeasibleTotals, match=f"a {p}x{q} transportation polytope "
                                                "never balances"):
        gen_transportation(p, q, 0)


def test_transportation_totals_unmatched_within_the_draw_limit():
    # (2, 8) passes the shape check, but seed 0 never balances its totals.
    with pytest.raises(InfeasibleTotals, match="no matching totals in"):
        gen_transportation(2, 8, 0)


def test_transportation_determinism():
    a = gen_transportation(3, 3, seed=7)
    b = gen_transportation(3, 3, seed=7)
    npt.assert_array_equal(a.raw_b, b.raw_b)
    c = gen_transportation(3, 3, seed=8)
    assert not np.array_equal(a.raw_b, c.raw_b)


def test_random_sphere_clean():
    inst = gen_random_sphere(9, 3, seed=0)
    assert (inst.m, inst.n) == (9, 3)
    assert not inst.integral
    verts = enumerate_vertices(inst)
    assert len(verts) >= 2
    assert not any(v.degenerate for v in verts)
    npt.assert_allclose(np.linalg.norm(inst.raw_A, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_sphere_simple_bounded_and_farthest(n):
    for m in (n + 2, 3 * n):
        for seed in range(3):
            inst = gen_random_sphere(m, n, seed)
            verts, adjacency = vertex_graph(inst)
            for v in verts:
                assert len(tight_rows(inst, v.x)) == n
                slack = inst.slack(v.x)
                for _, d in zip(v.basis, edge_directions(inst, v)):
                    ratio_step(inst, slack, d)  # raises Unbounded on a ray
            x1, x2 = farthest_vertex_pair(inst)
            assert x1.tobytes() == inst.x1.tobytes() and x2.tobytes() == inst.x2.tobytes()
            dist = np.array([hop_distances(adjacency, s) for s in range(len(verts))])
            assert (dist >= 0).all(), "vertex graph is disconnected"
            points = np.array([v.x for v in verts])
            pair = [int(np.flatnonzero((points == x).all(axis=1))[0]) for x in (x1, x2)]
            assert bfs_distance(inst, x1, x2) == dist.max()
            assert pair == np.argwhere(dist == dist.max())[0].tolist()


@pytest.mark.parametrize("make, kept", [
    (gen_degenerate_pyramid, False),
    (lambda: gen_hypercube(3), True),
    # A wedge has one vertex and no bounded edge.
    (lambda: build_instance([[-1, 0], [0, -1]], [0, 0]), False),
    # Two vertices joined by one edge; each also starts an unbounded ray.
    (lambda: build_instance([[-1, 0], [0, -1], [-1, -1]], [0, 0, -1]), False),
    # A triangle with a redundant row tight at (1, 0): every vertex has two
    # neighbours, so only the degeneracy clause rejects it.
    (lambda: build_instance([[-1, 0], [0, -1], [1, 1], [1, -1]], [0, 0, 1, 1]), False),
], ids=["pyramid", "hypercube3", "one-vertex", "unbounded", "redundant-row"])
def test_clean_draw_rule(make, kept):
    inst = make()
    verts, adjacency = vertex_graph(inst)
    assert _clean_draw(verts, adjacency, inst.n) is kept


def test_random_sphere_redraws_up_to_its_limit(monkeypatch):
    # Three lines in the plane bound a triangle only when their normals
    # surround the origin; most seeds' first draw does not, and is redrawn.
    monkeypatch.setattr(instances_mod, "_SPHERE_RESAMPLE_LIMIT", 1)
    refused = []
    for seed in range(10):
        try:
            gen_random_sphere(3, 2, seed)
        except UnboundedSample as exc:
            assert str(exc) == "no bounded non-degenerate draw in 1 attempts"
            refused.append(seed)
    assert refused == [1, 2, 3, 4, 6, 7, 8]
    monkeypatch.undo()
    inst = gen_random_sphere(3, 2, 1)
    assert inst.name == "sphere-m3-n2-s1" and len(vertex_graph(inst)[0]) == 3


def test_random_sphere_redraws_a_zero_row(monkeypatch, tmp_path):
    # A row of norm at most 1e-12 cannot be normalised, so its draw is
    # redrawn.  The patched generator yields one such draw first, made apart
    # from the seed's stream, so the redraws are the unpatched draws.
    real = np.random.default_rng
    draws = []

    class ZeroRowFirst:
        def __init__(self, seed):
            self.seed, self.rng = seed, real(seed)

        def standard_normal(self, shape):
            if draws:
                rows = self.rng.standard_normal(shape)
            else:
                rows = real(self.seed).standard_normal(shape)
                rows[1] = 0.0
            draws.append(rows)
            return rows

    monkeypatch.setattr(np.random, "default_rng", ZeroRowFirst)
    write_instance(gen_random_sphere(9, 3, 0), tmp_path / "redrawn.json")
    monkeypatch.undo()
    assert len(draws) >= 2 and not draws[0][1].any() and draws[1][1].any()
    write_instance(gen_random_sphere(9, 3, 0), tmp_path / "unpatched.json")
    assert (tmp_path / "redrawn.json").read_bytes() == (tmp_path / "unpatched.json").read_bytes()


def test_random_sphere_determinism():
    a = gen_random_sphere(12, 4, seed=3)
    b = gen_random_sphere(12, 4, seed=3)
    npt.assert_array_equal(a.raw_A, b.raw_A)


def test_rotated_instance(cube3):
    rot = gen_rotated(cube3, seed=5)
    assert not rot.integral
    assert rot.name.startswith("rotated-")
    verify_vertex(rot, rot.x1)
    verify_vertex(rot, rot.x2)


def test_pyramid_fixture():
    inst = gen_degenerate_pyramid()
    apex = verify_vertex(inst, inst.x2)
    assert apex.degenerate
    assert len(enumerate_vertices(inst)) == 5


def test_farthest_vertex_pair(cube3):
    a, b = farthest_vertex_pair(cube3)
    assert bfs_distance(cube3, a, b) == 3
    # A wedge has one vertex: no pair.
    with pytest.raises(ValueError, match="^need at least two vertices for an endpoint pair$"):
        farthest_vertex_pair(build_instance([[-1, 0], [0, -1]], [0, 0]))


def test_generate_dispatch():
    cube = generate(GeneratorSpec(family="hypercube", n=4))
    assert cube.m == 8
    sphere = generate(GeneratorSpec(family="random-sphere", n=3, seed=1))
    assert sphere.m == 9  # m defaults to 3n
    rotated = generate(GeneratorSpec(family="rotated", n=3, seed=2))
    assert rotated.name.startswith("rotated-")
    with pytest.raises(ValueError):
        generate(GeneratorSpec(family="dodecahedron", n=3))


# Each family's generator called directly: n, the m to pass, and the call.
_DIRECT = {
    "hypercube": (3, 5, lambda m, seed: gen_hypercube(3)),
    "simplex": (3, 5, lambda m, seed: gen_simplex(3)),
    "cut-cube": (3, 5, lambda m, seed: gen_cut_cube(3)),
    "random-sphere": (3, 7, lambda m, seed: gen_random_sphere(m or 9, 3, seed)),
    "transportation": (2, 3, lambda m, seed: gen_transportation(2, m or 2, seed)),
    "rotated": (3, 5, lambda m, seed: gen_rotated(gen_hypercube(3), seed)),
}


@pytest.mark.parametrize("family", sorted(_DIRECT))
def test_generate_writes_what_the_generator_writes(family, tmp_path):
    assert set(FAMILIES) == set(_DIRECT)
    n, m_given, direct = _DIRECT[family]
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    for m in (None, m_given):
        write_instance(direct(m, 1), want)
        for spelled in (family, family.upper()):
            write_instance(generate(GeneratorSpec(family=spelled, n=n, m=m, seed=1)), got)
            assert got.read_text() == want.read_text()


def test_write_read_round_trip(tmp_path, cube3):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_instance(cube3, first)
    loaded = read_instance(first)
    write_instance(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.name == cube3.name and loaded.integral
    npt.assert_array_equal(loaded.raw_A, cube3.raw_A)
    npt.assert_array_equal(loaded.x2, cube3.x2)


def test_build_instance_keeps_copies_of_the_callers_arrays(tmp_path):
    # The instance keeps frozen copies: the caller's float64 arrays stay
    # writable, and a later write into them changes neither the instance nor
    # the file written from it.
    A = np.array([[1.5, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b, x1 = np.array([1.5, 1.0, 0.0, 0.0]), np.array([1.0, 1.0])
    inst = build_instance(A, b, x1=x1, x2=np.zeros(2))
    assert not inst.integral
    kept = [a.tobytes() for a in (inst.A, inst.b, inst.raw_A, inst.raw_b, inst.x1)]
    write_instance(inst, tmp_path / "before.json")
    for mine, its in ((A, inst.raw_A), (b, inst.raw_b), (x1, inst.x1)):
        assert mine.flags.writeable and not np.shares_memory(mine, its)
        mine[0] = 7.0
    assert [a.tobytes() for a in (inst.A, inst.b, inst.raw_A, inst.raw_b, inst.x1)] == kept
    write_instance(inst, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    # A sampled family's endpoints hold their own points, not views into the
    # enumeration's whole point array.
    for sampled in (gen_transportation(3, 4, 0), gen_random_sphere(15, 5, 0)):
        for x in (sampled.x1, sampled.x2):
            assert x.base.size == sampled.n


def test_write_text_rewrites_in_place(tmp_path):
    path = tmp_path / "out.json"
    write_text(path, "a longer first text\n")
    assert path.read_text() == "a longer first text\n"
    inode = path.stat().st_ino
    # A shorter rewrite leaves no tail of the old text, and the same file.
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    assert path.stat().st_ino == inode
    write_text(path, "")
    assert path.read_bytes() == b""


def test_integral_entries_stay_exact_or_are_rejected(tmp_path):
    rows = [[2**53 - 1, 0], [0, 1], [-1, 0], [0, -1]]
    path = tmp_path / "wide.json"
    write_instance(build_instance(rows, np.ones(4)), path)
    assert read_instance(path).int_A[0][0] == 2**53 - 1
    # 2**53 + 1 has no float64; it used to be stored silently as 2**53.
    rows[0][0] = 2**53 + 1
    with pytest.raises(ValueError, match="2\\*\\*53"):
        build_instance(rows, np.ones(4))
    data = json.loads(path.read_text())
    data["A"][0][0] = 2**53 + 1
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        read_instance(path)
    # A non-integer entry used to be rounded, and the row norm taken before.
    with pytest.raises(NonIntegerEntry):
        build_instance([[0.5, 0], [0, 1], [-1, 0], [0, -1]], np.ones(4), integral=True)


def test_read_rejects_nan(tmp_path, cube3):
    path = tmp_path / "bad.json"
    write_instance(cube3, path)
    path.write_text(path.read_text().replace("0.0", "NaN", 1))
    with pytest.raises(ParseError):
        read_instance(path)


@pytest.mark.parametrize("number", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"],
                         ids=["int", "negative-int", "float"])
@pytest.mark.parametrize("field", ["A", "b"])
def test_read_rejects_numbers_beyond_the_float_range(tmp_path, cube3, field, number):
    # An integer literal too large for a float is as non-finite as 1e400.
    path = tmp_path / "huge.json"
    write_instance(cube3, path)
    data = json.loads(path.read_text())
    row = data["A"][0] if field == "A" else data["b"]
    row[0] = "HUGE"
    path.write_text(json.dumps(data).replace('"HUGE"', number))
    with pytest.raises(ParseError, match=f"{field}.* contains a non-finite number"):
        read_instance(path)


_HUGE_INT = str(int(sys.float_info.max) + 1)


def _edit(*keys, value):
    def edit(data):
        functools.reduce(operator.getitem, keys[:-1], data)[keys[-1]] = value
    return edit


def _bool_after_fraction(data):
    data["A"][1][0] = 0.5
    data["A"][3][2] = True


@pytest.mark.parametrize("edit, literal, error, message", [
    (_edit("A", 1, 2, value=True), None, SchemaError, "A[1] contains a non-number: True"),
    (_edit("b", 4, value="x"), None, SchemaError, "b contains a non-number: 'x'"),
    (_edit("A", 2, 0, value=0.5), None, SchemaError,
     "A[2] must be integers in an integral instance"),
    (_edit("x1", 1, value="HUGE"), "9" * 400, ParseError, "x1 contains a non-finite number"),
    (_edit("A", 3, 1, value="HUGE"), "1e400", ParseError, "A[3] contains a non-finite number"),
    (_edit("A", 0, 0, value="HUGE"), _HUGE_INT, ParseError, "A[0] contains a non-finite number"),
    (_edit("A", 4, value=[0, -1]), None, SchemaError, "A[4] must be a list of 3 numbers"),
    (_bool_after_fraction, None, SchemaError, "A[3] contains a non-number: True"),
    (lambda data: [data], None, SchemaError, "instance file must hold a JSON object"),
    (_edit("name", value=3), None, SchemaError, "name must be a string"),
    (_edit("m", value=True), None, SchemaError, "m and n must be positive integers"),
    (_edit("n", value=0), None, SchemaError, "m and n must be positive integers"),
    (_edit("integral", value=1), None, SchemaError, "integral must be a boolean"),
    (_edit("m", value=5), None, SchemaError, "A must be a list of 5 rows"),
], ids=["bool-in-A", "string-in-b", "fraction-in-integral-A", "huge-int-in-x1", "1e400-in-A",
        "int-above-the-largest-float", "short-row", "types-before-integrality",
        "top-level-list", "name-not-a-string", "bool-m", "zero-n", "int-integral",
        "m-not-the-rows-of-A"])
def test_read_errors_keep_their_type_and_message(tmp_path, cube3, edit, literal, error,
                                                 message):
    # A is read entry by entry, row by row, and every type is checked before
    # integrality, so the error names its field and row.  An int just above
    # the largest float is refused although it rounds to that float.  An
    # edit that returns a value replaces the whole payload with it.
    path = tmp_path / "bad.json"
    write_instance(cube3, path)
    data = json.loads(path.read_text())
    replaced = edit(data)
    text = json.dumps(data if replaced is None else replaced)
    path.write_text(text if literal is None else text.replace('"HUGE"', literal))
    with pytest.raises(PolywalkError) as info:
        read_instance(path)
    assert type(info.value) is error and str(info.value) == message


def test_read_takes_a_as_build_instance_does(tmp_path):
    # Mixed ints and floats, -0.0 and an entry of exactly the largest float,
    # which the reader accepts, though it refuses any larger int.
    rows = [[3, -0.0], [0.1, 2**60 + 1], [-1, 0], [0, -1]]
    path = tmp_path / "mixed.json"
    for top in (7, sys.float_info.max):
        rows[0][0] = top
        path.write_text(json.dumps({"name": "mixed", "m": 4, "n": 2, "A": rows,
                                    "b": [1.0] * 4, "integral": False}))
        got, want = read_instance(path), build_instance([list(map(float, r)) for r in rows],
                                                        [1.0] * 4, integral=False)
        assert got.raw_A.tobytes() == want.raw_A.tobytes()
        assert got.A.tobytes() == want.A.tobytes()


def test_read_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_instance(path)


def test_read_rejects_schema_problems(tmp_path, cube3):
    path = tmp_path / "schema.json"
    write_instance(cube3, path)
    data = json.loads(path.read_text())

    missing = dict(data)
    del missing["A"]
    path.write_text(json.dumps(missing))
    with pytest.raises(SchemaError):
        read_instance(path)

    short_b = dict(data)
    short_b["b"] = short_b["b"][:-1]
    path.write_text(json.dumps(short_b))
    with pytest.raises(SchemaError):
        read_instance(path)

    frac = dict(data)
    frac["A"] = [list(row) for row in frac["A"]]
    frac["A"][0][0] = 0.5
    path.write_text(json.dumps(frac))
    with pytest.raises(SchemaError):
        read_instance(path)

    boolean = dict(data)
    boolean["A"] = [list(row) for row in boolean["A"]]
    boolean["A"][0][0] = True
    path.write_text(json.dumps(boolean))
    with pytest.raises(SchemaError):
        read_instance(path)
