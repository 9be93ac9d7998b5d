"""Flatness values against hand geometry, a least-squares oracle, and
exact sub-determinant bounds."""

import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.linalg as linalg_mod
import polywalk.polytope as polytope_mod
from polywalk.errors import CapExceeded, DependentVectors, NotOrthogonal
from polywalk.flatness import (
    SubdetReport,
    certify_delta_Delta,
    delta_A,
    delta_basis,
    delta_hat,
    random_orthogonal,
    rotate_rows,
    subdet_report,
)
from polywalk.instances import (
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_random_sphere,
    gen_simplex,
    gen_transportation,
    generate,
)
from polywalk.polytope import build_instance
from reference import int_determinant

SQRT2 = math.sqrt(2.0)


def test_delta_hat_planar_angle():
    # Angle between (1,1) and the x-axis is 45 degrees; the sine is sqrt(2)/2.
    npt.assert_allclose(delta_hat([[1.0, 0.0]], [1.0, 1.0]), SQRT2 / 2, atol=1e-12)
    # Orthogonal direction: sine 1 (capped there).
    npt.assert_allclose(delta_hat([[1.0, 0.0]], [0.0, 2.0]), 1.0, atol=1e-12)


def test_delta_hat_against_plane():
    # Distance of the normalized diagonal from the xy-plane.
    got = delta_hat([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0, 1.0])
    npt.assert_allclose(got, 1.0 / math.sqrt(3.0), atol=1e-12)


def test_delta_hat_one_dimension_and_errors():
    npt.assert_allclose(delta_hat([], [4.0]), 1.0, atol=0)
    with pytest.raises(DependentVectors):
        delta_hat([[1.0, 0.0]], [2.0, 0.0])


def test_delta_hat_lstsq_oracle():
    # The sine of the angle between z and span(S) is the residual norm of
    # projecting the normalized z onto the span.
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        vecs = rng.normal(size=(n - 1, n))
        z = rng.normal(size=n)
        if np.linalg.matrix_rank(np.vstack([vecs, z]), tol=1e-9) < n:
            continue
        zhat = z / np.linalg.norm(z)
        coef, *_ = np.linalg.lstsq(vecs.T, zhat, rcond=None)
        residual = float(np.linalg.norm(zhat - vecs.T @ coef))
        npt.assert_allclose(delta_hat(vecs, z), min(1.0, residual), atol=1e-9)


def test_delta_basis_frozen_values():
    npt.assert_allclose(delta_basis([[1.0, 0.0], [1.0, 1.0]]), SQRT2 / 2, atol=1e-12)
    got = delta_basis([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    npt.assert_allclose(got, 0.5, atol=1e-12)
    npt.assert_allclose(delta_basis(np.eye(4)), 1.0, atol=1e-15)


def test_delta_basis_equals_min_angle():
    # Inverse-norm formula == the worst sine over leave-one-out angles.
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        vecs = rng.normal(size=(n, n))
        if np.linalg.cond(vecs) > 1e6:
            continue
        direct = min(
            delta_hat(np.delete(vecs, k, axis=0), vecs[k]) for k in range(n))
        npt.assert_allclose(delta_basis(vecs), direct, atol=1e-9)


def test_delta_A_three_rows():
    inst = build_instance([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    report = delta_A(inst)
    npt.assert_allclose(report.delta, SQRT2 / 2, atol=1e-12)
    assert report.argmin_basis == (0, 2)
    assert report.method == "enumeration"


def test_delta_A_cube_exact(cube3):
    report = delta_A(cube3)
    npt.assert_allclose(report.delta, 1.0, atol=1e-12)
    # Of the C(6,3) = 20 subsets, the independent ones pick one sign per axis.
    assert report.n_bases_checked == 8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_delta_A_counts_independent_bases(n):
    # Of the C(2n, n) cube subsets only the 2**n with one row per axis are
    # independent; every n-subset of the n+1 simplex rows is.
    assert delta_A(gen_hypercube(n)).n_bases_checked == 2**n
    assert delta_A(gen_simplex(n)).n_bases_checked == n + 1


def test_delta_A_cap():
    with pytest.raises(CapExceeded):
        delta_A(gen_hypercube(30))  # C(60,30) blows the default cap


@pytest.mark.parametrize("call, message", [
    (lambda: delta_basis([[1, 0], [1, 0, 0]]), "vectors must share one dimension"),
    (lambda: delta_hat([[1, 0, 0]], [0, 0, 1]), "need n-1 span vectors for dimension 3, got 1"),
    (lambda: delta_basis([[1, 0, 0], [0, 1, 0]]), "need exactly 3 vectors, got 2"),
    (lambda: rotate_rows(gen_hypercube(3), np.eye(2)), "rotation must be 3x3, got (2, 2)"),
    (lambda: subdet_report([[1, 2], [3]]), "matrix rows have differing lengths"),
    (lambda: subdet_report([]), "expected a nonempty integer matrix"),
], ids=["mixed-dimensions", "span-too-small", "too-few-vectors", "rotation-order",
        "ragged-rows", "empty-matrix"])
def test_misshaped_input_is_refused(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_subdet_report_small_matrix():
    report = subdet_report([[2, 1], [1, 1]])
    assert report.Delta == 2
    assert report.Delta1 == 2
    assert report.Delta_n_minus_1 == 2
    assert report.bound_on_inv_delta == 2 * 2 * 2
    # Not totally unimodular: Delta_{n-1} = 4 from rows 0 and 2, columns 0
    # and 2, and Delta = 9 from the first three rows.
    mat = [[2, 1, 0], [0, 2, 1], [1, 0, 2], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    assert subdet_report(mat) == SubdetReport(Delta=9, Delta1=2, Delta_n_minus_1=4,
                                              bound_on_inv_delta=3 * 2 * 4)
    # n = 1: Delta_0 = 1 by convention, and Delta is the largest entry.
    assert subdet_report([[3], [-8], [5]]) == SubdetReport(
        Delta=8, Delta1=8, Delta_n_minus_1=1, bound_on_inv_delta=8.0)


def test_subdet_report_unimodular_incidence():
    # Node-arc incidence of the directed 4-cycle: totally unimodular.
    incidence = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]]
    report = subdet_report(incidence)
    assert report.Delta == 1
    assert report.Delta1 == 1
    assert report.Delta_n_minus_1 == 1
    assert report.bound_on_inv_delta == 4


def test_certificate_on_cube(cube3):
    holds, slack = certify_delta_Delta(cube3)
    assert holds
    npt.assert_allclose(slack, 3.0 - 1.0, atol=1e-9)


def test_certificate_on_transportation():
    inst = gen_transportation(2, 3, seed=0)
    holds, _ = certify_delta_Delta(inst)
    assert holds
    assert subdet_report(inst.int_A).Delta == 1  # the reduced system stays TU


def test_certificate_on_random_integer_matrices():
    rng = np.random.default_rng(14)
    done = 0
    while done < 25:
        a = rng.integers(-3, 4, size=(4, 3))
        if np.linalg.matrix_rank(a, tol=1e-9) < 3:
            continue
        inst = build_instance(a, np.ones(4))
        holds, slack = certify_delta_Delta(inst)
        assert holds and slack >= -1e-6
        done += 1


def test_certificate_requires_integral():
    inst = build_instance([[1.5, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        certify_delta_Delta(inst)


def test_rotation_invariance():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 4))
        a = rng.normal(size=(m, n))
        if np.min(np.linalg.norm(a, axis=1)) < 1e-6:
            continue
        inst = build_instance(a, rng.normal(size=m))
        rotated = rotate_rows(inst, random_orthogonal(n, seed=trial))
        npt.assert_allclose(delta_A(rotated).delta, delta_A(inst).delta,
                            rtol=0, atol=1e-9)


def test_rotate_rows_checks_orthogonality(cube3):
    with pytest.raises(NotOrthogonal):
        rotate_rows(cube3, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])


def test_rotate_rows_moves_endpoints(cube3):
    q = random_orthogonal(3, seed=8)
    rotated = rotate_rows(cube3, q)
    npt.assert_array_equal(rotated.b, cube3.b)
    npt.assert_allclose(rotated.x2, q @ cube3.x2, atol=1e-12)
    assert not rotated.integral


def test_random_orthogonal_properties():
    for seed in range(6):
        q = random_orthogonal(4, seed)
        npt.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
    npt.assert_array_equal(random_orthogonal(3, 7), random_orthogonal(3, 7))


@pytest.mark.parametrize("make", [lambda: gen_hypercube(4),
                                  lambda: gen_random_sphere(12, 4, seed=1)])
def test_delta_A_same_across_chunk_boundaries(make, monkeypatch):
    inst = make()
    default = delta_A(inst)
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    # A fresh copy, since the instance keeps its report.
    assert delta_A(replace(inst)) == default
    if inst.name == "hypercube-n4":
        # All 16 independent bases tie at 1.0: the first subset wins.
        assert default.argmin_basis == (0, 1, 2, 3)


def test_delta_A_matches_delta_basis_on_every_subset():
    # Bit for bit, at orders 4, 8 and 12 and on the 5-cube, whose 252
    # subsets hold 220 singular ones.
    rng = np.random.default_rng(3)
    for inst in (gen_random_sphere(12, 4, seed=1), gen_hypercube(5),
                 *(build_instance(rng.standard_normal((n + 2, n)), np.ones(n + 2),
                                  integral=False) for n in (8, 12))):
        values = {}
        for subset in combinations(range(inst.m), inst.n):
            try:
                values[subset] = delta_basis([inst.A[i] for i in subset])
            except DependentVectors:
                pass
        report = delta_A(inst)
        assert report.n_bases_checked == len(values)
        assert report.delta == min(values.values()) == values[report.argmin_basis]
        assert report.argmin_basis == min(values, key=values.get)


def _subdet_reference(mat):
    """Every minor by the scalar int_determinant, one at a time."""
    m, n = len(mat), len(mat[0])
    by_order = [0] * (n + 1)
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                det = int_determinant([[mat[r][c] for c in cols] for r in rows])
                by_order[k] = max(by_order[k], abs(det))
    d1, dn1 = by_order[1], by_order[n - 1] if n >= 2 else 1
    return SubdetReport(Delta=max(by_order), Delta1=d1, Delta_n_minus_1=dn1,
                        bound_on_inv_delta=float(n * d1 * dn1))


def _unit_row(rng, n, scale=1):
    row = [0] * n
    row[int(rng.integers(n))] = scale * int(rng.choice([-1, 1]))
    return row


def _mixed_matrix(rng, n, others, units, high, extra=()):
    """``others`` rows of entries in [-high, high], ``units`` signed unit
    rows, a negated and a repeated copy of one row and the ``extra`` rows,
    in a seeded order."""
    rows = rng.integers(-high, high + 1, size=(others, n)).tolist()
    rows += [_unit_row(rng, n) for _ in range(units)]
    rows += [[-v for v in rows[0]], list(rows[-1])] + [list(row) for row in extra]
    return [rows[i] for i in rng.permutation(len(rows))]


def _unit_row_cases(rng):
    """Seeded matrices beside the unit rows that subdet_report sets aside."""
    cases = []
    for i in range(16):  # signed unit rows, rows negated and repeated
        cases.append(_mixed_matrix(rng, 2 + i % 4, 1 + i % 3, 1 + i % 5, 3))
    for i in range(10):  # a zero row and a zero column
        n = 3 + i % 3
        mat = _mixed_matrix(rng, n, 2 + i % 2, 2 + i % 3, 4, extra=[[0] * n])
        zero = int(rng.integers(n))
        cases.append([[0 if j == zero else v for j, v in enumerate(row)] for row in mat])
    for i in range(10):  # +-2 e_j rows stay among the enumerated rows
        n = 2 + i % 4
        extra = [_unit_row(rng, n, scale=2) for _ in range(1 + i % 2)]
        cases.append(_mixed_matrix(rng, n, i % 3, n, 1, extra=extra))
    for i in range(10):  # m < n
        n = 4 + i % 2
        cases.append(_mixed_matrix(rng, n, 1, 1 + i % 2, 3)[:n - 1 - i % 2])
    for i in range(6):  # order 3 in int64: (3 * 300**2 + 1)**3 > 2**52
        cases.append(_mixed_matrix(rng, 4, 3, 2, 300))
    for i in range(6):  # entries of 1e12 on Python ints
        cases.append(_mixed_matrix(rng, 3 + i % 2, 2, 2 + i % 2, 10**12))
    cases += [[[1, 0], [0, -1], [-1, 0]], [[0, 0, 0], [0, 0, 0]], [[0, 1, 0]],
              [[2, 0], [0, 1]], [[-1], [1], [-1]]]
    return cases


def test_subdet_report_matches_scalar_reference(monkeypatch):
    real = linalg_mod.int_determinants
    dtypes = set()

    def recording(minors):
        dtypes.add(minors.dtype)
        return real(minors)

    monkeypatch.setattr(linalg_mod, "int_determinants", recording)
    rng = np.random.default_rng(41)
    cases = [rng.integers(-9, 10, size=(7, 5)).tolist() for _ in range(6)]
    cases += [rng.integers(-10**12, 10**12, size=(5, 4)).tolist() for _ in range(2)]
    cases += [[[3, -4, 5]], [[2, 7]], [[3], [-8], [5]], [[6]]]
    # (3 * 234**2 + 1)**3 < 2**52: the widest entries whose order-3 minors
    # run in float64.  Entries of 3e4 at n = 2 already run on Python ints.
    cases += [rng.integers(-high, high + 1, size=(6, n)).tolist()
              for n, high in ((3, 234), (2, 30_000)) for _ in range(3)]
    cases += [[[10**12, 10**12 - 1], [10**12 + 1, 10**12], [1, 0]],
              gen_degenerate_pyramid().int_A]
    cases += _unit_row_cases(np.random.default_rng(46))
    assert len(cases) >= 70
    for mat in cases:
        assert subdet_report(mat) == _subdet_reference(mat)
    assert dtypes == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}


def test_subdet_report_same_across_chunk_boundaries(monkeypatch):
    mats = [gen_hypercube(4).int_A, gen_transportation(3, 3, seed=0).int_A,
            gen_degenerate_pyramid().int_A]
    default = [subdet_report(mat) for mat in mats]
    monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", 7)
    assert [subdet_report(mat) for mat in mats] == default


def _float_minors_by_order(mat):
    """Largest |minor| of every order from stacked float determinants over
    itertools.product of the row and column subsets, rounded: exact for the
    small entries of the corpus matrices."""
    entries = np.array(mat, dtype=float)
    m, n = entries.shape
    by_order = {}
    for k in range(1, min(m, n) + 1):
        pairs = np.array([r + c for r, c in product(combinations(range(m), k),
                                                   combinations(range(n), k))])
        minors = entries[pairs[:, :k, None], pairs[:, None, k:]]
        by_order[k] = int(np.max(np.abs(np.round(np.linalg.det(minors)))))
    return by_order


def _enumerated_rows(mat):
    """The rows whose minors subdet_report enumerates: neither zero nor a
    unit row, and one row of each set that repeats up to sign."""
    out = []
    for row in map(list, mat):
        support = [v for v in row if v]
        if support and support != [1] and support != [-1] \
                and row not in out and [-v for v in row] not in out:
            out.append(row)
    return out


@pytest.mark.parametrize("chunk", [None, 7])
def test_subdet_report_every_order_on_the_integral_corpus(chunk, monkeypatch):
    # Every integral instance of the acceptance corpus.  The report matches
    # the float minors of every order of the whole matrix, while the stacks
    # subdet_report computes hold the minors of the rows that are not unit
    # rows, order by order, and nothing else.
    insts = [gen(n) for n in (3, 4, 5, 6) for gen in (gen_hypercube, gen_simplex)]
    insts += [gen_transportation(p, q, s)
              for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)) for s in range(3)]
    if chunk is not None:
        monkeypatch.setattr(linalg_mod, "SUBSET_CHUNK", chunk)
    real = linalg_mod.int_determinants
    seen = {}
    sizes = []

    def recording(minors):
        ok, dets = real(minors)
        k = minors.shape[-1]
        seen[k] = max(seen.get(k, 0), int(dets.max(initial=0)))
        sizes.append(len(minors))
        return ok, dets

    monkeypatch.setattr(linalg_mod, "int_determinants", recording)
    enumerated = []
    for inst in insts:
        seen.clear()
        sizes.clear()
        report = subdet_report(inst.int_A)
        expected = _float_minors_by_order(inst.int_A)
        assert (report.Delta, report.Delta1, report.Delta_n_minus_1) == \
            (max(expected.values()), expected[1], expected.get(inst.n - 1, 1))
        rest = _enumerated_rows(inst.int_A)
        assert seen == (_float_minors_by_order(rest) if rest else {})
        assert sum(sizes) == sum(math.comb(len(rest), k) * math.comb(inst.n, k)
                                 for k in range(1, inst.n + 1))
        enumerated.append(sum(sizes))
    assert enumerated[0:8:2] == [0, 0, 0, 0]  # the hypercubes
    assert enumerated[-3] == 923  # transportation 3x4 s0


def test_transportation_is_totally_unimodular():
    # Eliminating the balance equations is a sequence of pivots, which keep
    # a matrix totally unimodular.  A depends on the shape alone; for 2 x 8,
    # seed 0 draws no matching totals within the generator's limit, seed 19
    # does.
    shapes = [(p, q) for p in range(2, 5) for q in range(p, 9) if p * q <= 16]
    assert len(shapes) == 11
    for p, q in shapes + [(3, 5)]:
        seed = 19 if (p, q) == (2, 8) else 0
        assert subdet_report(gen_transportation(p, q, seed).int_A).Delta == 1


def test_order_6_minors_of_small_entries_run_in_int64(monkeypatch):
    # (6 * 12**2 + 1)**6 lies between 2**52 and 2**62: subdet_report takes
    # the order-6 minors of this matrix through the kernel as int64.
    mat = np.random.default_rng(45).integers(-12, 13, size=(8, 6)).tolist()
    real = linalg_mod.int_determinants
    dtypes = {}

    def recording(minors):
        dtypes.setdefault(minors.shape[-1], set()).add(minors.dtype)
        return real(minors)

    monkeypatch.setattr(linalg_mod, "int_determinants", recording)
    assert subdet_report(mat) == _subdet_reference(mat)
    assert dtypes[6] == {np.dtype(np.int64)}


def test_an_instance_computes_delta_once(calls):
    # On a fresh copy delta_A enumerates once: a second delta_A and the
    # certificate reuse its report, and the certificate forms the minors of
    # subdet_report alone.
    calls.watch(linalg_mod, "solve_stack", "int_determinants")
    for inst in (gen_transportation(3, 3, 0), gen_degenerate_pyramid()):
        calls.clear()
        subdet_report(inst.int_A)
        minors = calls.counts()
        assert set(minors) == {"int_determinants"}
        copy = replace(inst)
        calls.clear()
        report = delta_A(copy)
        assert calls["solve_stack"] and not calls["int_determinants"]
        calls.clear()
        assert delta_A(copy) is report
        assert calls.counts() == {}
        certify_delta_Delta(copy)
        assert calls.counts() == minors


def test_kept_delta_equals_a_fresh_copys_on_the_corpus():
    from test_acceptance import _corpus_specs

    for inst in map(generate, _corpus_specs()):
        kept = delta_A(inst)
        assert delta_A(inst) is kept
        assert kept == delta_A(replace(inst))
        if inst.integral:
            assert certify_delta_Delta(inst) == certify_delta_Delta(replace(inst))
        assert replace(inst)._delta_memo is None


def test_kept_delta_still_meets_enum_cap(calls, monkeypatch):
    # The pyramid has C(5, 3) = 10 bases.  A cap lowered after delta is kept
    # refuses the instance as it refuses a fresh copy, without enumerating,
    # and the kept report returns when the cap allows it again.
    inst = replace(gen_degenerate_pyramid())
    kept = delta_A(inst)
    calls.watch(linalg_mod, "solve_stack")
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 9)
    for call in (delta_A, certify_delta_Delta):
        for target in (inst, replace(inst)):
            with pytest.raises(CapExceeded, match=r"C\(5,3\) = 10 subsets exceeds cap 9"):
                call(target)
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 10)
    assert delta_A(inst) is kept
    assert calls.counts() == {}


def test_a_raise_keeps_nothing(calls):
    # Rank 1 in the plane: no independent pair of rows, so each call
    # enumerates again and raises again.
    inst = build_instance([[1, 1], [2, 2], [3, 3]], [1, 2, 3])
    calls.watch(linalg_mod, "solve_stack")
    for call in (delta_A, delta_A, certify_delta_Delta):
        with pytest.raises(DependentVectors):
            call(inst)
    assert len(calls["solve_stack"]) == 3
    assert inst._delta_memo is None
