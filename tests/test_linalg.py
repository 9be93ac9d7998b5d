"""Dense kernels against numpy oracles and hand-computed values."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.linalg as linalg_mod
from polywalk.errors import NonIntegerEntry, Singular, ZeroVector
from polywalk.instances import gen_hypercube
from polywalk.linalg import (
    as_int_matrix,
    as_matrix,
    as_vector,
    exact_dtype,
    int_determinants,
    inverse,
    normalize,
    rank,
    solve,
    solve_stack,
)
from polywalk.polytope import ratio_step, verify_vertex
from polywalk.shadow import ObjectivePair, project
from reference import checked_by_columns, int_determinant, solve_stack_screened


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])


def test_as_vector_shape():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


_SQUARE = gen_hypercube(2)
_CORNER = verify_vertex(_SQUARE, _SQUARE.x1)
_PAIR = ObjectivePair(lam=np.ones(2), mu=np.ones(2), w1=np.array([1.0, 0.0]),
                      w2=np.array([0.0, 1.0]), u_rows=(2, 3), v_rows=(0, 1), seed=0)
_BOUNDARY_CALLS = {
    "solve-matrix": (lambda m: solve(m, [1.0, 1.0]), "matrix"),
    "solve-rhs": (lambda v: solve(np.eye(2), v), "vector"),
    "inverse": (inverse, "matrix"),
    "rank": (rank, "matrix"),
    "ratio_step": (lambda v: ratio_step(_SQUARE, _SQUARE.slack(_CORNER.x), v), "vector"),
    "slack": (_SQUARE.slack, "vector"),
    "project": (lambda v: project(_PAIR, v), "vector"),
}
_BAD_INPUTS = {
    "vector": {"nan": [np.nan, 1.0], "inf": [1.0, -np.inf], "shape": [[1.0, 1.0]]},
    "matrix": {"nan": [[1.0, 0.0], [0.0, np.nan]], "inf": [[np.inf, 0.0], [0.0, 1.0]],
               "shape": [1.0, 0.0]},
}


@pytest.mark.parametrize("bad", ["nan", "inf", "shape"])
@pytest.mark.parametrize("entry", sorted(_BOUNDARY_CALLS))
def test_boundaries_reject_non_finite_and_misshaped_input(entry, bad):
    """The walk's entry points keep the ValueError contract of as_vector and
    as_matrix: a NaN, an infinity or a wrong shape never reaches LAPACK."""
    call, kind = _BOUNDARY_CALLS[entry]
    with pytest.raises(ValueError):
        call(_BAD_INPUTS[kind][bad])


def test_unit_rows_match_normalize_bit_for_bit():
    # Each row's r @ r comes from one stacked matmul, at every order.
    rng = np.random.default_rng(0)
    for n in range(1, 25):
        rows = rng.normal(size=(40, n)) * np.logspace(-3, 3, 40)[:, None]
        expected = np.array([normalize(r) for r in rows])
        assert linalg_mod.unit_rows(rows).tobytes() == expected.tobytes()


def test_normalize_unit_and_zero():
    npt.assert_allclose(np.linalg.norm(normalize([3.0, 4.0])), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(ZeroVector):
        normalize([1e-301, 0.0])  # a norm at or below the zero floor


def test_normalize_keeps_the_plain_norm_bits_in_range():
    rng = np.random.default_rng(37)
    rows = rng.normal(size=(60, 9)) * np.logspace(-150, 150, 60)[:, None]
    for v in rows:
        assert normalize(v).tobytes() == (v / np.sqrt(v @ v)).tobytes()


@pytest.mark.parametrize("values, expected", [
    ([1e200, 0.5], [1.0, 5e-201]),
    ([3e200, -4e200], [0.6, -0.8]),
    ([1e-200, 0.0], [1.0, 0.0]),
    ([3e-200, 4e-200], [0.6, 0.8]),
    ([1e-160, 1e-160], [0.5**0.5, 0.5**0.5]),  # a subnormal sum of squares
], ids=["overflow", "overflow-both", "underflow-to-zero", "underflow", "subnormal"])
def test_normalize_rescales_sums_of_squares_outside_the_normal_range(values, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = normalize(values)
        rows = linalg_mod.unit_rows(np.array([values, [3.0, 4.0]]))
    npt.assert_allclose(got, expected, rtol=1e-15, atol=0)
    assert rows[0].tobytes() == got.tobytes()
    assert rows[1].tobytes() == normalize([3.0, 4.0]).tobytes()


def test_solve_recovers_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        if np.linalg.cond(a) > 1e6:
            continue
        x = rng.normal(size=n)
        got = solve(a, a @ x)
        npt.assert_allclose(got, x, rtol=1e-8, atol=1e-8)
        npt.assert_allclose(got, np.linalg.solve(a, a @ x), rtol=1e-8, atol=1e-10)


def test_solve_singular_raises():
    with pytest.raises(Singular):
        solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_inverse_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        if np.linalg.cond(a) > 1e6:
            continue
        npt.assert_allclose(inverse(a) @ a, np.eye(n), atol=1e-8)
        npt.assert_allclose(inverse(a), np.linalg.inv(a), rtol=1e-7, atol=1e-9)
    with pytest.raises(Singular):
        inverse(np.ones((3, 3)))


def test_rank_known_and_random():
    assert rank(np.eye(4)) == 4
    assert rank(np.zeros((3, 5))) == 0
    assert rank(np.outer([1.0, 2.0, 3.0], [4.0, 5.0])) == 1
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
        assert rank(a) == np.linalg.matrix_rank(a, tol=1e-9)


def _rank_cases(rng):
    """Seeded k x n matrices, n = 1-12 and k <= n: full rank, rank-deficient
    products, a row within 1e-10 of another, and rows or the whole matrix
    scaled over hundreds of orders of magnitude."""
    for n in range(1, 13):
        for k in range(1, n + 1):
            r = int(rng.integers(0, k))
            yield rng.standard_normal((k, n))
            yield rng.standard_normal((k, r)) @ rng.standard_normal((r, n))
            near = rng.standard_normal((k, n))
            near[-1] = near[0] + 1e-10 * rng.standard_normal(n)
            yield near
            yield rng.standard_normal((k, n)) * 10.0 ** rng.integers(-150, 150, size=(k, 1))
            yield rng.standard_normal((k, n)) * 10.0 ** float(rng.choice([-200, 200]))


def test_rank_takes_the_singular_values_of_np_linalg_svd():
    # rank calls the SVD gufunc itself: its singular values are
    # np.linalg.svd(compute_uv=False)'s bit for bit, and its rank is the one
    # counted on those values.
    ranks = set()
    for a in _rank_cases(np.random.default_rng(47)):
        sigma = np.linalg.svd(a, compute_uv=False)
        assert linalg_mod._SVD(a).tobytes() == sigma.tobytes()
        expected = int(np.count_nonzero(sigma > linalg_mod.RANK_TOL * sigma[0]))
        assert rank(a) == expected
        ranks.add((expected < len(a), expected == 0))
    assert ranks == {(False, False), (True, False), (True, True)}


def test_rank_raises_on_lapack_non_convergence():
    # A NaN never reaches rank, whose as_matrix refuses it, but it makes LAPACK
    # fail to converge: the gufunc raises np.linalg.svd's error and leaves
    # the caller's error state as it was.
    before = (np.geterr(), np.geterrcall())
    for svd in (lambda a: np.linalg.svd(a, compute_uv=False), linalg_mod._SVD):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                svd(np.full((2, 3), np.nan))
        assert (np.geterr(), np.geterrcall()) == before


def _unit_rows_at_angle(theta):
    return np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])


@pytest.mark.parametrize("mat", [np.diag([1.0, 1e-13]), _unit_rows_at_angle(1e-13)],
                         ids=["diag-1e-13", "angle-1e-13"])
def test_solve_and_inverse_reject_tiny_final_pivot(mat):
    with pytest.raises(Singular):
        solve(mat, [1.0, 1.0])
    with pytest.raises(Singular):
        inverse(mat)


@pytest.mark.parametrize("mat", [1e-6 * np.eye(2), _unit_rows_at_angle(1e-9)],
                         ids=["scaled-identity", "angle-1e-9"])
def test_solve_and_inverse_accept_small_but_regular(mat):
    npt.assert_allclose(inverse(mat) @ mat, np.eye(2), atol=1e-6)
    npt.assert_allclose(mat @ solve(mat, [1.0, 1.0]), [1.0, 1.0], atol=1e-6)


def test_pivot_tol_is_one_setting_read_at_call_time(monkeypatch):
    monkeypatch.setattr(linalg_mod, "PIVOT_TOL", 1e-6)
    mat = np.diag([1.0, 1e-7])
    with pytest.raises(Singular):
        solve(mat, [1.0, 1.0])
    with pytest.raises(Singular):
        inverse(mat)
    ok, out = solve_stack(mat[None], np.zeros((1, 2, 0)))
    assert ok.tolist() == [False] and out.shape == (0, 2, 2)


_NOT_FINITE = "the inverse or the solution is not finite"
_AT_BOUND = "inverse entry 1.000e+12 reaches 1/1.0e-12"


def _returning(out):
    """A stand-in for the LAPACK call that returns ``out`` whatever it is given."""
    return lambda a, *args: np.array(out, dtype=float)


@pytest.mark.parametrize("out, message", [
    # Column 1's NaN follows column 0's larger peak: a Python max over the
    # column peaks would keep 5.0 and miss it.
    ([[5.0, np.nan, 0.0], [1.0, 0.0, 1.0]], _NOT_FINITE),
    ([[5.0, np.nan], [1.0, 0.0]], _NOT_FINITE),
    ([[1.0, 0.0, 0.5], [0.0, 1.0, np.nan]], _NOT_FINITE),
    ([[1.0, 0.0, -np.inf], [0.0, 1.0, 0.5]], _NOT_FINITE),
    ([[1.0, 0.0, np.inf], [0.0, 1.0, 0.5]], _NOT_FINITE),
    ([[1.0, 0.0, 0.5], [0.0, -1e12, 0.5]], _AT_BOUND),
    ([[1e12, 0.0], [0.0, 1.0]], _AT_BOUND),
], ids=["nan-after-larger-peak", "nan-in-inverse", "nan-in-solution",
        "minus-inf-in-solution", "inf-in-solution", "solve-at-bound", "inverse-at-bound"])
def test_checked_rejects_with_one_pass_over_column_peaks(out, message):
    assert 1.0 / linalg_mod.PIVOT_TOL == 1e12
    with pytest.raises(Singular) as caught:
        linalg_mod._checked(_returning(out), np.eye(2))
    assert str(caught.value) == message


@pytest.mark.parametrize("out", [
    [[1.0, 0.0, 1e300], [0.0, 1.0, -1e300]],
    [[np.nextafter(1e12, 0.0), 0.0, 1.0], [0.0, 1.0, 1.0]],
    [[1.0, 0.0], [0.0, -np.nextafter(1e12, 0.0)]],
], ids=["huge-solution", "solve-below-bound", "inverse-below-bound"])
def test_checked_passes_huge_solutions_and_entries_below_the_bound(out):
    npt.assert_array_equal(linalg_mod._checked(_returning(out), np.eye(2)), out)


@pytest.mark.parametrize("call, args", [(linalg_mod._SOLVE, (np.eye(2, 3),)),
                                        (linalg_mod._INV, ())], ids=["solve", "inv"])
def test_checked_reports_lapack_singular_matrix(call, args):
    # LAPACK fills the result of an exactly zero pivot with NaN, and that
    # fill is the verdict: no LinAlgError is raised, or chained.
    with pytest.raises(Singular) as caught:
        linalg_mod._checked(call, np.array([[1.0, 2.0], [2.0, 4.0]]), *args)
    assert str(caught.value) == _NOT_FINITE
    assert caught.value.__cause__ is None


_BELOW = np.nextafter(1e12, 0.0)
# Planted entries: either side of the bound, non-finite values and a huge
# solution entry, which passes beside a small inverse.
_PLANTED = [_BELOW, -_BELOW, 1e12, -1e12, np.nan, np.inf, -np.inf, 1e300, -1e300]


def _verdict(check, out):
    try:
        return "pass", check(_returning(out), np.eye(out.shape[0])).tobytes()
    except Singular as exc:
        return "singular", str(exc)


def test_checked_equals_the_column_pass_on_seeded_outputs():
    """The one-reduction pass gives the per-column rule's verdict and message
    on inverses (n x n) and solves (n x (n + 1)), with planted entries in the
    inverse columns and in the solution column."""
    rng = np.random.default_rng(47)
    seen = set()
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, 2))
        out = rng.standard_normal((n, n + r)) * 10.0 ** rng.uniform(-3, 11)
        for _ in range(int(rng.integers(0, 3))):
            col = n if r and rng.random() < 0.5 else int(rng.integers(0, n))
            out[int(rng.integers(0, n)), col] = _PLANTED[int(rng.integers(0, len(_PLANTED)))]
        got, want = _verdict(linalg_mod._checked, out), _verdict(checked_by_columns, out)
        assert got == want, out
        # The verdict, where the first non-finite entry lies, and whether the
        # result needed the column pass.
        finite = np.isfinite(out)
        seen.add((got[0] if got[0] == "pass" or got[1] == _NOT_FINITE else "bound",
                  "finite" if finite.all() else "inverse" if not finite[:, :n].all()
                  else "solution", not np.abs(out).max() < 1e12,
                  got[0] == "pass" and np.abs(out[:, :n]).max() == _BELOW))
    assert {("pass", "finite", False, False), ("pass", "finite", False, True),
            ("pass", "finite", True, False), ("pass", "finite", True, True),
            ("singular", "inverse", True, False), ("singular", "solution", True, False),
            ("bound", "finite", True, False)} <= seen


def test_solve_reuses_one_read_only_identity_block():
    rng = np.random.default_rng(53)
    mat = linalg_mod.unit_rows(rng.standard_normal((7, 7)))
    for rhs in rng.standard_normal((2, 7)):
        full = np.eye(7, 8)
        full[:, 7] = rhs
        assert solve(mat, rhs).tobytes() == np.linalg.solve(mat, full)[:, 7].tobytes()
    block = linalg_mod._identity_block(7)
    assert block is linalg_mod._identity_block(7)
    assert not block.flags.writeable and block.tobytes() == np.eye(7, 8).tobytes()


def test_rank_unit_rows_with_duplicate():
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
    assert rank(rows) == 2


@pytest.mark.parametrize("call, message", [
    (lambda: inverse(np.ones((2, 3))), "matrix must be square, got (2, 3)"),
    (lambda: solve(np.eye(2), [1.0, 2.0, 3.0]), "rhs length 3 does not match matrix order 2"),
], ids=["inverse-not-square", "solve-rhs-length"])
def test_misshaped_system_is_refused(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_as_int_matrix_exact_and_rejections():
    assert as_int_matrix([[1.0, -2.0], [3.0, 0.0]]) == [[1, -2], [3, 0]]
    assert as_int_matrix(np.array([[5, 7]], dtype=np.int64)) == [[5, 7]]
    with pytest.raises(NonIntegerEntry):
        as_int_matrix([[0.5, 1.0]])
    with pytest.raises(NonIntegerEntry):
        as_int_matrix([[True, False]])


def test_int_determinant_hand_cofactor():
    # Cofactor expansion along the first row:
    # 2*(1*1 - 1*2) - 1*(1*1 - 1*0) + 0 = -2 - 1 = -3
    assert int_determinant([[2, 1, 0], [1, 1, 1], [0, 2, 1]]) == -3


def test_int_determinant_small_cases():
    assert int_determinant([[7]]) == 7
    assert int_determinant([[0, 1], [1, 0]]) == -1
    assert int_determinant(np.eye(5, dtype=np.int64)) == 1
    assert int_determinant([[1, 2], [2, 4]]) == 0


def test_int_determinant_matches_numpy_on_random_ints():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(-9, 10, size=(n, n))
        expected = np.linalg.det(a.astype(float))
        got = int_determinant(a)
        npt.assert_allclose(got, expected, rtol=1e-6, atol=1e-6)


def test_int_determinant_exact_beyond_float():
    # Floating point cancels these 18-digit products to zero; the exact
    # answer is 1.
    big = 10**9
    mat = [[big, big - 1], [big + 1, big]]
    assert int_determinant(mat) == big * big - (big - 1) * (big + 1) == 1


def _singular_rule_stack():
    """Bases on both sides of the Singular rule, plus well-conditioned ones."""
    cube = np.vstack([np.eye(3), -np.eye(3)])
    mats = [cube[[0, 3, 1]], cube[[1, 4, 2]]]  # +-e_i pairs: exact zero pivots
    mats.append(np.diag([1.0, 1e-13, 1.0]))
    for angle in (1e-13, 1e-9):
        mats.append(np.array([[1.0, 0.0, 0.0],
                              [np.cos(angle), np.sin(angle), 0.0],
                              [0.0, 0.0, 1.0]]))
    rng = np.random.default_rng(29)
    mats.extend(rng.standard_normal((6, 3, 3)))
    mats.append(cube[[0, 4, 5]])
    return np.array(mats)


def _unless_singular(call, *args):
    try:
        return call(*args)
    except Singular:
        return None


def test_solve_stack_matches_per_matrix_rule():
    mats = _singular_rule_stack()
    rhs = np.random.default_rng(30).standard_normal((len(mats), 3, 1))
    ok, out = solve_stack(mats, rhs)
    expected = [_unless_singular(solve, a, b[:, 0]) for a, b in zip(mats, rhs)]
    assert ok.tolist() == [x is not None for x in expected]
    assert ok.tolist()[:5] == [False, False, False, False, True]
    accepted = [x for x in expected if x is not None]
    assert len(out) == len(accepted)
    for sol, a, x in zip(out, mats[ok], accepted):
        npt.assert_array_equal(sol[:, -1], x)
        npt.assert_array_equal(sol[:, :3], inverse(a))
    # inverse's verdict on every member, against the stack without a
    # right-hand side.
    ok, out = solve_stack(mats, np.empty((len(mats), 3, 0)))
    inverses = [_unless_singular(inverse, a) for a in mats]
    assert ok.tolist() == [x is not None for x in inverses]
    assert out.tobytes() == np.array([x for x in inverses if x is not None]).tobytes()


def test_solve_and_inverse_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in range(1, 41):
        for _ in range(3):
            mat = linalg_mod.unit_rows(rng.standard_normal((n, n)))
            rhs = rng.standard_normal(n)
            full = np.eye(n, n + 1)
            full[:, n] = rhs
            assert solve(mat, rhs).tobytes() == np.linalg.solve(mat, full)[:, n].tobytes()
            assert inverse(mat).tobytes() == np.linalg.inv(mat).tobytes()


def _mixed_stack(n, rng):
    """Unit-row bases of order n, exactly singular ones (a repeated row and a
    zero column, or the 1 x 1 zero) and diagonal ones whose inverse has an
    entry on either side of 1/PIVOT_TOL."""
    mats = list(linalg_mod.unit_rows(rng.standard_normal((8 * n, n))).reshape(8, n, n))
    if n == 1:
        mats.append(np.zeros((1, 1)))
    else:
        repeated = mats[0].copy()
        repeated[-1] = repeated[0]
        zero_column = mats[1].copy()
        zero_column[:, 0] = 0.0
        mats += [repeated, zero_column]
    for pivot in (1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), 1e-11, 1e-13):
        edge = np.eye(n)
        edge[-1, -1] = pivot
        mats.append(edge)
    order = rng.permutation(len(mats))
    return np.array(mats)[order]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
@pytest.mark.parametrize("r", [0, 1])
def test_solve_stack_equals_the_screened_rule(n, r):
    rng = np.random.default_rng(43 + n)
    mats = _mixed_stack(n, rng)
    rhs = rng.standard_normal((len(mats), n, r))
    if r:
        # An inverse well inside the bound whose solution overflows.
        mats = np.concatenate([mats, [0.5 * np.eye(n)]])
        rhs = np.concatenate([rhs, np.full((1, n, r), 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, out = solve_stack(mats, rhs)
        want_ok, want_out = solve_stack_screened(mats, rhs)
    assert ok.tolist() == want_ok.tolist()
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes()
    # Both sides of each rule are in the stack: exactly singular members and
    # members on either side of the 1/PIVOT_TOL bound.
    singular = np.linalg.slogdet(mats)[0] == 0
    assert singular.any() and not ok[singular].any()
    assert not (r and ok[-1])
    edge = (np.abs(mats).min(axis=(1, 2), where=mats != 0, initial=1.0) < 1e-10)
    assert ok[edge].any() and not ok[edge].all()


def test_lapack_calls_raise_no_warning_and_restore_the_error_state():
    before = (np.geterr(), np.geterrcall())
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        npt.assert_array_equal(solve(np.eye(2), [1.0, 2.0]), [1.0, 2.0])
        npt.assert_array_equal(inverse(2.0 * np.eye(2)), 0.5 * np.eye(2))
        for call in (lambda: solve(singular, [1.0, 1.0]), lambda: inverse(singular)):
            with pytest.raises(Singular, match=_NOT_FINITE):
                call()
            assert (np.geterr(), np.geterrcall()) == before
            # A caller's own error state does not change the rule.
            with np.errstate(all="raise"), pytest.raises(Singular):
                call()
        ok, out = solve_stack(np.array([np.eye(2), singular]), np.ones((2, 2, 1)))
    assert ok.tolist() == [True, False] and out.shape == (1, 2, 3)
    assert (np.geterr(), np.geterrcall()) == before


def test_solve_stack_empty_and_all_singular():
    cube = np.vstack([np.eye(2), -np.eye(2)])
    ok, out = solve_stack(np.array([cube[[0, 2]], cube[[1, 3]]]), np.zeros((2, 2, 0)))
    assert ok.tolist() == [False, False] and out.shape == (0, 2, 2)
    ok, out = solve_stack(np.empty((0, 2, 2)), np.empty((0, 2, 1)))
    assert ok.shape == (0,) and out.shape == (0, 2, 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_inverse_only_stack_equals_the_solve_against_identity(n):
    # Without a right-hand side the stack is inverted by the inv gufunc: the
    # same verdicts and bits as the inverse block of the [I | b] stack solve
    # and as linalg.inverse on each member.
    rng = np.random.default_rng(61 + n)
    mats = _mixed_stack(n, rng)
    ok, out = solve_stack(mats, np.empty((len(mats), n, 0)))
    solved_ok, solved = solve_stack(mats, rng.standard_normal((len(mats), n, 1)))
    assert ok.any() and not ok.all() and ok.tolist() == solved_ok.tolist()
    assert out.shape == (ok.sum(), n, n)
    assert out.tobytes() == np.ascontiguousarray(solved[:, :, :n]).tobytes()
    inverses = [_unless_singular(inverse, a) for a in mats]
    assert ok.tolist() == [x is not None for x in inverses]
    assert out.tobytes() == np.array([x for x in inverses if x is not None]).tobytes()
    # A stack whose members all pass gives every one, in order; one whose
    # members all fail, and an empty one, give none.
    passed, again = solve_stack(mats[ok], np.empty((ok.sum(), n, 0)))
    assert passed.all() and again.tobytes() == out.tobytes()
    for stack in (mats[~ok], mats[:0]):
        none_ok, none = solve_stack(stack, np.empty((len(stack), n, 0)))
        assert none_ok.shape == (len(stack),) and not none_ok.any()
        assert none.shape == (0, n, n)


# The two int_adjugates tests keep the names they had when the kernel also
# returned adj(B); they check the mask and |det| of int_determinants.
@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_int_adjugates_determinants_match_reference(dtype):
    rng = np.random.default_rng(31)
    for k in range(1, 6):
        mats = rng.integers(-9, 10, size=(40, k, k)).astype(dtype)
        mats[:5, -1] = mats[:5, 0]  # repeated rows: determinant 0
        mats[5:15][rng.random((10, k, k)) < 0.6] = 0  # zero pivots force row swaps
        assert k == 1 or any(a[0][0] == 0 and int_determinant(a) for a in mats.tolist())
        ok, dets = int_determinants(mats)
        assert dets.dtype == np.dtype(dtype)
        _check_determinants(mats, ok, dets)


def _cofactor_determinant(mat):
    """det(B) by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _cofactor_determinant([row[:j] + row[j + 1:]
                                                              for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def test_int_adjugates_match_cofactor_reference():
    rng = np.random.default_rng(33)
    for k in range(1, 6):
        mats = rng.integers(-4, 5, size=(30, k, k)).astype(float)
        mats[:5, -1] = mats[:5, 0]  # repeated rows: singular
        mats[5:10][rng.random((5, k, k)) < 0.6] = 0  # zero pivots force row swaps
        ok, dets = int_determinants(mats)
        assert dets.dtype == np.float64
        ref = [int(_cofactor_determinant(a)) for a in mats.tolist()]
        assert ok.tolist() == [d != 0 for d in ref]
        assert [int(d) for d in dets] == [abs(d) for d in ref if d != 0]


def test_int_determinants_exact_on_object_stacks():
    # Products of 1e12 entries overflow int64; Python ints stay exact.
    rng = np.random.default_rng(32)
    mats = rng.integers(-10**12, 10**12, size=(20, 4, 4)).astype(object)
    mats[0] = [[10**12, 10**12 - 1, 0, 0], [10**12 + 1, 10**12, 0, 0],
               [0, 0, 1, 0], [0, 0, 0, 1]]
    mats[1, 3] = mats[1, 0] - mats[1, 2]  # dependent rows: determinant 0
    ok, dets = int_determinants(mats)
    assert dets[0] == 1 and not ok[1]
    _check_determinants(mats, ok, dets)


def test_int_determinants_zero_leading_column_on_object_stacks():
    # The first pivot of mats[0] comes from a row swap.
    mats = np.random.default_rng(34).integers(-10**12, 10**12, size=(12, 3, 3)).astype(object)
    mats[0] = [[0, 0, 1], [10**12, 10**12 - 1, 0], [10**12 + 1, 10**12, 0]]
    mats[1, 2] = 2 * mats[1, 0]
    ok, dets = int_determinants(mats)
    assert not ok[1] and dets[0] == 1
    _check_determinants(mats, ok, dets)


def test_exact_dtype_tiers():
    # (k * Delta1**2 + 1)**k against 2**52 and 2**62.
    assert exact_dtype(3, 234) == np.float64  # 164269**3 < 2**52
    assert exact_dtype(3, 235) == np.int64
    assert exact_dtype(1, 2**26 - 1) == np.float64
    assert exact_dtype(1, 2**26) == np.int64
    assert exact_dtype(1, 2**31 - 1) == np.int64
    assert exact_dtype(1, 2**31) == object
    assert exact_dtype(6, 12) == np.int64
    assert exact_dtype(4, 10**12) == object


@pytest.mark.parametrize("k, Delta1, dtype", [
    (2, 5792, np.float64), (3, 234, np.float64), (4, 45, np.float64), (6, 8, np.float64),
    (2, 32767, np.int64), (3, 744, np.int64), (4, 107, np.int64), (6, 14, np.int64)])
def test_int_determinants_exact_at_the_widest_entries_of_each_tier(k, Delta1, dtype):
    # The widest entries exact_dtype still runs in float64 or int64: every
    # Bareiss intermediate, a minor or a product of two, stays exact there.
    assert exact_dtype(k, Delta1) == dtype and exact_dtype(k, Delta1 + 1) != dtype
    rng = np.random.default_rng(35)
    mats = rng.choice([-Delta1, Delta1], size=(30, k, k)).astype(dtype)
    mats[20:] = rng.integers(-Delta1, Delta1 + 1, size=(10, k, k))
    mats[25:, 0, 0] = 0
    ok, dets = int_determinants(mats)
    _check_determinants(mats, ok, dets)


def _check_determinants(mats, ok, dets):
    nonsingular = [a for a in mats.tolist() if int_determinant(a) != 0]
    assert ok.tolist() == [int_determinant(a) != 0 for a in mats.tolist()]
    assert [int(d) for d in dets] == [abs(int_determinant(a)) for a in nonsingular]


def test_int_determinants_empty_and_all_singular():
    cube = np.vstack([np.eye(2), -np.eye(2)])
    ok, dets = int_determinants(np.array([cube[[0, 2]], cube[[1, 3]]]))
    assert ok.tolist() == [False, False] and dets.shape == (0,)
    ok, dets = int_determinants(np.empty((0, 3, 3)))
    assert ok.shape == dets.shape == (0,)
