"""Dense kernels against numpy oracles and hand-computed values."""

import numpy as np
import numpy.testing as npt
import pytest

from polywalk.errors import NonIntegerEntry, Singular, ZeroVector
from polywalk.linalg import (
    as_int_matrix,
    as_matrix,
    as_vector,
    int_determinant,
    inverse,
    normalize,
    rank,
    solve,
)


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


def test_normalize_unit_and_zero():
    npt.assert_allclose(np.linalg.norm(normalize([3.0, 4.0])), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0, 0.0])


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


def test_rank_unit_rows_with_duplicate():
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
    assert rank(rows) == 2


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
