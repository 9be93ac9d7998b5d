"""Dense real kernel and exact integer minors.

Real vectors and matrices are plain float64 numpy arrays; :func:`as_vector`
and :func:`as_matrix` validate shape and finiteness at the package boundary.
Integer matrices have one exact kernel, :func:`int_determinants`, and one
rule, :func:`exact_dtype`, for the dtype it runs in: float64 or int64 where a
Hadamard bound keeps every intermediate exact, unbounded Python ints
otherwise.

:func:`solve`, :func:`inverse` and :func:`solve_stack` call the LAPACK
gufuncs behind ``np.linalg.solve`` and ``np.linalg.inv`` directly, so they
run the same LU and give the same bits without numpy's Python wrappers.  No
``signature`` is passed: those wrappers pass ``dd->d``, and every input here
is float64 already (from :func:`as_matrix` or a float stack), so the gufunc
picks the same loop.  :func:`solve` solves against ``[I | b]``, copied from
an identity block cached for the eight orders solved last, because
column n of that solve has other bits than a one-column solve.  The three
share one rule for :class:`Singular`: the floating-point error state is
ignored around the call, so an exactly zero pivot shows only as the NaN that
LAPACK fills the result with.  :func:`rank` calls the SVD gufunc the same
way, under ``np.linalg.svd``'s error state, which raises its ``LinAlgError``
when LAPACK does not converge.  Two thresholds are used package-wide and kept
here, as module constants read at call time, with no per-call override:

* ``PIVOT_TOL`` -- :func:`solve` and :func:`inverse` report :class:`Singular`
  when the result is not finite (an exactly zero pivot's NaN fill included)
  or an entry of the inverse reaches ``1 / PIVOT_TOL``.  The last row of the
  inverse carries 1/u_nn of the LU factors, so every final pivot below
  ``PIVOT_TOL`` is caught.  The check is one NaN-keeping reduction, every
  |entry| below ``1 / PIVOT_TOL``, which passes a result both rules pass;
  only a result that fails it, a huge solution entry beside a small inverse
  included, goes on to the per-column pass that gives the verdict and its
  message.
* ``RANK_TOL`` -- :func:`rank` counts the singular values above ``RANK_TOL``
  times the largest one.

Enumerations over row subsets run on stacks of ``SUBSET_CHUNK`` matrices:
:func:`solve_stack` applies :func:`solve`'s rule to a whole stack of bases in
one LAPACK call, with no determinant screen (without a right-hand side the
``inv`` gufunc, as :func:`inverse`), and :func:`int_determinants` runs
fraction-free Bareiss elimination on a stack of integer matrices, which
gives every nonsingular one's |determinant|.

Row norms (:func:`row_norms`) are taken from plain sums of squares, and
recomputed on the row scaled by its largest |entry| only where such a sum
over- or underflows.

One immutability rule covers the package: every array it keeps past the
call that made it (an :class:`~polywalk.polytope.Instance`'s arrays, verified
points, edge directions, the identity blocks here and every array in the
memos of :mod:`polywalk.shadow`) is built by :func:`_frozen` over an
immutable buffer, so no caller can switch its ``writeable`` flag back, and a
path record depends on nothing but (A, b, x1, x2, seed).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonIntegerEntry, Singular, ZeroVector

PIVOT_TOL = 1e-12
RANK_TOL = 1e-9

# Bases per stack of an enumeration: the subsets per chunk of the subset
# stream, and the bases per solve, and so at most per ratio test, of the
# pivoting vertex search.  At order 10 a chunk's bases, right-hand sides and solutions take
# about 0.7 MB; larger chunks run no faster on the test corpus but raise the
# process's peak memory.
SUBSET_CHUNK = 256

# Norms at or below this are treated as exactly zero.
_ZERO_NORM_FLOOR = 1e-300

# The gufuncs np.linalg.solve, np.linalg.inv and np.linalg.svd (without u and
# v) call.  Those wrappers pass signature="dd->d" or "d->d"; every input here
# is already float64, so the gufunc picks that loop itself.  The SVD keeps
# svd's error state, which turns LAPACK's failure to converge into LinAlgError.
# numpy 2.0 is the first with the one svd gufunc; pyproject.toml requires it.
_SOLVE = _umath_linalg.solve
_INV = _umath_linalg.inv


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


_SVD = np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore",
                   under="ignore")(_umath_linalg.svd)


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    # The reduction ndarray.all runs, without its Python-level wrapper.
    if not np.logical_and.reduce(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``a`` over an immutable ``bytes`` buffer: numpy
    refuses ``flags.writeable = True`` on it, and on every view of it."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    # The reduction ndarray.all runs, without its Python-level wrapper.
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("matrix entries must be finite")
    return a


def row_norms(rows: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """The norms of a ``(k, n)`` array's rows, given their sums of ``squares``.

    A norm is ``sqrt(squares)``, the bits of the caller's own expression,
    wherever the sum is finite and at least the smallest normal float.  A
    nonzero row whose sum overflowed (the caller ignores the overflow) or
    underflowed is divided by its largest |entry| s first, and its norm is s
    times the norm of the scaled row.
    """
    norms = np.sqrt(squares)
    redo = (squares < np.finfo(float).tiny) | (squares == np.inf)
    if redo.any():
        redo &= rows.any(axis=1)
        scale = np.abs(rows[redo]).max(axis=1, keepdims=True)
        norms[redo] = scale[:, 0] * np.sqrt(((rows[redo] / scale) ** 2).sum(axis=1))
    return norms


def normalize(values) -> np.ndarray:
    """Return v / ||v||, raising :class:`ZeroVector` when the norm vanishes."""
    v = as_vector(values)
    with np.errstate(over="ignore"):
        norm = float(row_norms(v[None], np.array([v @ v]))[0])
    if norm <= _ZERO_NORM_FLOOR:
        raise ZeroVector("cannot normalize a vector of (near-)zero norm")
    return v / norm


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row over its norm: :func:`normalize`'s bits, no zero check; every
    row's ``r @ r`` comes from one stacked (1, n) @ (n, 1) matmul, same dot."""
    with np.errstate(over="ignore"):
        return rows / row_norms(rows, np.matmul(rows[:, None], rows[:, :, None])[:, 0, 0])[:, None]


@np.errstate(all="ignore")
def _checked(call, a: np.ndarray, *args) -> np.ndarray:
    """``call(a, *args)``: a LAPACK LU solve whose first n columns are a^-1.

    Raises :class:`Singular` when the result is not finite, as when LAPACK
    meets an exactly zero pivot and fills the result with NaN, or when an
    entry of the inverse reaches ``1 / PIVOT_TOL``; there is no determinant
    screen.  As a decorator the error state is not rebuilt per call.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got {a.shape}")
    out = call(a, *args)
    # One reduction that keeps a NaN: every |entry| below the bound passes
    # both rules, so only a result that fails it needs the column pass.
    if np.maximum.reduce(np.abs(out), axis=None) < 1.0 / PIVOT_TOL:
        return out
    # Every column peak is finite exactly when the whole result is.
    peaks = np.maximum.reduce(np.abs(out)).tolist()
    if not all(map(math.isfinite, peaks)):
        raise Singular("the inverse or the solution is not finite")
    if (largest := max(peaks[:n])) >= 1.0 / PIVOT_TOL:
        raise Singular(f"inverse entry {largest:.3e} reaches 1/{PIVOT_TOL:.1e}")
    return out


@functools.lru_cache(maxsize=8)
def _identity_block(n: int) -> np.ndarray:
    """The (n, n + 1) block [I | 0], kept for the eight orders solved last,
    so a solve at a large order pins its block only until eight other orders
    have been solved."""
    return _frozen(np.eye(n, n + 1))


def solve(mat, rhs) -> np.ndarray:
    """Solve the square system mat @ x = rhs by LAPACK's LU solve against [I | rhs]."""
    a, b = as_matrix(mat), as_vector(rhs)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} does not match matrix order {n}")
    full = _identity_block(n).copy()
    full[:, n] = b
    return _checked(_SOLVE, a, full)[:, -1]


def inverse(mat) -> np.ndarray:
    """Invert a square matrix by LAPACK's LU solve against the identity (``inv``)."""
    return _checked(_INV, as_matrix(mat))


def rank(mat) -> int:
    """Numerical rank: singular values above ``RANK_TOL`` times the largest.

    The relative floor makes the answer invariant under global scaling of
    the matrix; the zero matrix has rank 0.
    """
    sigma = _SVD(as_matrix(mat))
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))


@np.errstate(all="ignore")
def solve_stack(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve` and :func:`inverse` on a ``(s, n, n)`` stack at once.

    Returns a mask of the matrices that are not :class:`Singular` under
    :func:`solve`'s rule and, for those in stack order, the solutions of
    ``mats[i] @ X = [I | rhs[i]]`` (``rhs`` is ``(s, n, r)``; at ``r = 0`` the
    ``inv`` gufunc gives the inverses).  One LAPACK call runs over the whole
    stack, under the same ignored error state, and the per-matrix finiteness
    and ``1 / PIVOT_TOL`` checks drop each NaN-filled member with the rest;
    when none is dropped, the solved stack itself is returned, not a copy.
    """
    n, r = mats.shape[1], rhs.shape[2]
    if r:
        full = np.empty((len(mats), n, n + r))
        full[:, :, :n] = np.eye(n)
        full[:, :, n:] = rhs
        out = _SOLVE(mats, full)
    else:
        out = _INV(mats)
    # Each matrix reduced as one row, several times faster than over two
    # trailing axes.  A NaN or an infinity in the inverse block fails the
    # bound by itself, so only the solution columns, if any, need isfinite.
    s = len(out)
    ok = np.abs(out[:, :, :n]).reshape(s, n * n).max(axis=1) < 1.0 / PIVOT_TOL
    if r:
        ok &= np.isfinite(out[:, :, n:]).reshape(s, n * r).all(axis=1)
    return ok, out if ok.all() else out[ok]


def exact_dtype(k: int, Delta1: int) -> np.dtype:
    """The dtype in which :func:`int_determinants` is exact on k x k matrices.

    ``Delta1`` bounds the absolute values of the integer entries.  Every
    number the elimination forms is a minor of B or the product of two
    before a division, and Hadamard's inequality bounds the square of a
    minor below H = (k * Delta1**2 + 1)**k.  So float64 is exact while
    H < 2**52 (every product, difference and quotient is an integer below
    2**53), int64 while H < 2**62 (every difference of two products is below
    2**63), and numpy ``object`` (Python ints) is needed otherwise.
    """
    bound = (k * Delta1 * Delta1 + 1) ** k
    if bound < 2**52:
        return np.dtype(np.float64)
    if bound < 2**62:
        return np.dtype(np.int64)
    return np.dtype(object)


def int_determinants(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact |determinants| of a ``(s, n, n)`` integer stack.

    Bareiss's fraction-free elimination (1968), on the block below and to the
    right of each pivot only: after step k every entry of that block is a
    (k + 1)-minor of B, up to sign, so every division is exact (``/`` on a
    float stack, ``//`` on any other) and the result is exact in the dtype
    :func:`exact_dtype` picks for the stack.  The row swap is chosen per
    matrix, and a matrix whose pivot column is zero from the diagonal down
    is singular and leaves the stack.

    Returns the mask of the nonsingular matrices and, for those in stack
    order, |det B|.
    """
    a = mats.copy()
    live = np.arange(len(a))
    prev = np.ones(len(a), dtype=a.dtype)
    for _ in range(a.shape[1]):
        nonzero = a[:, :, 0] != 0
        keep = nonzero.any(axis=1)
        if not keep.all():
            a, prev, live, nonzero = a[keep], prev[keep], live[keep], nonzero[keep]
        p = nonzero.argmax(axis=1)
        swap = (p != 0).nonzero()[0]
        a[swap, 0], a[swap, p[swap]] = a[swap, p[swap]], a[swap, 0]
        piv = a[:, 0, 0]
        a = piv[:, None, None] * a[:, 1:, 1:] - a[:, 1:, :1] * a[:, :1, 1:]
        if a.dtype.kind == "f":
            a /= prev[:, None, None]
        else:
            a //= prev[:, None, None]
        prev = piv
    ok = np.zeros(len(mats), dtype=bool)
    ok[live] = True
    return ok, np.abs(prev)


def as_int_matrix(rows) -> list[list[int]]:
    """Coerce nested data to a rectangular matrix of exact Python ints.

    Floats are accepted only when integer-valued; everything else raises
    :class:`NonIntegerEntry`.
    """
    out: list[list[int]] = []
    width = None
    for row in rows:
        converted: list[int] = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                raise NonIntegerEntry(f"boolean entry {v!r} is not a valid integer entry")
            if isinstance(v, (int, np.integer)) or (
                    isinstance(v, (float, np.floating)) and float(v).is_integer()):
                converted.append(int(v))
            else:
                raise NonIntegerEntry(f"entry {v!r} is not exactly an integer")
        if width is None:
            width = len(converted)
        elif len(converted) != width:
            raise ValueError("matrix rows have differing lengths")
        out.append(converted)
    if not out or width == 0:
        raise ValueError("expected a nonempty integer matrix")
    return out
