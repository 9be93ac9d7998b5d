"""Flatness of row systems and exact sub-determinant bounds.

The flatness of n independent vectors is the smallest sine of the angle
between any one of them (normalized) and the span of the others; the
flatness of a whole constraint matrix is the minimum over all independent
n-row subsets.  It is invariant under row scaling and under orthogonal maps,
and for integer matrices it is bounded below through the largest
sub-determinants, which are computed exactly here.

Numerically, everything runs through the inverse of the normalized row
matrix, whose conditioning is itself bounded by 1/flatness; reports carry
the number of bases checked so callers can judge the enumeration.

The enumerations run on stacks of row subsets, one chunk at a time:
:func:`delta_A` inverts each chunk of the one subset stream at once, under
:func:`delta_basis`'s singularity rule, with one square root per basis,
after the max over its columns.  Every exact minor, the certificate's
Delta1 and Delta_{n-1} included, comes from :func:`subdet_report`, which
validates its matrix once and takes its chunks of minors through one exact
kernel, :func:`~polywalk.linalg.int_determinants`.  Expanding a minor along
its unit rows (+-e_j) leaves a smaller minor of the other rows, on columns
those unit rows do not cover, so it enumerates the minors of the other rows
only and reads every order off them, in the kernel dtype of one rule,
:func:`~polywalk.linalg.exact_dtype`: machine numbers (float64, then int64)
where a Hadamard bound keeps every intermediate exact, Python ints otherwise.

Flatness depends on A alone, so an instance keeps :func:`delta_A`'s report:
a later :func:`delta_A`, and :func:`certify_delta_Delta` after it, return
it after checking ``ENUM_CAP``, and a call that raises keeps nothing.
:func:`subdet_report` keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import linalg
from .errors import CapExceeded, DependentVectors, NotOrthogonal, Singular
from .polytope import Instance, _check_cap, build_instance, solved_subsets

SUBDET_CAP = 10_000_000

# Tolerance used when certifying the integral lower bound.
CERT_TOL = 1e-6


@dataclass(frozen=True)
class FlatnessReport:
    """Flatness of a whole matrix with the witnessing row subset."""

    delta: float
    argmin_basis: tuple[int, ...]
    method: str
    n_bases_checked: int


@dataclass(frozen=True)
class SubdetReport:
    """Largest absolute sub-determinants of an integer matrix.

    ``Delta`` ranges over all square submatrices up to order n, ``Delta1``
    over single entries, ``Delta_n_minus_1`` over order n-1.  The product
    n * Delta1 * Delta_n_minus_1 upper-bounds the inverse flatness.
    """

    Delta: int
    Delta1: int
    Delta_n_minus_1: int
    bound_on_inv_delta: float


def _normalized_columns(vectors) -> np.ndarray:
    cols = [linalg.normalize(z) for z in vectors]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("vectors must share one dimension")
    return np.column_stack(cols)


def delta_hat(span_vectors, z) -> float:
    """Sine of the angle between z and the span of ``span_vectors``.

    Computed from one linear solve: with B holding the normalized vectors as
    columns (z last), the solution x of B^T x = e_n has 1/||x|| equal to the
    wanted sine.  In dimension one the span list is empty and the sine is
    1.0.  Raises :class:`DependentVectors` when the n vectors together are
    dependent.
    """
    vectors = list(span_vectors) + [z]
    B = _normalized_columns(vectors)
    if B.shape[0] != B.shape[1]:
        raise ValueError(f"need n-1 span vectors for dimension {B.shape[0]}, "
                         f"got {B.shape[1] - 1}")
    try:
        x = linalg.solve(B.T, np.eye(B.shape[0])[:, -1])
    except Singular as exc:
        raise DependentVectors(str(exc)) from exc
    return min(1.0, 1.0 / float(np.sqrt(x @ x)))


def delta_basis(vectors) -> float:
    """Flatness of n independent vectors.

    Equals the minimum over k of :func:`delta_hat` with vector k singled
    out, but is computed in one shot as the reciprocal of the largest column
    norm of the inverse transposed (normalized) vector matrix.
    """
    B = _normalized_columns(vectors)
    if B.shape[0] != B.shape[1]:
        raise ValueError(f"need exactly {B.shape[0]} vectors, got {B.shape[1]}")
    try:
        M = linalg.inverse(B.T)
    except Singular as exc:
        raise DependentVectors(str(exc)) from exc
    col_norms = np.sqrt((M * M).sum(axis=0))
    return min(1.0, 1.0 / float(np.max(col_norms)))


def delta_A(inst: Instance) -> FlatnessReport:
    """Flatness of the constraint matrix: minimum over all independent bases.

    Exhaustive over the C(m, n) row subsets, skipping dependent ones: each
    chunk of :func:`~polywalk.polytope.solved_subsets`, under ``ENUM_CAP``, on
    the rows re-normalised here is inverted as one stack under
    :func:`delta_basis`'s rule.  The witnessing subset is the first one
    attaining the minimum.  The instance keeps the report, which a later call
    returns after checking ``ENUM_CAP``.
    """
    _check_cap(inst.m, inst.n)
    if inst._delta_memo is not None:
        return inst._delta_memo
    unit_rows = linalg.unit_rows(inst.A)
    best = math.inf
    argmin: tuple[int, ...] = ()
    checked = 0
    for subsets, inverses in solved_subsets(unit_rows, range(inst.m), inst.n):
        checked += len(inverses)
        # Squares laid out (i, j, basis): both reductions run over outer axes,
        # rows i summed in order.  sqrt is monotone: the root of the max is the max norm.
        sums = np.square(inverses.transpose(1, 2, 0), order="C").sum(axis=0)
        values = np.minimum(1.0, 1.0 / np.sqrt(sums.max(axis=0)))
        k = int(values.argmin())
        if values[k] < best:
            best = float(values[k])
            argmin = tuple(int(i) for i in subsets[k])
    if not checked:
        raise DependentVectors("no independent n-row subset exists")
    report = FlatnessReport(delta=best, argmin_basis=argmin,
                            method="enumeration", n_bases_checked=checked)
    object.__setattr__(inst, "_delta_memo", report)
    return report


def subdet_report(int_mat) -> SubdetReport:
    """Exact largest sub-determinants of an integer matrix, all orders.

    A *unit row* has one nonzero entry, +1 or -1.  Expanding a minor along
    its unit rows shows that every nonzero K-minor is, up to sign, a k-minor
    of the other rows on some column set S, completed by K - k unit rows on
    columns outside S: a unit row whose nonzero entry lies outside the
    minor's columns is a zero row of it, and two on one column are
    dependent.  Conversely each such completion is a K-minor.  So with u(S)
    the number of unit-row columns outside S, a k-minor on S counts toward
    every order from k to k + u(S), and the empty minor gives 1 to every
    order up to the number of unit-row columns.

    Only the minors of the other rows are enumerated, after zero rows are
    dropped and rows that repeat up to sign are kept once (a minor holding
    both has determinant 0).  Each chunk of them goes, stacked, through
    :func:`~polywalk.linalg.int_determinants`, whose |determinants| of the
    nonsingular minors give the chunk's largest per order (a singular minor
    adds 0); each order's row and column subsets are two index arrays, and a
    chunk gathers its pairs from them by position.  :func:`subdet_rows`
    picks those rows and checks their minor count against ``SUBDET_CAP``.
    Order k runs in the dtype :func:`~polywalk.linalg.exact_dtype` picks for
    k and Delta1.
    """
    mat = linalg.as_int_matrix(int_mat)
    n = len(mat[0])
    Delta1 = max(abs(v) for row in mat for v in row)
    rest, unit_col = _subdet_rows(mat)
    r = len(rest)
    k_max = min(r, n)
    # Orders above min(m, n) have no minors; their largest is 0.
    delta_by_order = [0] * (n + 1)
    n_unit = int(np.count_nonzero(unit_col))
    # The empty minor, completed by unit rows alone.
    delta_by_order[1:n_unit + 1] = [1] * n_unit
    for k in range(1, k_max + 1):
        entries = np.array(rest, dtype=linalg.exact_dtype(k, Delta1))
        rows = np.fromiter(chain.from_iterable(combinations(range(r), k)),
                           dtype=np.intp).reshape(-1, k)
        cols = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                           dtype=np.intp).reshape(-1, k)
        spare = n_unit - np.count_nonzero(unit_col[cols], axis=1)
        # Row subsets outer, column subsets inner, in chunks of SUBSET_CHUNK.
        count = len(rows) * len(cols)
        for lo in range(0, count, linalg.SUBSET_CHUNK):
            pair = np.arange(lo, min(lo + linalg.SUBSET_CHUNK, count))
            r_sub, c_sub = rows[pair // len(cols)], pair % len(cols)
            minors = entries[r_sub[:, :, None], cols[c_sub][:, None, :]]
            ok, dets = linalg.int_determinants(minors)
            # Order k + t takes the minors with at least t spare unit rows.
            u = spare[c_sub[ok]]
            for t in range(int(u.max(initial=-1)) + 1):
                delta_by_order[k + t] = max(delta_by_order[k + t], int(dets[u >= t].max()))
    Delta_n_minus_1 = delta_by_order[n - 1] if n >= 2 else 1
    return SubdetReport(Delta=max(delta_by_order),
                        Delta1=Delta1,
                        Delta_n_minus_1=Delta_n_minus_1,
                        bound_on_inv_delta=float(n * Delta1 * Delta_n_minus_1))


def subdet_rows(int_mat) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The rows whose minors :func:`subdet_report` enumerates, and its unit rows.

    Returns the rows that are not zero or unit rows, each kept once up to
    sign, and a mask of the columns that hold a unit row's nonzero entry.
    Raises :class:`CapExceeded` when the count of their minors, the sum over
    k of C(r, k) * C(n, k) for r such rows, exceeds ``SUBDET_CAP``.
    """
    return _subdet_rows(linalg.as_int_matrix(int_mat))


def _subdet_rows(mat: list[list[int]]) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """:func:`subdet_rows` on rows already from ``as_int_matrix``."""
    n = len(mat[0])
    unit_col = np.zeros(n, dtype=bool)
    kept: dict[tuple[int, ...], None] = {}
    for row in mat:
        support = [j for j, v in enumerate(row) if v]
        if len(support) == 1 and abs(row[support[0]]) == 1:
            unit_col[support[0]] = True
        elif support:
            sign = 1 if row[support[0]] > 0 else -1
            kept.setdefault(tuple(sign * v for v in row), None)
    r = len(kept)
    total = sum(math.comb(r, k) * math.comb(n, k) for k in range(1, min(r, n) + 1))
    if total > SUBDET_CAP:
        raise CapExceeded(f"{total} square submatrices exceed cap {SUBDET_CAP}")
    return list(kept), unit_col


def certify_reports(report: FlatnessReport, bound_on_inv_delta: float) -> tuple[bool, float]:
    """Check 1/delta <= n * Delta1 * Delta_{n-1}, the bound given.

    Returns (holds, slack) with slack = bound - 1/delta; ``holds`` allows a
    ``CERT_TOL`` tolerance on the comparison.
    """
    inv_delta = 1.0 / report.delta
    slack = bound_on_inv_delta - inv_delta
    return inv_delta <= bound_on_inv_delta + CERT_TOL, slack


def certify_delta_Delta(inst: Instance) -> tuple[bool, float]:
    """The certificate of :func:`certify_reports` for an integral instance.

    The bound comes from :func:`subdet_report`, as in ``bound-check``, so
    ``SUBDET_CAP`` guards it; :func:`delta_A` runs first and raises
    :class:`DependentVectors` on a matrix of rank below n, or returns the
    instance's kept report.
    """
    if not inst.integral:
        raise ValueError("certificate needs an instance ingested with integer A")
    return certify_reports(delta_A(inst), subdet_report(inst.int_A).bound_on_inv_delta)


def rotate_rows(inst: Instance, Q) -> Instance:
    """Apply an orthogonal map to every row of A, keeping b.

    Flatness is invariant under this.  Stored endpoints are rotated along
    (x -> Q x keeps them vertices of the rotated system).  The result is a
    float instance even when the input was integral.
    """
    mat = linalg.as_matrix(Q)
    n = inst.n
    if mat.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}, got {mat.shape}")
    defect = float(np.max(np.abs(mat.T @ mat - np.eye(n))))
    if defect > 1e-9:
        raise NotOrthogonal(f"Q^T Q deviates from identity by {defect:.3e}")
    rotated = inst.raw_A @ mat.T
    return build_instance(rotated, inst.raw_b, name=f"{inst.name}~rotated",
                          integral=False,
                          x1=None if inst.x1 is None else mat @ inst.x1,
                          x2=None if inst.x2 is None else mat @ inst.x2)


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """A seeded random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))
