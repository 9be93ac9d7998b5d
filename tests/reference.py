"""Scalar references the stacked exact kernels are tested against, the
determinant-screened stacked solve the direct LAPACK call is tested against,
the per-column check ``linalg._checked``'s one-reduction pass is tested against,
the numpy edge choice the walk's scalar pass is tested against, the pass
over all C(m, n) row subsets the pivoting vertex search is tested against,
the one-source breadth-first search the graph distances are tested against,
and the northwest-corner rule for transportation plans."""

import math

import numpy as np

import polywalk.linalg as linalg_mod
from polywalk.errors import LeftwardEdge, Singular, StalledWalk
from polywalk.linalg import as_int_matrix
from polywalk.polytope import TIGHT_TOL, VertexWithBasis, _tight_keys, solved_subsets
from polywalk.shadow import SLOPE_TOL


def int_determinant(mat) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free elimination: every interior division is exact, so the
    arithmetic stays in Python ints throughout and the result is the exact
    determinant regardless of magnitude.
    """
    a = as_int_matrix(mat)
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError(f"matrix must be square, got {k}x{len(a[0])}")
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for p in range(i + 1, k):
                if a[p][i] != 0:
                    a[i], a[p] = a[p], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        for r in range(i + 1, k):
            lead = a[r][i]
            row_r = a[r]
            row_i = a[i]
            for c in range(i + 1, k):
                row_r[c] = (row_r[c] * piv - lead * row_i[c]) // prev
            row_r[i] = 0
        prev = piv
    return sign * a[-1][-1]


def solve_stack_screened(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked solve with a ``slogdet`` screen, through numpy's wrappers.

    LAPACK's LU gives a zero determinant sign exactly when it meets a zero
    pivot, so the sign screens those matrices out before one
    ``np.linalg.solve`` on the rest; the finiteness and ``1 / PIVOT_TOL``
    checks then run per matrix.  Returns the mask of the kept matrices and
    their solutions of ``mats[i] @ X = [I | rhs[i]]``.
    """
    n = mats.shape[1]
    ok = np.linalg.slogdet(mats)[0] != 0
    full = np.empty((int(np.count_nonzero(ok)), n, n + rhs.shape[2]))
    full[:, :, :n] = np.eye(n)
    full[:, :, n:] = rhs[ok]
    out = np.linalg.solve(mats[ok], full)
    good = np.isfinite(out).all(axis=(1, 2)) \
        & (np.abs(out[:, :, :n]).max(axis=(1, 2), initial=0.0) < 1.0 / linalg_mod.PIVOT_TOL)
    ok[ok] = good
    return ok, out[good]


def checked_by_columns(call, a: np.ndarray, *args) -> np.ndarray:
    """``call(a, *args)`` under the :class:`Singular` rule by one pass over
    the column peaks: a result with a column peak that is not finite is "not
    finite", else an inverse column (the first n) whose peak reaches
    ``1 / PIVOT_TOL`` names the largest such peak."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got {a.shape}")
    with np.errstate(all="ignore"):
        out = call(a, *args)
        peaks = np.maximum.reduce(np.abs(out)).tolist()
    if not all(map(math.isfinite, peaks)):
        raise Singular("the inverse or the solution is not finite")
    if (largest := max(peaks[:n])) >= 1.0 / linalg_mod.PIVOT_TOL:
        raise Singular(f"inverse entry {largest:.3e} reaches 1/{linalg_mod.PIVOT_TOL:.1e}")
    return out


def vertex_classes(inst):
    """Every feasible basis, grouped by its tight rows in combinations order,
    from one solve of every one of the C(m, n) row subsets.

    Each chunk of :func:`solved_subsets` keeps the subsets with min slack at
    least ``-TIGHT_TOL``.  Returns the vertices (each kept with its first
    basis), then every feasible basis with the index of the vertex it
    stands for.
    """
    n = inst.n
    index: dict[bytes, int] = {}
    verts, subsets, owner = [], [], []
    for bases, out in solved_subsets(inst.A, range(inst.m), n, inst.b):
        slack = inst.b - out[:, :, n] @ inst.A.T
        keep = slack.min(axis=1) >= -TIGHT_TOL
        degenerate = (np.abs(slack[keep]) <= TIGHT_TOL).sum(axis=1) > n
        for subset, x, flag, key in zip(bases[keep].tolist(), out[keep, :, n],
                                        degenerate.tolist(), _tight_keys(slack[keep])):
            idx = index.setdefault(key, len(verts))
            if idx == len(verts):
                verts.append(VertexWithBasis(x=x, basis=tuple(subset), degenerate=flag))
            subsets.append(subset)
            owner.append(idx)
    return verts, subsets, owner


def steepest_edge(directions, w1, w2, basis) -> tuple[int, float]:
    """The walk's edge choice as numpy array operations: the index and slope
    of the improving edge with the largest slope, ties to the earliest row.

    Raises ``StalledWalk`` when no edge gains more than ``SLOPE_TOL`` on
    w2, and ``LeftwardEdge`` at the first that does with a run of at most
    ``SLOPE_TOL`` on w1.
    """
    rises = directions @ w2
    runs = directions @ w1
    candidates = (rises > SLOPE_TOL).nonzero()[0]
    if candidates.size == 0:
        raise StalledWalk("no improving edge although the target was not reached")
    leftward = candidates[runs[candidates] <= SLOPE_TOL]
    if leftward.size:
        raise LeftwardEdge(f"edge relaxing row {basis[leftward[0]]} gains eta "
                           f"but w1.d = {runs[leftward[0]]:.3e}")
    edge_slopes = rises[candidates] / runs[candidates]
    # argmax keeps the first maximum: ties go to the earliest basis row.
    best = int(edge_slopes.argmax())
    return int(candidates[best]), float(edge_slopes[best])


def hop_distances(adjacency, source) -> list[int]:
    """Edge counts from source to every vertex of a graph given as neighbour
    sets, -1 where no path reaches: one breadth-first search, one queue."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = [source]
    for u in queue:
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def northwest_corner(supplies, demands) -> np.ndarray:
    """The transportation plan the northwest-corner rule fills, (p, q)."""
    plan = np.zeros((len(supplies), len(demands)))
    s, d = list(supplies), list(demands)
    i = j = 0
    while i < len(s) and j < len(d):
        plan[i, j] = amount = min(s[i], d[j])
        s[i] -= amount
        d[j] -= amount
        if s[i] == 0:
            i += 1
        else:
            j += 1
    return plan
