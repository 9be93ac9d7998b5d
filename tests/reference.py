"""Scalar references the stacked exact kernels are tested against, and the
northwest-corner rule for transportation plans."""

import numpy as np

from polywalk.linalg import as_int_matrix


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
