"""
Exact sub-determinants bound the flatness of integer matrices
=============================================================

For an integer matrix the reciprocal of the flatness is at most
n * Delta_1 * Delta_{n-1}, where Delta_k is the largest absolute k x k
minor.  The minors are computed exactly with fraction-free integer
elimination, so the certificate never suffers from rounding.  One report
gives the largest minor of every order; the certificate reads Delta_1 and
Delta_{n-1} off it.  Totally unimodular matrices (all minors in {-1, 0, 1})
make the bound collapse to n.
"""

from polywalk import (
    certify_delta_Delta,
    delta_A,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_transportation,
    subdet_report,
)

# --- Exact determinants where floating point fails -----------------------
# det = 2 * 10**18 - 1 lies above 2**53, so float64 cannot hold it; the
# report computes it on Python ints.
big = 10**9
mat = [[big, -(big - 1)], [big + 1, big]]
print("exact 2x2 determinant with 18-digit products:", subdet_report(mat).Delta)

# --- Sub-determinant profile of a small matrix ---------------------------
report = subdet_report([[2, 1], [1, 1]])
print(f"[[2,1],[1,1]]: Delta {report.Delta}, Delta1 {report.Delta1}, "
      f"Delta_(n-1) {report.Delta_n_minus_1}, "
      f"bound on 1/delta {report.bound_on_inv_delta}")

# --- Certificates on structured instances --------------------------------
for inst in (gen_hypercube(3), gen_transportation(2, 3, seed=0),
             gen_transportation(3, 3, seed=0), gen_degenerate_pyramid()):
    sub = subdet_report(inst.int_A)
    holds, slack = certify_delta_Delta(inst)
    delta = delta_A(inst).delta
    print(f"{inst.name}: Delta {sub.Delta} (unimodular: {sub.Delta == 1}), "
          f"Delta_(n-1) {sub.Delta_n_minus_1}; "
          f"1/delta {1.0 / delta:.4f} <= {sub.bound_on_inv_delta} "
          f"-> {'holds' if holds else 'violated'} (slack {slack:.4f})")
