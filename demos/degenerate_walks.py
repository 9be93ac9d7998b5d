"""
Degenerate vertices: the lexicographic rule
===========================================

A vertex with more than n tight rows has several bases, and a ratio test
that lands on it has several rows to choose from.  The walk reads the
right-hand side as b + (eps, eps**2, ..., eps**m) for a symbolic eps > 0,
which splits every degenerate vertex into simple ones without building a
perturbed polytope: the endpoint stands for its first lexicographically
feasible basis, a tie goes to the row the ray meets first on the perturbed
polytope, and a pivot that moves nowhere on the original polytope is merged
into the vertex it leaves.
"""

import numpy as np

from polywalk import find_path, gen_degenerate_pyramid, gen_transportation, tight_rows

pyramid = gen_degenerate_pyramid()
apex = pyramid.x2
print("pyramid rows:", pyramid.int_A)
print("apex", apex, "has", len(tight_rows(pyramid, apex)), "tight rows in R^3")

for seed in range(4):
    path = find_path(pyramid, pyramid.x1, pyramid.x2, seed=seed)
    print(f"seed {seed}: {path.status}, {path.length} step(s), "
          f"objectives drawn from seed {path.objective.seed}")
    for vertex in path.vertices:
        slack = float(np.min(pyramid.slack(vertex.x)))
        print(f"  {np.round(vertex.x, 6)}  basis {vertex.basis}  min slack {slack:+.2e}")

# Transportation polytopes are degenerate almost everywhere: each kept step
# records the pivot that reached a new point, and zero-length pivots between
# bases of one vertex leave no trace in the path.
transport = gen_transportation(3, 4, 0)
print("transportation 3x4: x1 has", len(tight_rows(transport, transport.x1)),
      "tight rows in R^%d" % transport.n)
for seed in range(3):
    path = find_path(transport, transport.x1, transport.x2, seed=seed)
    steps = ", ".join(f"{leave}->{enter}" for leave, enter, _ in path.pivot_trace)
    print(f"seed {seed}: {path.status}, {path.length} steps: {steps}")
