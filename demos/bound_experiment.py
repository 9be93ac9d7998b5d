"""
Monte Carlo check of the expected path-length ceiling
=====================================================

Repeated seeded walks give an empirical mean path length, which is
compared against the ceiling 8 m n^2 / delta^2.  Observed means sit far
below the ceiling; the report records both and their ratio, plus the
breadth-first-search distance as an exact lower bound.
"""

from polywalk import (
    bfs_distance,
    bound_report,
    emit,
    gen_hypercube,
    gen_random_sphere,
    gen_transportation,
    run_batch,
)

for inst in (gen_hypercube(4), gen_random_sphere(12, 4, seed=0),
             gen_transportation(3, 3, seed=0)):
    batch = run_batch(inst, inst.x1, inst.x2, n_trials=200, base_seed=0)
    lower = bfs_distance(inst, inst.x1, inst.x2)
    report = bound_report(batch, inst, bfs_lower=lower)
    print(f"{inst.name}: mean {report.mean_length:.3f} "
          f"(stderr {report.std_err:.3f}), bfs lower bound {lower}, "
          f"ceiling {report.bound_8mn2_over_delta2:.1f}, "
          f"ratio {report.ratio_mean_to_bound:.4f}")

# Reports serialize to a pinned CSV header and a JSON round trip.
print()
print(emit(report, "csv"), end="")
