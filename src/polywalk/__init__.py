"""Short edge paths on polytopes via randomized shadow projections.

The package walks between two vertices of ``{x : A x <= b}`` along polytope
edges, guided by a random two-dimensional projection built from the tight
rows at the endpoints.  The expected number of edges is governed by the
flatness of the constraint matrix, which is computed exactly here together
with the sub-determinant bounds that control it for integer matrices.
"""

from . import errors
from .errors import PolywalkError
from .experiments import (
    CSV_COLUMNS,
    BoundReport,
    TrialBatch,
    bound_report,
    emit,
    run_batch,
)
from .flatness import (
    FlatnessReport,
    SubdetReport,
    certify_delta_Delta,
    delta_A,
    delta_basis,
    delta_hat,
    random_orthogonal,
    rotate_rows,
    subdet_report,
)
from .instances import (
    GeneratorSpec,
    farthest_vertex_pair,
    gen_cut_cube,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_random_sphere,
    gen_rotated,
    gen_simplex,
    gen_transportation,
    generate,
    read_instance,
    write_instance,
)
from .linalg import (
    as_int_matrix,
    as_matrix,
    as_vector,
    inverse,
    normalize,
    rank,
    solve,
)
from .polytope import (
    Instance,
    VertexWithBasis,
    bfs_distance,
    build_instance,
    edge_directions,
    enumerate_vertices,
    feasible_bases,
    ratio_step,
    tight_rows,
    verify_vertex,
    vertex_graph,
)
from .shadow import (
    ObjectivePair,
    ShadowPath,
    find_path,
    project,
    sample_objectives,
    walk,
)

__version__ = "0.1.0"
