"""Instance families, endpoint defaults, and the JSON file format.

Every generator is deterministic in its arguments (seeded draws use numpy's
default generator), returns a canonical :class:`~polywalk.polytope.Instance`,
and fills ``x1``/``x2`` with a sensible endpoint pair: pinned corners for the
structured families, the farthest pair in the edge graph for the sampled
ones.

The on-disk format is JSON with the keys ``name, m, n, A, b, integral, x1,
x2`` (the endpoints optional).  Integral matrices are written as exact
integers, floats with full round-trip precision; non-finite numbers are
rejected on read.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import jsontext, linalg
from .errors import (
    InfeasibleTotals,
    ParseError,
    SchemaError,
    UnboundedSample,
)
from .flatness import random_orthogonal, rotate_rows
from .polytope import (
    Instance,
    VertexWithBasis,
    _bfs_levels,
    build_instance,
    vertex_graph,
)

_SPHERE_RESAMPLE_LIMIT = 64
_TOTALS_RESAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class GeneratorSpec:
    """A family name plus its size/seed parameters, as used by the CLI.

    ``m`` is family-dependent: the row count for random-sphere, the second
    grid dimension for transportation, ignored by the structured families.
    """

    family: str
    n: int
    m: int | None = None
    seed: int = 0


def gen_hypercube(n: int) -> Instance:
    """The unit cube 0 <= x <= 1 with endpoints at opposite corners."""
    if n < 1:
        raise ValueError("dimension must be positive")
    eye = np.eye(n, dtype=int)
    A = np.vstack([eye, -eye])
    b = np.concatenate([np.ones(n), np.zeros(n)])
    return build_instance(A, b, name=f"hypercube-n{n}", integral=True,
                          x1=np.zeros(n), x2=np.ones(n))


def gen_simplex(n: int) -> Instance:
    """The standard simplex x >= 0, sum x <= 1, from the origin to e1."""
    if n < 1:
        raise ValueError("dimension must be positive")
    A = np.vstack([-np.eye(n, dtype=int), np.ones((1, n), dtype=int)])
    b = np.concatenate([np.zeros(n), [1.0]])
    x2 = np.zeros(n)
    x2[0] = 1.0
    return build_instance(A, b, name=f"simplex-n{n}", integral=True,
                          x1=np.zeros(n), x2=x2)


def gen_cut_cube(n: int) -> Instance:
    """The unit cube with the all-ones corner cut off by sum x <= n - 1/2.

    The cut plane misses every cube vertex, so the polytope stays
    non-degenerate; x2 sits on the cut facet.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(n, dtype=int)
    A = np.vstack([eye, -eye, np.ones((1, n), dtype=int)])
    b = np.concatenate([np.ones(n), np.zeros(n), [n - 0.5]])
    x2 = np.ones(n)
    x2[-1] = 0.5
    return build_instance(A, b, name=f"cut-cube-n{n}", integral=True,
                          x1=np.zeros(n), x2=x2)


def gen_transportation(p: int, q: int, seed: int) -> Instance:
    """A p x q transportation polytope in its full-dimensional reduction.

    Supplies and demands are drawn in 1..5 and redrawn until their totals
    agree, so a shape with q > 5p or p > 5q raises :class:`InfeasibleTotals`
    at once.  A lopsided shape that passes that check can still exhaust the
    ``_TOTALS_RESAMPLE_LIMIT`` draws and raise it too: ``(2, 8, seed)``
    succeeds only for seeds 19, 31 and 32 of 0-39.  The free variables are
    the (p-1)(q-1) cells off the last row and column.  Eliminating the
    balance equations turns the nonnegativity of the free cells, the last
    column, the last row and the corner into four blocks of rows with entries
    in {-1, 0, 1}, so the matrix stays totally unimodular.  Endpoints default to a farthest pair in the edge graph.
    """
    if p < 2 or q < 2:
        raise ValueError("transportation needs p, q >= 2")
    if q > 5 * p or p > 5 * q:
        raise InfeasibleTotals(f"a {p}x{q} transportation polytope never balances "
                               "supplies and demands drawn in 1..5")
    rng = np.random.default_rng(seed)
    for _ in range(_TOTALS_RESAMPLE_LIMIT):
        supplies = rng.integers(1, 6, size=p)
        demands = rng.integers(1, 6, size=q)
        if int(supplies.sum()) == int(demands.sum()):
            break
    else:
        raise InfeasibleTotals(
            f"no matching totals in {_TOTALS_RESAMPLE_LIMIT} draws")

    n = (p - 1) * (q - 1)
    A = np.vstack([-np.eye(n, dtype=int),
                   np.repeat(np.eye(p - 1, dtype=int), q - 1, axis=1),
                   np.tile(np.eye(q - 1, dtype=int), p - 1),
                   -np.ones((1, n), dtype=int)])
    b = np.concatenate([np.zeros(n), supplies[:-1], demands[:-1],
                        [demands[-1] - supplies[:-1].sum()]])
    inst = build_instance(A, b, integral=True,
                          name=f"transportation-p{p}q{q}-s{seed}")
    x1, x2 = farthest_vertex_pair(inst)
    return replace(inst, x1=x1, x2=x2)


def gen_random_sphere(m: int, n: int, seed: int) -> Instance:
    """m unit-normal facets at distance 1, redrawn until bounded and clean.

    Rows are uniform on the sphere (normalized Gaussians), b = 1.  A draw that
    :func:`_clean_draw` rejects is redrawn, a bounded number of times and
    deterministically in the seed.  Endpoints default to a farthest pair in
    the edge graph.
    """
    if m < n + 1:
        raise ValueError("need at least n+1 rows for a bounded polytope")
    rng = np.random.default_rng(seed)
    for attempt in range(_SPHERE_RESAMPLE_LIMIT):
        rows = rng.standard_normal((m, n))
        norms = np.sqrt((rows * rows).sum(axis=1))
        if np.any(norms <= 1e-12):
            continue
        inst = build_instance(rows / norms[:, None], np.ones(m), integral=False,
                              name=f"sphere-m{m}-n{n}-s{seed}")
        verts, adjacency = vertex_graph(inst)
        if _clean_draw(verts, adjacency, n):
            x1, x2 = _farthest_pair(verts, adjacency)
            return replace(inst, x1=x1, x2=x2)
    raise UnboundedSample(
        f"no bounded non-degenerate draw in {_SPHERE_RESAMPLE_LIMIT} attempts")


def _clean_draw(verts: list[VertexWithBasis], adjacency: list[set[int]], n: int) -> bool:
    """Keep a draw with two or more vertices, none degenerate, n neighbours each.

    Without degenerate vertices a vertex has n edges, and a missing edge is an
    unbounded ray, so n neighbours at every vertex means the draw is bounded.
    """
    return len(verts) > 1 and not any(v.degenerate for v in verts) \
        and all(len(nbrs) == n for nbrs in adjacency)


def gen_rotated(base: Instance, seed: int) -> Instance:
    """The base instance with all rows (and endpoints) rotated at random."""
    Q = random_orthogonal(base.n, seed)
    rotated = rotate_rows(base, Q)
    return replace(rotated, name=f"rotated-{base.name}-s{seed}")


def gen_degenerate_pyramid() -> Instance:
    """A square pyramid whose apex carries four tight rows (degenerate).

    Base corners (+-1, +-1, 0), apex (0, 0, 1); the four slanted facets all
    meet at the apex.  Endpoints run from a base corner to the apex.
    """
    A = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]]
    b = [1.0, 1.0, 1.0, 1.0, 0.0]
    return build_instance(A, b, name="pyramid-3d", integral=True,
                          x1=[1.0, 1.0, 0.0], x2=[0.0, 0.0, 1.0])


def farthest_vertex_pair(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically first vertex pair maximizing edge-graph distance."""
    return _farthest_pair(*vertex_graph(inst))


def _farthest_pair(verts: list[VertexWithBasis], adjacency: list[set[int]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The first pair at the largest distance, sources in ascending order.

    The last level of the breadth-first search from every vertex holds
    exactly the pairs at the largest distance; the first of its bits in
    (source, target) order is the pair, returned as frozen copies, not as
    views into the enumeration's point array.
    """
    count = len(verts)
    if count < 2:
        raise ValueError("need at least two vertices for an endpoint pair")
    for last in _bfs_levels(adjacency, range(count)):
        pass
    pairs = np.unpackbits(last, axis=1, count=count, bitorder="little").T
    s, t = divmod(int(pairs.argmax()), count)
    return linalg._frozen(verts[s].x), linalg._frozen(verts[t].x)


# Each family's generator from (n, m, seed), m defaulted; the generator's
# name is looked up when the entry is called, so a rebound one takes effect.
FAMILIES = {
    "hypercube": lambda n, m, seed: gen_hypercube(n),
    "simplex": lambda n, m, seed: gen_simplex(n),
    "cut-cube": lambda n, m, seed: gen_cut_cube(n),
    "random-sphere": lambda n, m, seed: gen_random_sphere(3 * n if m is None else m, n, seed),
    "transportation": lambda n, m, seed: gen_transportation(n, n if m is None else m, seed),
    "rotated": lambda n, m, seed: gen_rotated(gen_hypercube(n), seed),
}


def generate(spec: GeneratorSpec) -> Instance:
    """Dispatch a :class:`GeneratorSpec` to its entry in :data:`FAMILIES`."""
    make = FAMILIES.get(spec.family.lower())
    if make is None:
        raise ValueError(f"unknown family {spec.family!r}")
    return make(spec.n, spec.m, spec.seed)


# --- file format -----------------------------------------------------------


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} in instance file")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, rewriting an existing file in place.

    The file is opened without truncation and cut to the written length
    afterwards.  A file truncated to zero and written again makes ext4
    (``auto_da_alloc``) allocate its blocks and start their write-back when
    it is closed, and the writer waits on the disk: 0.1-1 ms for a 4 KB
    file on a 2-vCPU VM, varying with the disk's load, where a rewrite in
    place takes about 30 us.  Like :meth:`pathlib.Path.write_text` the
    write is not atomic.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def write_instance(inst: Instance, path) -> None:
    """Serialize an instance to JSON with lossless numbers.

    Integral matrices are written as exact integers; everything else uses
    Python's shortest round-trip float representation.
    """
    if inst.integral:
        matrix = [list(row) for row in inst.int_A]
    else:
        matrix = [[float(v) for v in row] for row in inst.raw_A]
    payload: dict = {
        "name": inst.name,
        "m": inst.m,
        "n": inst.n,
        "A": matrix,
        "b": [float(v) for v in inst.raw_b],
        "integral": inst.integral,
    }
    for key, point in (("x1", inst.x1), ("x2", inst.x2)):
        if point is not None:
            payload[key] = [float(v) for v in point]
    write_text(path, jsontext.dumps(payload) + "\n")


def _number_list(values, length: int, label: str) -> list[float]:
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"{label} must be a list of {length} numbers")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{label} contains a non-number: {v!r}")
        # Compared exactly, so an int too large for a float is non-finite too.
        if not abs(v) <= sys.float_info.max:
            raise ParseError(f"{label} contains a non-finite number")
        out.append(float(v))
    return out


def read_instance(path) -> Instance:
    """Parse and validate an instance file.

    Raises :class:`ParseError` for broken JSON or non-finite numbers and
    :class:`SchemaError` for missing or ill-shaped fields.
    """
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("instance file must hold a JSON object")
    for key in ("name", "m", "n", "A", "b", "integral"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise SchemaError("name must be a string")
    m, n = data["m"], data["n"]
    if not isinstance(m, int) or not isinstance(n, int) or isinstance(m, bool) \
            or isinstance(n, bool) or m < 1 or n < 1:
        raise SchemaError("m and n must be positive integers")
    integral = data["integral"]
    if not isinstance(integral, bool):
        raise SchemaError("integral must be a boolean")
    if not isinstance(data["A"], list) or len(data["A"]) != m:
        raise SchemaError(f"A must be a list of {m} rows")
    matrix = [_number_list(row, n, f"A[{i}]") for i, row in enumerate(data["A"])]
    if integral:
        for i, row in enumerate(matrix):
            if any(not float(v).is_integer() for v in row):
                raise SchemaError(f"A[{i}] must be integers in an integral instance")
    offsets = _number_list(data["b"], m, "b")
    x1 = _number_list(data["x1"], n, "x1") if "x1" in data else None
    x2 = _number_list(data["x2"], n, "x2") if "x2" in data else None
    try:
        return build_instance(matrix, offsets, name=name, integral=integral,
                              x1=x1, x2=x2)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
