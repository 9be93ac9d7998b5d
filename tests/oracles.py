"""The per-walk oracle.  :func:`check_walk` returns every failure of a walk
and never asserts, so a script can count failures, under ``python -O`` too.
It imports only numpy and polywalk, so a script outside the tests loads it by
file path."""

import math

import numpy as np

from polywalk.polytope import TIGHT_TOL

TIE_TOL = 1e-12


class ChainError(Exception):
    """The hull chain is ambiguous, or misses x1 or x2; the message is labelled."""


def _upper_left_chain(points: np.ndarray, pair, x1, x2, label: str, index) -> list[int]:
    """Vertex indices of the upper-left shadow chain from x1 to x2.

    Independent of the walk: every vertex is projected onto (w1.x, w2.x) of
    the objective ``pair``, and the strict upper hull of the images is taken
    by a monotone chain, from the leftmost image to image(x2).  Two images
    coincident within TIE_TOL
    (relative to the cloud's scale), or three hull candidates whose turn has
    a sine within TIE_TOL of zero, leave the chain ambiguous and raise
    :class:`ChainError` with ``label`` rather than pick one, as does an x1 or
    x2 that is not the chain's end.  ``index(points, x, label)`` finds the
    row of ``points`` that is the vertex x.
    """
    images = points @ np.column_stack([pair.w1, pair.w2])
    tol = TIE_TOL * max(1.0, float(np.max(np.abs(images))))
    # Two images within tol in both coordinates are within tol in the first.
    # Sorted by it, images k places apart are no closer in it than images
    # k - 1 apart, so no pair is left once no two k places apart are close.
    by_x = images[np.argsort(images[:, 0])]
    for k in range(1, len(by_x)):
        near = by_x[k:, 0] - by_x[:-k, 0] <= tol
        if not near.any():
            break
        if (np.abs(by_x[k:, 1] - by_x[:-k, 1])[near] <= tol).any():
            raise ChainError(f"{label}: two vertex images coincide")
    xy = images.tolist()
    hull: list[int] = []
    for i in np.lexsort((images[:, 1], images[:, 0])).tolist():
        while len(hull) >= 2:
            (ax, ay), (bx, by), (cx, cy) = xy[hull[-2]], xy[hull[-1]], xy[i]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if not abs(cross) > TIE_TOL * math.hypot(bx - ax, by - ay) \
                    * math.hypot(cx - ax, cy - ay):
                raise ChainError(f"{label}: collinear vertex images")
            if cross < 0.0:
                break
            hull.pop()
        hull.append(i)
    start = index(points, x1, label)
    end = index(points, x2, label)
    if hull[0] != start:
        raise ChainError(f"{label}: image(x1) is not the leftmost hull point")
    if end not in hull:
        raise ChainError(f"{label}: image(x2) is not on the upper hull")
    return hull[:hull.index(end) + 1]


def _rows(inst, points) -> list[bytes]:
    """Each point's rows tight at TIGHT_TOL as one key, the program's vertex identity."""
    return [mask.tobytes() for mask in np.abs(inst.b - np.asarray(points) @ inst.A.T) <= TIGHT_TOL]


def check_walk(inst, path, points=None, graph=None) -> list[str]:
    """Every failure of ``path``, a walk from inst.x1 to inst.x2, labelled by
    its check: status, ends, feasible, slopes, images, edge (of ``graph``,
    ``vertex_graph``'s pair, when given), basis and, given every vertex as a
    row of ``points``, chain."""
    failures = [] if path.status.endswith("Completed") else [f"status: {path.status}"]
    slack = inst.b - np.array([v.x for v in path.vertices]) @ inst.A.T
    tight = np.abs(slack) <= TIGHT_TOL
    keys = [mask.tobytes() for mask in tight]
    if [keys[0], keys[-1]] != _rows(inst, [inst.x1, inst.x2]):
        failures.append("ends: the walk does not run from x1's tight rows to x2's")
    if slack.min() < -TIGHT_TOL:
        failures.append(f"feasible: a vertex has slack {float(slack.min())!r}")
    s, xi = path.slopes, [a for a, _ in path.projections]
    if not all(a > 0.0 for a in s) or not all(a - b > TIE_TOL for a, b in zip(s, s[1:])):
        failures.append(f"slopes: {s}")
    if not all(b > a for a, b in zip(xi, xi[1:])):
        failures.append(f"images: xi {xi}")
    if graph is None:
        steps = [a != c and np.count_nonzero(tight[k] & tight[k + 1]) >= inst.n - 1
                 for k, (a, c) in enumerate(zip(keys, keys[1:]))]
    else:
        in_graph = {key: i for i, key in enumerate(_rows(inst, [v.x for v in graph[0]]))}
        at = [in_graph.get(key) for key in keys]
        steps = [a is not None and c in graph[1][a] for a, c in zip(at, at[1:])]
    if not all(steps):
        failures.append(f"edge: steps {[k for k, ok in enumerate(steps) if not ok]}")
    if path.status == "Completed" and any(len(set(a.basis) & set(c.basis)) != inst.n - 1
                                          for a, c in zip(path.vertices, path.vertices[1:])):
        failures.append("basis: consecutive bases do not share n - 1 rows")
    if points is not None and path.objective is not None:
        index = {key: i for i, key in enumerate(_rows(inst, points))}
        if len(index) < len(points):
            failures.append("chain: two vertices share tight rows")
        try:
            if [index.get(key) for key in keys] != _upper_left_chain(
                    points, path.objective, inst.x1, inst.x2, "chain",
                    index=lambda _, x, __: index.get(_rows(inst, [x])[0])):
                failures.append("chain: the walk left the upper-left shadow chain")
        except ChainError as exc:
            failures.append(str(exc))
    return failures
