"""The per-walk oracle catches walks that break the shadow rule, and names
an x1 missing from the cloud under ``python -O`` too."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np

import polywalk.shadow as shadow_mod
from polywalk.errors import RetriesExhausted
from polywalk.instances import GeneratorSpec, gen_hypercube, generate
from polywalk.polytope import vertex_graph
from polywalk.shadow import SLOPE_TOL, find_path

from oracles import check_walk

TESTS = Path(__file__).resolve().parent

# Simplex-3's walk at seed 1, checked against a cloud without x1's vertex.
_NO_X1 = """
import json, sys
import numpy as np
from polywalk.instances import gen_simplex
from polywalk.polytope import vertex_graph
from polywalk.shadow import find_path
from oracles import check_walk
inst = gen_simplex(3)
path = find_path(inst, inst.x1, inst.x2, seed=1)
points = np.array([v.x for v in vertex_graph(inst)[0] if np.max(np.abs(v.x - inst.x1)) > 0.0])
print(json.dumps([sys.flags.optimize, check_walk(inst, path, points)]))
"""


def test_a_walk_off_the_steepest_edge_leaves_the_chain(monkeypatch):
    # Every seventh edge choice takes the improving edge with the
    # second-largest slope, where there is one.  The walk's own guards let
    # some of these walks finish; the hull oracle must not.
    steepest, calls = shadow_mod._steepest_edge, count(1)

    def second_best(directions, w1, w2, basis):
        k, slope = steepest(directions, w1, w2, basis)
        if next(calls) % 7:
            return k, slope
        ranked = sorted(((rise / run, i) for i, (rise, run) in
                         enumerate(zip(directions @ w2, directions @ w1)) if rise > SLOPE_TOL),
                        reverse=True)
        return (ranked[1][1], float(ranked[1][0])) if len(ranked) > 1 else (k, slope)

    monkeypatch.setattr(shadow_mod, "_steepest_edge", second_best)
    flagged = 0
    for spec in (GeneratorSpec(family="random-sphere", n=4, m=12),
                 GeneratorSpec(family="random-sphere", n=5, m=15),
                 GeneratorSpec(family="transportation", n=3, m=4)):
        base = generate(spec)
        graph = vertex_graph(base)
        points = np.array([v.x for v in graph[0]])
        for seed in range(20):
            inst = replace(base)
            try:
                path = find_path(inst, inst.x1, inst.x2, seed=seed)
            except RetriesExhausted:
                continue
            failures = check_walk(inst, path, points, graph)
            flagged += any(failure.startswith("chain") for failure in failures)
    assert flagged > 0


def test_slopes_that_do_not_decrease_are_flagged():
    inst = gen_hypercube(3)
    path = find_path(inst, inst.x1, inst.x2, seed=0)
    assert check_walk(inst, path) == []
    failures = check_walk(inst, replace(path, slopes=path.slopes[::-1]))
    assert failures and all(failure.startswith("slopes") for failure in failures)


def test_a_cloud_without_x1_is_named_under_python_O():
    # python -O strips assert statements; the chain's own checks must stay.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", _NO_X1], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimize, failures = json.loads(proc.stdout)
    assert optimize == 1
    assert failures == ["chain: image(x1) is not the leftmost hull point"]
