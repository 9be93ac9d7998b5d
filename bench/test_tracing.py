"""Tests of the benchmark's tracer: exact call counts and metric names.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import polywalk  # noqa: E402
from polywalk import polytope, shadow  # noqa: E402

import tracing  # noqa: E402


def test_hypercube_walk_call_counts():
    cube = polywalk.gen_hypercube(10)
    original = shadow.edge_directions
    with tracing.Tracer() as tracer:
        polywalk.find_path(cube, cube.x1, cube.x2, seed=0)
    assert shadow.edge_directions is original
    summary = tracer.summary()
    expected = {"shadow.walk": 1, "shadow.sample_objectives": 1,
                "polytope.verify_vertex": 2, "linalg.rank": 20,
                "polytope.edge_directions": 10, "linalg.inverse": 10,
                "polytope.ratio_step": 10, "linalg.solve": 10}
    assert {name: summary.calls(name) for name in expected} == expected
    # Self times partition the root span: nothing is lost or counted twice.
    roots = summary.parent < 0
    assert np.isclose(summary.self_time.sum(), summary.dur[roots].sum())


def test_generator_spans_count_subsets_and_yields():
    cube = polywalk.gen_hypercube(3)
    with tracing.Tracer() as tracer:
        bases = list(polytope.feasible_bases(cube))
    metrics = tracing.layer_metrics(tracer.summary())
    assert metrics["polytope.feasible_bases.subsets"][0] == math.comb(6, 3)
    assert metrics["polytope.feasible_bases.yielded"][0] == len(bases) == 8
    assert tracer.summary().calls("polytope.feasible_bases") == 1


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    with tracing.Tracer() as tracer:
        pass
    metrics = tracing.layer_metrics(tracer.summary())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: unit for name, (_, unit) in metrics.items()}
