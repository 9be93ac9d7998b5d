"""End-to-end acceptance checklist.

Ten numbered checks, each printing one PASS/FAIL line.  The corpus is fifty
instances: hypercubes and standard simplices for n = 3..6, ten seeded
sphere-tangent instances for each n in 3..5 (m = 3n), and twelve seeded
transportation instances up to the 3x4 shape.  Every instance is walked with
twenty path seeds; later checks reuse those walks, the per-instance flatness
values, and the vertex graphs.
"""

import json
import time

import numpy as np
import pytest

from polywalk.cli import main as cli_main
from polywalk.flatness import delta_A, delta_basis, delta_hat, subdet_report
from polywalk.flatness import certify_delta_Delta
from polywalk.instances import (
    GeneratorSpec,
    gen_degenerate_pyramid,
    gen_rotated,
    generate,
    write_instance,
)
from polywalk.polytope import (
    build_instance,
    graph_distances,
    verify_vertex,
    vertex_graph,
)
from polywalk.shadow import (
    find_path,
    sample_objectives,
    walk,
)

from oracles import _rows, check_walk

N_PATH_SEEDS = 20
N_TRIALS = 100


def _corpus_specs():
    specs = []
    for n in (3, 4, 5, 6):
        specs.append(GeneratorSpec(family="hypercube", n=n))
        specs.append(GeneratorSpec(family="simplex", n=n))
    for n in (3, 4, 5):
        for seed in range(10):
            specs.append(GeneratorSpec(family="random-sphere", n=n, m=3 * n,
                                       seed=seed))
    for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for seed in range(3):
            specs.append(GeneratorSpec(family="transportation", n=p, m=q,
                                       seed=seed))
    return specs


@pytest.fixture(scope="module")
def corpus():
    instances = [generate(spec) for spec in _corpus_specs()]
    assert len(instances) == 50
    return instances


@pytest.fixture(scope="module")
def corpus_paths(corpus):
    """All 50 x 20 walks plus the wall-clock seconds they took."""
    paths = {}
    start = time.perf_counter()
    for inst in corpus:
        for seed in range(N_PATH_SEEDS):
            paths[(inst.name, seed)] = find_path(inst, inst.x1, inst.x2,
                                                 seed=seed)
    elapsed = time.perf_counter() - start
    return paths, elapsed


@pytest.fixture(scope="module")
def corpus_deltas(corpus):
    return {inst.name: delta_A(inst).delta for inst in corpus}


@pytest.fixture(scope="module")
def corpus_graphs(corpus):
    return {inst.name: vertex_graph(inst) for inst in corpus}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_path_validity(corpus, corpus_paths):
    paths, elapsed = corpus_paths
    by_name = {inst.name: inst for inst in corpus}
    checked = 0
    for (name, seed), path in paths.items():
        inst = by_name[name]
        assert check_walk(inst, path) == [], f"{name} seed {seed}"
        assert float(np.max(np.abs(path.vertices[0].x - inst.x1))) <= 1e-7
        assert float(np.max(np.abs(path.vertices[-1].x - inst.x2))) <= 1e-7
        checked += 1
    ok = checked == 50 * N_PATH_SEEDS and elapsed < 60.0
    _report(1, ok, f"{checked} walks valid in {elapsed:.1f}s")
    assert checked == 50 * N_PATH_SEEDS
    assert elapsed < 60.0


def test_criterion_02_slope_monotonicity(corpus, corpus_paths):
    paths, _ = corpus_paths
    by_name = {inst.name: inst for inst in corpus}
    violations = [failure for (name, _), path in paths.items()
                  for failure in check_walk(by_name[name], path)
                  if failure.startswith("slopes")]
    _report(2, not violations, f"{len(violations)} violations over {len(paths)} paths")
    assert violations == []


def test_criterion_03_expected_length_bound(corpus, corpus_deltas):
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_name = ""
    for inst in corpus:
        delta = corpus_deltas[inst.name]
        bound = 8.0 * inst.m * inst.n**2 / delta**2
        lengths = []
        for t in range(N_TRIALS):
            lengths.append(find_path(inst, inst.x1, inst.x2, seed=1000 + t).length)
        mean = float(np.mean(lengths))
        assert mean <= bound, f"{inst.name}: mean {mean} > bound {bound}"
        ratio = mean / bound
        if ratio > worst_ratio:
            worst_ratio, worst_name = ratio, inst.name
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(3, ok, f"max ratio {worst_ratio:.4f} ({worst_name}), "
                   f"{N_TRIALS} trials x 50 instances in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_04_basis_flatness_equality():
    rng = np.random.default_rng(404)
    accepted = 0
    worst = 0.0
    while accepted < 200:
        n = int(rng.integers(2, 6))
        vectors = rng.normal(size=(n, n))
        if np.linalg.matrix_rank(vectors, tol=1e-9) < n:
            continue
        inverse_form = delta_basis(vectors)
        angle_form = min(
            delta_hat(np.delete(vectors, k, axis=0), vectors[k])
            for k in range(n))
        worst = max(worst, abs(inverse_form - angle_form))
        assert abs(inverse_form - angle_form) <= 1e-9
        accepted += 1
    _report(4, True, f"200 bases, max |difference| {worst:.2e}")


def test_criterion_05_rotation_invariance(corpus, corpus_deltas):
    bases = [inst for inst in corpus
             if inst.name.startswith(("hypercube", "simplex"))
             or inst.name in ("sphere-m9-n3-s0", "sphere-m9-n3-s1")][:10]
    worst = 0.0
    count = 0
    for base in bases:
        for seed in (0, 1):
            rotated = gen_rotated(base, seed=seed)
            diff = abs(delta_A(rotated).delta - corpus_deltas[base.name])
            worst = max(worst, diff)
            assert diff <= 1e-9, f"{rotated.name}: |difference| {diff:.2e}"
            count += 1
    _report(5, True, f"{count} rotated instances, max |difference| {worst:.2e}")
    assert count == 20


def test_criterion_06_edge_row_separation(corpus, corpus_deltas, corpus_graphs):
    checked_edges = 0
    violations = 0
    for inst in corpus:
        delta = corpus_deltas[inst.name]
        verts, adjacency = corpus_graphs[inst.name]
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                if j <= i:
                    continue
                move = verts[j].x - verts[i].x
                norm = float(np.linalg.norm(move))
                inner = np.abs(inst.A @ move)
                active = inner > 1e-9
                if not np.all(inner[active] >= delta * norm - 1e-7):
                    violations += 1
                checked_edges += 1
    _report(6, violations == 0,
            f"{checked_edges} edges checked, {violations} violations")
    assert violations == 0


def test_criterion_07_integer_certificates(corpus):
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    accepted = 0
    while accepted < 100:
        a = rng.integers(-3, 4, size=(4, 3))
        if np.linalg.matrix_rank(a, tol=1e-9) < 3:
            continue
        if np.any(np.all(a == 0, axis=1)):
            continue
        holds, slack = certify_delta_Delta(build_instance(a, np.ones(4)))
        assert holds and slack >= -1e-6
        accepted += 1

    unimodular = [inst for inst in corpus
                  if inst.name.startswith(("hypercube", "transportation"))]
    assert len(unimodular) == 16
    for inst in unimodular:
        report = subdet_report(inst.int_A)
        assert report.Delta == 1, f"{inst.name}: Delta {report.Delta}"
        holds, _ = certify_delta_Delta(inst)
        assert holds

    cube = next(inst for inst in corpus if inst.name == "hypercube-n3")
    assert abs(delta_A(cube).delta - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(7, ok, f"100 random + {len(unimodular)} unimodular certificates "
                   f"in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_08_oracle_dominance(corpus, corpus_paths, corpus_graphs):
    paths, _ = corpus_paths
    by_name = {inst.name: inst for inst in corpus}
    bfs_cache = {}
    dominance_violations = 0
    simplex_longer = 0
    chain_mismatches = 0
    hypercube_violations = 0
    for (name, seed), path in paths.items():
        inst = by_name[name]
        graph = corpus_graphs[name]
        if name not in bfs_cache:
            points = np.array([v.x for v in graph[0]])
            index = {key: i for i, key in enumerate(_rows(inst, points))}
            ends = [index[key] for key in _rows(inst, [inst.x1, inst.x2])]
            bfs_cache[name] = points, int(graph_distances(graph[1], ends[:1])[0, ends[1]])
            assert bfs_cache[name][1] >= 0, f"{name}: endpoints disconnected"
        points, lower = bfs_cache[name]
        if path.length < lower:
            dominance_violations += 1
        if name.startswith("simplex"):
            assert path.status == "Completed", f"{name} seed {seed}: {path.status}"
            failures = check_walk(inst, path, points, graph)
            if any(failure.startswith("chain") for failure in failures):
                chain_mismatches += 1
            if path.length > 1:
                simplex_longer += 1
        if name.startswith("hypercube") and path.length != inst.n:
            hypercube_violations += 1
    ok = (dominance_violations == 0 and chain_mismatches == 0
          and hypercube_violations == 0)
    _report(8, ok, f"dominance {dominance_violations}, "
                   f"hypercube-equality {hypercube_violations} violations; "
                   f"simplex runs longer than one edge {simplex_longer}, "
                   f"shadow-chain mismatches {chain_mismatches}")
    assert dominance_violations == 0
    assert hypercube_violations == 0
    # The paper promises a short path along the upper-left shadow chain, not
    # a shortest one, so a simplex walk must equal that chain exactly, and it
    # takes one edge only when the direct edge is the whole chain.
    assert chain_mismatches == 0, \
        f"{chain_mismatches} simplex runs left the upper-left shadow chain"


def test_every_corpus_walk_is_the_upper_left_shadow_chain(corpus, corpus_paths,
                                                          corpus_graphs):
    """The hull oracle on all 1,000 corpus walks, degenerate transportation
    walks included."""
    paths, _ = corpus_paths
    for inst in corpus:
        graph = corpus_graphs[inst.name]
        points = np.array([v.x for v in graph[0]])
        for seed in range(N_PATH_SEEDS):
            assert check_walk(inst, paths[(inst.name, seed)], points, graph) == [], \
                f"{inst.name} seed {seed}"


@pytest.mark.parametrize("make", [
    gen_degenerate_pyramid,
    lambda: generate(GeneratorSpec(family="cut-cube", n=6)),
    lambda: generate(GeneratorSpec(family="rotated", n=8)),
    lambda: generate(GeneratorSpec(family="random-sphere", n=7)),
    lambda: generate(GeneratorSpec(family="random-sphere", n=8)),
    lambda: generate(GeneratorSpec(family="transportation", n=4, m=4)),
], ids=["pyramid", "cut-cube-n6", "rotated-n8", "random-sphere-n7", "random-sphere-n8",
        "transportation-4x4"])
def test_walks_beyond_the_corpus_are_the_upper_left_shadow_chain(make):
    """The hull oracle on twenty walks of each instance, seed 0 of every
    generated one, up to the 2,012 vertices of random-sphere n = 8."""
    inst = make()
    graph = vertex_graph(inst)
    points = np.array([v.x for v in graph[0]])
    for seed in range(N_PATH_SEEDS):
        assert check_walk(inst, find_path(inst, inst.x1, inst.x2, seed=seed), points,
                          graph) == [], f"{inst.name} seed {seed}"


def test_criterion_09_degeneracy_pipeline():
    pyramid = gen_degenerate_pyramid()
    apex = np.array([0.0, 0.0, 1.0])
    path = find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    assert path.status == "Perturbed+Completed" and path.retries == 0
    assert float(np.max(np.abs(path.vertices[-1].x - apex))) <= 1e-9

    # Drive the pipeline's pieces directly: the apex stands for its first
    # lexicographically feasible basis, and the walk runs on the original
    # instance, with no perturbed copy and nothing to map back.
    v1 = verify_vertex(pyramid, pyramid.x1)
    r2 = verify_vertex(pyramid, pyramid.x2)
    assert not v1.degenerate and r2.degenerate
    walked = walk(pyramid, v1, r2, sample_objectives(pyramid, v1, r2, 0))
    assert walked.to_json() == path.to_json()
    points = [v.x for v in walked.vertices]
    assert float(np.max(np.abs(points[-1] - apex))) <= 1e-9
    assert check_walk(pyramid, walked) == []
    assert all(float(np.max(np.abs(a - c))) > 1e-7 for a, c in zip(points, points[1:]))
    _report(9, True, f"lexicographic walk has {walked.length} step(s), "
                     "feasible, duplicate-free, ends at apex")


def test_criterion_10_deterministic_cli(tmp_path, capsys):
    cube_file = tmp_path / "cube.json"
    write_instance(generate(GeneratorSpec(family="hypercube", n=4)), cube_file)
    pyramid_file = tmp_path / "pyramid.json"
    write_instance(gen_degenerate_pyramid(), pyramid_file)

    outputs = []
    for run in (1, 2):
        json_out = tmp_path / f"path-{run}.json"
        assert cli_main(["path", "--instance", str(cube_file), "--seed", "9",
                         "--json", str(json_out)]) == 0
        pyr_out = tmp_path / f"pyramid-{run}.json"
        assert cli_main(["path", "--instance", str(pyramid_file), "--seed", "3",
                         "--json", str(pyr_out)]) == 0
        exp_dir = tmp_path / f"exp-{run}"
        assert cli_main(["experiment", "--instance", str(cube_file),
                         "--trials", "25", "--seed", "11",
                         "--out", str(exp_dir)]) == 0
        outputs.append((json_out.read_bytes(), pyr_out.read_bytes(),
                        (exp_dir / "report.csv").read_bytes(),
                        (exp_dir / "report.json").read_bytes()))
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    _report(10, identical, "path and experiment outputs byte-identical "
                           "across repeated runs")
    assert identical
    record = json.loads(outputs[0][1])
    assert record["status"] == "Perturbed+Completed"
