"""Monte Carlo batches, bound reports, and the two emission formats."""

import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import polywalk.experiments as experiments_mod
import polywalk.shadow as shadow_mod
from polywalk.errors import DependentVectors, LeftwardEdge, MissingDelta, RetriesExhausted
from polywalk.experiments import (
    CSV_COLUMNS,
    BoundReport,
    TrialBatch,
    bound_report,
    emit,
    run_batch,
)
from polywalk.flatness import subdet_report
from polywalk.instances import gen_degenerate_pyramid, gen_hypercube, gen_transportation
from polywalk.polytope import build_instance
from polywalk.shadow import ShadowPath, find_path


def test_csv_columns_pinned():
    assert CSV_COLUMNS == ("instance_id", "m", "n", "delta", "trials", "mean",
                          "stderr", "bound", "ratio", "bfs_lower")


def test_run_batch_cube_all_length_n(cube3):
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=50, base_seed=0)
    assert batch.n_trials == 50 and batch.base_seed == 0
    assert batch.lengths == (3,) * 50  # every cube walk crosses n edges
    assert batch.failures == ()
    assert all(r == 0 for r in batch.retries)


def test_bound_report_cube_exact(cube3):
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=50, base_seed=0)
    report = bound_report(batch, cube3, bfs_lower=3)
    assert report.instance_id == cube3.name
    assert (report.m, report.n) == (6, 3)
    npt.assert_allclose(report.delta, 1.0, atol=1e-12)
    npt.assert_allclose(report.bound_8mn2_over_delta2, 8 * 6 * 9, atol=0)
    npt.assert_allclose(report.mean_length, 3.0, atol=0)
    npt.assert_allclose(report.std_err, 0.0, atol=0)  # constant sample
    npt.assert_allclose(report.ratio_mean_to_bound, 3.0 / 432.0, rtol=1e-12)
    # Integer certificate ceiling: delta >= 1/(n Delta1 Delta_{n-1}) = 1/3.
    npt.assert_allclose(report.bound_integral_ceiling, 8 * 6 * 9 * 9, atol=0)
    assert report.bfs_lower == 3


def test_bound_report_ceiling_beyond_unimodular(pyramid):
    batch = run_batch(pyramid, pyramid.x1, pyramid.x2, n_trials=3, base_seed=0)
    report = bound_report(batch, pyramid)
    sub = subdet_report(pyramid.int_A)
    assert (sub.Delta1, sub.Delta_n_minus_1) == (1, 2)
    # delta >= 1/(n Delta1 Delta_{n-1}) = 1/6 on m = 5 rows in dimension 3.
    assert report.bound_integral_ceiling == 8 * 5 * 9 * 6**2


def test_bound_report_rank_deficient_matrix_raises():
    inst = build_instance([[1, 1], [2, 2], [3, 3]], [1, 2, 3])
    batch = TrialBatch(instance_id=inst.name, n_trials=0, base_seed=0,
                       lengths=(), retries=(), failures=())
    with pytest.raises(DependentVectors):
        bound_report(batch, inst)


def test_bound_report_cap_becomes_missing_delta():
    inst = gen_hypercube(30)
    batch = TrialBatch(instance_id=inst.name, n_trials=0, base_seed=0,
                       lengths=(), retries=(), failures=())
    with pytest.raises(MissingDelta):
        bound_report(batch, inst)


def test_bound_report_empty_batch(cube3):
    batch = TrialBatch(instance_id=cube3.name, n_trials=0, base_seed=0,
                       lengths=(), retries=(), failures=())
    report = bound_report(batch, cube3)
    assert report.trials == 0
    assert report.mean_length is None and report.std_err is None
    assert report.ratio_mean_to_bound is None
    # One trial has a mean but no spread: its standard error is 0.0.
    one = bound_report(replace(batch, n_trials=1, lengths=(4,), retries=(0,)), cube3)
    assert (one.trials, one.mean_length, one.ratio_mean_to_bound) == (1, 4.0, 4.0 / 432.0)
    assert repr(one.std_err) == "0.0"
    assert emit(one, "csv").split("\n")[1].split(",")[5:7] == ["4.0", "0.0"]


def test_emit_csv_shape(cube3):
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=10, base_seed=0)
    report = bound_report(batch, cube3, bfs_lower=3)
    text = emit(report, "csv")
    header, row, trailer = text.split("\n")
    assert header == "instance_id,m,n,delta,trials,mean,stderr,bound,ratio,bfs_lower"
    assert trailer == ""
    cells = row.split(",")
    assert cells[0] == cube3.name
    assert cells[1:5] == ["6", "3", "1.0", "10"]
    assert cells[-1] == "3"


def test_emit_csv_empty_cells_for_missing(cube3):
    batch = TrialBatch(instance_id=cube3.name, n_trials=0, base_seed=0,
                       lengths=(), retries=(), failures=())
    report = bound_report(batch, cube3)
    row = emit(report, "csv").split("\n")[1]
    cells = row.split(",")
    assert cells[5] == "" and cells[6] == "" and cells[-1] == ""


def test_emit_json_round_trip(cube3):
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=10, base_seed=3)
    report = bound_report(batch, cube3, bfs_lower=3)
    again = BoundReport(**json.loads(emit(report, "json")))
    assert again == report


def test_emit_json_round_trip_without_optionals(cube3):
    batch = TrialBatch(instance_id=cube3.name, n_trials=0, base_seed=0,
                       lengths=(), retries=(), failures=())
    report = bound_report(batch, cube3)
    again = BoundReport(**json.loads(emit(report, "json")))
    assert again == report
    assert again.bfs_lower is None


def test_emit_rejects_unknown_format(cube3):
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=2, base_seed=0)
    report = bound_report(batch, cube3)
    with pytest.raises(ValueError):
        emit(report, "yaml")


def test_run_batch_records_failures(cube3, monkeypatch):
    real = experiments_mod.find_path

    def flaky(inst, x1, x2, seed):
        if seed % 2:
            failed = ShadowPath(vertices=(), slopes=(), pivot_trace=(), status="Failed(LeftwardEdge)",
                                seed=seed, retries=16)
            raise RetriesExhausted("forced", ["LeftwardEdge"] * 2, path=failed)
        return real(inst, x1, x2, seed)

    monkeypatch.setattr(experiments_mod, "find_path", flaky)
    batch = run_batch(cube3, cube3.x1, cube3.x2, n_trials=6, base_seed=0)
    assert batch.lengths == (3, 3, 3)
    assert len(batch.failures) == 3
    assert all("LeftwardEdge" in f for f in batch.failures)
    # Statistics survive the failures: mean over the successful trials only,
    # and the report's trial count is the size of that sample.
    assert batch.n_trials == 6
    report = bound_report(batch, cube3)
    npt.assert_allclose(report.mean_length, 3.0, atol=0)
    assert report.trials == 3


def _per_trial_batch(inst, n_trials, base_seed):
    """The batch as separate find_path calls, one per trial."""
    lengths, retries, failures = [], [], []
    for t in range(n_trials):
        try:
            path = find_path(inst, inst.x1, inst.x2, base_seed + t)
        except RetriesExhausted as exc:
            failures.append(";".join(exc.reasons))
            continue
        lengths.append(path.length)
        retries.append(path.retries)
    return TrialBatch(instance_id=inst.name, n_trials=n_trials, base_seed=base_seed,
                      lengths=tuple(lengths), retries=tuple(retries),
                      failures=tuple(failures))


def test_run_batch_verifies_endpoints_once(calls):
    inst = gen_transportation(3, 4, 0)
    calls.watch(shadow_mod, "verify_vertex")
    for trials, base_seed in ((5, 0), (0, 0), (5, 5)):
        run_batch(inst, inst.x1, inst.x2, n_trials=trials, base_seed=base_seed)
        assert len(calls["verify_vertex"]) == 2


@pytest.mark.parametrize("make", [lambda: gen_transportation(3, 3, 0),
                                  lambda: gen_transportation(3, 4, 0),
                                  gen_degenerate_pyramid])
def test_run_batch_equals_per_trial_find_path(make, monkeypatch):
    inst = make()
    assert run_batch(inst, inst.x1, inst.x2, 6, 3) == _per_trial_batch(inst, 6, 3)
    # Every walk drawn with a seed in [100, 116) fails: the trial at seed 100
    # exhausts its 16 attempts, the trial at 101 succeeds on its last one.
    real = shadow_mod.walk

    def failing(walk_inst, start, target, pair):
        if 100 <= pair.seed < 116:
            raise LeftwardEdge("forced")
        return real(walk_inst, start, target, pair)

    monkeypatch.setattr(shadow_mod, "walk", failing)
    batch = run_batch(inst, inst.x1, inst.x2, 8, 95)
    assert batch == _per_trial_batch(inst, 8, 95)
    assert len(batch.failures) == 1 and 15 in batch.retries
