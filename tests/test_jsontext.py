"""JSON output: every writer's text is json.dumps(..., indent=2), byte for byte."""

import json
from dataclasses import replace

import numpy as np
import pytest

import polywalk.shadow as shadow_mod
from polywalk import jsontext
from polywalk.errors import LeftwardEdge, RetriesExhausted
from polywalk.experiments import bound_report, emit, run_batch
from polywalk.instances import (
    GeneratorSpec,
    gen_degenerate_pyramid,
    gen_transportation,
    generate,
    write_instance,
)
from polywalk.polytope import build_instance
from polywalk.shadow import find_path


def _assert_indent2(text: str) -> None:
    """``text`` is what json.dumps writes, with indent=2, for what it holds."""
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2)
    assert jsontext.dumps(obj) == text


@pytest.mark.parametrize("obj", [
    0, -3, 1.5, -0.0, 1e300, 5e-324, "", None, True, False,
    float("nan"), float("inf"), -float("inf"),
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [1.0]],
    [1, [2, [3.5, None]], "x"],
    [0.1, float("nan"), 2.0], [1, 2.0], [True, 1, None], ("a, b", 1.0),
    {"q\"uote": ["é", "日本", "\x00\n"], "ü": (1, 2)},
    [np.float64(0.1), 2.0], {"x": np.float64(0.3), "y": [np.float64(-1.5)]},
], ids=repr)
def test_dumps_matches_json_indent2(obj):
    assert jsontext.dumps(obj) == json.dumps(obj, indent=2)


def test_unserializable_value_keeps_the_json_error():
    obj = {"a": object()}
    with pytest.raises(TypeError) as ours:
        jsontext.dumps(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value) == "Object of type object is not JSON serializable"


def test_path_records(cube3, monkeypatch):
    completed = find_path(cube3, cube3.x1, cube3.x2, seed=0)
    perturbed = find_path(gen_degenerate_pyramid(), [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], seed=0)
    zero = find_path(cube3, cube3.x1, cube3.x1, seed=0)
    inst = gen_transportation(3, 4, 0)
    assert (completed.status, perturbed.status) == ("Completed", "Perturbed+Completed")
    assert zero.length == 0
    paths = [completed, perturbed, zero, find_path(inst, inst.x1, inst.x2, seed=1)]

    def failing(*args):
        raise LeftwardEdge("forced")

    monkeypatch.setattr(shadow_mod, "walk", failing)
    with pytest.raises(RetriesExhausted) as info:
        find_path(cube3, cube3.x1, cube3.x2, seed=0)
    paths.append(info.value.path)
    for path in paths:
        _assert_indent2(path.to_json())


@pytest.mark.parametrize("make", [
    lambda: generate(GeneratorSpec("hypercube", 3)),
    lambda: generate(GeneratorSpec("simplex", 4)),
    lambda: generate(GeneratorSpec("cut-cube", 3)),
    lambda: generate(GeneratorSpec("rotated", 3, seed=2)),
    lambda: generate(GeneratorSpec("random-sphere", 3, 9, seed=1)),
    lambda: generate(GeneratorSpec("transportation", 2, 3, seed=0)),
    gen_degenerate_pyramid,
], ids=["hypercube", "simplex", "cut-cube", "rotated", "random-sphere", "transportation",
        "pyramid"])
def test_instance_files(make, tmp_path):
    inst = make()
    for variant in (inst, replace(inst, x1=None, x2=None)):
        out = tmp_path / "inst.json"
        write_instance(variant, out)
        text = out.read_text()
        assert text.endswith("\n")
        _assert_indent2(text[:-1])


def test_instance_file_names_with_quotes_and_non_ascii(tmp_path):
    inst = build_instance([[1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0],
                          name='the "wedge" ü 日本\\')
    out = tmp_path / "inst.json"
    write_instance(inst, out)
    text = out.read_text()
    assert "\\u00fc" in text and '\\"wedge\\"' in text
    _assert_indent2(text[:-1])


def test_reports(cube3, pyramid):
    empty = run_batch(cube3, cube3.x1, cube3.x2, 0, 0)
    reports = [bound_report(empty, cube3),
               bound_report(run_batch(cube3, cube3.x1, cube3.x2, 3, 0), cube3, bfs_lower=3),
               bound_report(run_batch(pyramid, pyramid.x1, pyramid.x2, 2, 0), pyramid)]
    reports.append(replace(reports[0], instance_id='q"uoted ü'))
    assert reports[0].mean_length is None
    for report in reports:
        text = emit(report, "json")
        _assert_indent2(text[:-1])
