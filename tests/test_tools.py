"""The byte-identity tool runs to completion once and prints one digest per
group; in-process, its check of those lines names each group that differs
from a saved listing, and finds none against the checked-in listing; the
line counter counts each module;
the paired benchmark alternates its two checkouts and summarizes each side;
the layer timer's pivot layer runs on a small rotated cube, its oracle layer
on fresh copies of a small cube and a random sphere, its path layer on the
cli-degenerate workload's files and its warm layer on a small cube, and it
prints and writes one row per name;
the line tracer lists what one test module leaves unrun, each line with
its reason; the walk oracle loads by file path, as a script outside the
tests loads it."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polywalk.shadow as shadow_mod
from polywalk.instances import GeneratorSpec, gen_degenerate_pyramid, generate
from polywalk.polytope import vertex_graph
from polywalk.shadow import find_path

ROOT = Path(__file__).resolve().parent.parent
TOOL = [sys.executable, str(ROOT / "tools" / "output_digest.py")]
LISTING = ROOT / "tools" / "output_digests.txt"
SRC_LINES = ROOT / "tools" / "src_lines.py"
GROUPS = ["instances", "path", "experiment", "delta", "bound-check", "help", "bases",
          "walks", "minors", "walk-large", "pairs"]


def _load_tool(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def digests():
    """The lines of the one run of the digest tool as a script."""
    proc = subprocess.run(TOOL, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def digest_tool(digests):
    """The digest tool loaded in-process, its listing stubbed to that run's lines."""
    tool = _load_tool("output_digest")
    tool.listing = lambda: list(digests)
    return tool


def test_output_digest_prints_every_group(digests):
    # The digests themselves depend on the LAPACK build, so only their form
    # and order are pinned.
    assert all(re.fullmatch(r"[0-9a-f]{64}  [a-z-]+", line) for line in digests), digests
    assert [line.split("  ")[1] for line in digests] == GROUPS
    # Loading the tool sets no environment variable: COLUMNS is set only
    # while the help group renders.
    environ = dict(os.environ)
    _load_tool("output_digest")
    assert dict(os.environ) == environ


def test_output_digest_check_names_each_differing_group(digest_tool, digests, tmp_path,
                                                        capsys):
    saved = tmp_path / "digests.txt"
    saved.write_text("\n".join(digests) + "\n")
    assert digest_tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr() == ("\n".join(digests) + "\n", "")

    lines = list(digests)
    lines[GROUPS.index("walks")] = "0" * 64 + "  walks"
    saved.write_text("\n".join(lines) + "\n")
    assert digest_tool.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().err.splitlines() == ["differs: walks"]


def test_outputs_match_the_checked_in_listing(digest_tool, capsys):
    # The listing's first line names the numpy version it was recorded
    # with; another version may link another LAPACK, with other bits.
    header = LISTING.read_text().splitlines()[0]
    recorded = header.removeprefix("# numpy ")
    if recorded != np.__version__:
        pytest.skip(f"{LISTING.name} was recorded with numpy {recorded}, "
                    f"this is numpy {np.__version__}")
    assert digest_tool.main(["--check", str(LISTING)]) == 0, capsys.readouterr().err


def test_src_lines_counts_every_module():
    proc = subprocess.run([sys.executable, str(SRC_LINES)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted((ROOT / "src" / "polywalk").glob("*.py"))
    lengths = [path.read_bytes().count(b"\n") for path in modules]
    assert [row[0] for row in rows] == [path.stem for path in modules] + ["src/"]
    assert [int(row[1]) for row in rows] == lengths + [sum(lengths)]
    codes = [int(row[2]) for row in rows]
    assert codes[-1] == sum(codes[:-1]) and all(0 < c < n for c, n in zip(codes, lengths))


def test_src_lines_counts_no_docstring_comment_or_blank_line():
    tool = _load_tool("src_lines")
    lines = (ROOT / "src" / "polywalk" / "shadow.py").read_text().splitlines(keepends=True)
    physical, code = tool.count("".join(lines))
    assert physical == len(lines)
    walk_doc = lines.index('    """Follow the shadow boundary from start to target.\n')
    top = next(i for i, line in enumerate(lines) if line.startswith("def walk("))

    def counted(at, line):
        return tool.count("".join(lines[:at] + [line] + lines[at:]))

    # A line in the module's docstring and one in walk's; then a comment, a
    # blank line and a statement.
    assert counted(1, "One more docstring line.\n") == (physical + 1, code)
    assert counted(walk_doc + 1, "    One more docstring line.\n") == (physical + 1, code)
    assert counted(top, "# a comment\n") == (physical + 1, code)
    assert counted(top, "\n") == (physical + 1, code)
    assert counted(top, "\n_EXTRA = 1\n") == (physical + 2, code + 1)


def _paired_stub(sides, calls, digest=lambda side, pair: "abc", failed=lambda side, pair: 0):
    """A runner that writes each run's result file, as bench/run.py does.  In
    pair i the parent runs at 100 + i walks per second and the change 10%
    faster; the change's p50 is 25% worse, setup_s ties."""

    def stub(checkout, args):
        side = next(s for s, path in sides.items() if path == checkout)
        calls.append((side, args))
        pair = [s for s, _ in calls].count(side) - 1
        value = {"walks_per_s": 100.0 + pair, "setup_s": 0.5, "walk_p50_ms": 2.0,
                 "walk_p90_ms": 3.0, "pass_s": 1.0, "peak_rss_mb": 40.0}
        if side == "change":
            value["walks_per_s"] *= 1.1
            value["walk_p50_ms"] = 2.5
        metrics = {name: {"value": v, "unit": "u"} for name, v in value.items()}
        out = checkout / ".bench_out"
        out.mkdir(parents=True, exist_ok=True)
        (out / "result-corpus-seed1-trace0.json").write_text(json.dumps({
            "end_to_end": metrics, "raw": metrics, "digest": digest(side, pair),
            "failed": failed(side, pair), "env": {"source_sha256": side}}))

    return stub


def test_paired_bench_alternates_sides_and_summarizes(tmp_path):
    tool = _load_tool("paired_bench")
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls = []
    stub = _paired_stub(sides, calls)

    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"walk-large-seed0": {"kept": True}}))
    argv = [str(sides["parent"]), str(sides["change"]), "--workload", "corpus",
            "--pairs", "3", "--seed", "1", "--out", str(out)]
    assert tool.main(argv, runner=stub) == 0
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent",
                                           "parent", "change"]
    # The command and run length are the benchmark's own.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(args == spec["command"] + ["--workload", "corpus", "--seed", "1", "--seconds",
                                          str(spec["run_seconds"]), "--trace", "0"]
               for _, args in calls)

    record = json.loads(out.read_text())
    assert record["walk-large-seed0"] == {"kept": True}
    summary = record["corpus-seed1"]
    assert summary["first"] == ["parent", "change", "parent"]
    assert summary["digests_match"] and summary["failed"] == {"parent": [0] * 3,
                                                              "change": [0] * 3}
    assert summary["failed_total"] == {"parent": 0, "change": 0}
    walks = summary["metrics"]["walks_per_s"]
    assert walks["better"] == "higher" and walks["bound"] == 0.24
    assert walks["wins"] == {"parent": 0, "change": 3}
    assert all(abs(r - 1.1) < 1e-12 for r in walks["ratio"])
    assert walks["parent"] == [100.0, 101.0, 102.0]
    assert walks["median"]["parent"] == 101.0
    # Quartiles as bench/collect.py takes them: statistics.quantiles(n=4).
    assert (walks["q1"]["parent"], walks["q3"]["parent"]) == (100.0, 102.0)
    assert walks["gap_exceeds_parent_iqr"]
    assert walks["gain"] and walks["within_bound"]
    setup = summary["metrics"]["setup_s"]
    assert setup["wins"] == {"parent": 0, "change": 0}
    assert not setup["gain"] and setup["within_bound"]
    # 2.5 ms against 2.0 ms is 25% worse, past the bound of 24%.
    slower = summary["metrics"]["walk_p50_ms"]
    assert slower["wins"] == {"parent": 3, "change": 0} and not slower["gap_exceeds_parent_iqr"]
    assert slower["bound"] == 0.24 and not slower["gain"] and not slower["within_bound"]
    assert set(summary["raw"]) == set(summary["metrics"])
    assert not {"bound", "within_bound"} & set(summary["raw"]["pass_s"])
    assert summary["raw"]["walks_per_s"]["gain"]
    with pytest.raises(SystemExit):
        tool.main(argv + ["--seconds", "2"], runner=stub)


@pytest.mark.parametrize("digest, failed, match, code", [
    (lambda side, pair: "abc" if (side, pair) != ("change", 1) else "xyz", lambda s, p: 0,
     False, 1),
    (lambda side, pair: "abc", lambda side, pair: int((side, pair) == ("change", 2)), True, 1),
    (lambda side, pair: "abc", lambda side, pair: int(side == "parent"), True, 0),
], ids=["digest-mismatch", "change-fails-more", "parent-fails-more"])
def test_paired_bench_exits_1_on_a_digest_mismatch_or_more_failures(tmp_path, digest, failed,
                                                                     match, code):
    tool = _load_tool("paired_bench")
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    stub = _paired_stub(sides, [], digest, failed)
    out = tmp_path / "bench.json"
    argv = [str(sides["parent"]), str(sides["change"]), "--workload", "corpus",
            "--pairs", "4", "--seed", "1", "--out", str(out)]
    assert tool.main(argv, runner=stub) == code
    summary = json.loads(out.read_text())["corpus-seed1"]
    assert summary["digests_match"] is match
    assert summary["failed_total"] == {side: sum(failed(side, i) for i in range(4))
                                       for side in ("parent", "change")}
    # Four pairs all won: 10 * 4 >= 9 * 4.
    assert summary["metrics"]["walks_per_s"]["gain"]


def test_pivot_cost_times_cold_pivots_on_a_small_rotated_cube():
    tool = _load_tool("layer_cost")
    row = tool.pivot_measure(generate(GeneratorSpec(family="rotated", n=4)), 2, 1)
    # A rotated n-cube's walk from x1 to x2 takes n pivots.
    assert (row["n"], row["walks"], row["pivots"]) == (4, 2, 8)
    assert row["pivot_us"] > 0.0 and row["gufunc_us"] > 0.0
    assert row["outside_share"] == pytest.approx(1.0 - row["gufunc_us"] / row["pivot_us"])


def test_oracle_cost_times_both_oracles_on_small_instances(monkeypatch):
    tool = _load_tool("layer_cost")
    cube = generate(GeneratorSpec(family="hypercube", n=3))
    row = tool.oracle_measure(cube, 1)
    assert (row["n"], row["m"], row["bases"]) == (3, 6, 20)
    assert all(row[f"{key}_us"] > 0.0 for key in ("delta", "certify", "subdet", "inv"))
    assert row["delta_outside"] == pytest.approx(1.0 - row["inv_us"] / row["delta_us"])
    assert row["certify_outside"] == pytest.approx(1.0 - row["subdet_us"] / row["certify_us"])
    # Every cold run has a fresh copy: the instance itself keeps nothing.
    assert cube._delta_memo is None
    # The stacks are delta_A's chunks: C(6, 3) = 20 bases, seven at a time.
    monkeypatch.setattr(tool.linalg, "SUBSET_CHUNK", 7)
    assert [len(s) for s in tool.subset_stacks(cube)] == [7, 7, 6]
    # A float instance has no certificate.
    row = tool.oracle_measure(generate(GeneratorSpec(family="random-sphere", n=3, m=9, seed=0)),
                              1)
    assert row["bases"] == 84
    assert row["certify_us"] is None and row["subdet_us"] is None
    assert row["certify_outside"] is None


def test_path_cost_times_each_phase_of_a_cold_path_command(tmp_path):
    tool = _load_tool("layer_cost")
    files = tool.set_up(tool.workloads.CliDegenerate(0, tmp_path)).files
    assert [f.name for f in files] == ["transportation-3x3.json", "transportation-3x4.json",
                                       "pyramid.json"]
    out = tmp_path / "path.json"
    row = tool.path_measure(files[-1], 2, 1, out)
    assert row["commands"] == 2
    assert all(row[f"{name}_us"] > 0.0 for name in (*tool.PHASES, "command"))
    assert row["sum_us"] == pytest.approx(sum(row[f"{name}_us"] for name in tool.PHASES))
    # The last run, the whole command at seed 1, left its path record.
    assert json.loads(out.read_text())["seed"] == 1


def test_warm_cost_times_a_warm_walk_its_objectives_and_the_bare_draw():
    tool = _load_tool("layer_cost")
    memo = shadow_mod._objective_weights
    memo.cache_clear()
    row = tool.warm_measure(generate(GeneratorSpec(family="hypercube", n=3)), 2, 1)
    assert (row["n"], row["walks"]) == (3, 2)
    assert all(row[f"{part}_us"] > 0.0 for part in tool.WARM_PARTS)
    # The untimed pass drew both seeds; each timed walk and objective draw hit the memo.
    info = memo.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_layer_cost_prints_and_writes_each_layer_row(monkeypatch, tmp_path, capsys):
    tool = _load_tool("layer_cost")
    rows = {"a": {"bases": 4, "delta_us": 2.0, "certify_us": None, "subdet_us": None,
                  "inv_us": 1.0, "delta_outside": 0.5, "certify_outside": None},
            "b": {"bases": 6, "delta_us": 4.0, "certify_us": 8.0, "subdet_us": 2.0,
                  "inv_us": 2.0, "delta_outside": 0.5, "certify_outside": 0.75}}
    asked = []

    def stub(repeats):
        asked.append(repeats)
        yield from rows.items()

    monkeypatch.setitem(tool.LAYERS, "oracle", (stub, *tool.LAYERS["oracle"][1:]))
    out = tmp_path / "oracle.json"
    assert tool.main(["oracle", "--json", str(out)]) == 0
    assert asked == [9] and json.loads(out.read_text()) == rows
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["instance", "(us)", "bases", "delta_A", "certify", "subdet",
                                "inv", "delta", "out", "cert", "out"]
    assert [line.split() for line in lines[1:]] == [
        ["a", "4", "2.0", "-", "-", "1.0", "50.0%", "-"],
        ["b", "6", "4.0", "8.0", "2.0", "2.0", "50.0%", "75.0%"],
        ["total", "6.0", "8.0", "2.0", "3.0"]]
    with pytest.raises(SystemExit):
        tool.main(["walk"])


def _line_of(module, statement):
    """``module:line`` of the first line of a src/polywalk module that holds
    just the statement."""
    lines = (ROOT / "src" / "polywalk" / module).read_text().splitlines()
    return f"{module}:{[line.strip() for line in lines].index(statement) + 1}"


def test_line_reach_lists_what_a_small_target_leaves_unrun(tmp_path):
    out = tmp_path / "reach.txt"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_reach.py"), "--out",
                           str(out), "-q", "-p", "no:cacheprovider", "tests/test_jsontext.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = dict(line.split("  ", 1) for line in out.read_text().splitlines())
    # No test runs the module entry or the TYPE_CHECKING import; these tests
    # make no hypercube, but reach every line of the JSON writer.
    assert listed[_line_of("cli.py", "sys.exit(main())")] == \
        "runs only as `python -m polywalk.cli`"
    assert listed[_line_of("polytope.py", "from .shadow import _Basis, _Endpoints")] == \
        "a TYPE_CHECKING import, run only by a type checker"
    assert listed[_line_of("instances.py", 'raise ValueError("dimension must be positive")')] \
        == "no test meets `n < 1`"
    assert not any(key.startswith("jsontext.py:") for key in listed)


def test_walk_oracle_loads_by_file_path():
    oracles = _load_tool("oracles", "tests")
    pyramid = gen_degenerate_pyramid()
    graph = vertex_graph(pyramid)
    path = find_path(pyramid, pyramid.x1, pyramid.x2, seed=0)
    assert oracles.check_walk(pyramid, path, np.array([v.x for v in graph[0]]), graph) == []
