"""Command line behaviors: happy paths, exit codes, emitted files."""

import json
from dataclasses import replace

import pytest

import polywalk.cli as cli_mod
import polywalk.experiments as experiments_mod
import polywalk.flatness as flatness_mod
import polywalk.polytope as polytope_mod
from polywalk.cli import main
from polywalk.errors import CapExceeded, DependentVectors, RetriesExhausted
from polywalk.flatness import certify_delta_Delta
from polywalk.instances import (
    FAMILIES,
    gen_hypercube,
    gen_transportation,
    read_instance,
    write_instance,
)
from polywalk.shadow import ShadowPath


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube3.json"
    write_instance(gen_hypercube(3), path)
    return path


def test_generate_then_path(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    assert main(["generate", "--family", "hypercube", "--n", "3",
                 "--out", str(inst_file)]) == 0
    assert inst_file.exists()
    capsys.readouterr()

    assert main(["path", "--instance", str(inst_file), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "status=Completed" in out
    assert "length=3" in out
    assert "slopes=" in out


def test_path_explicit_endpoints(cube_file, capsys):
    code = main(["path", "--instance", str(cube_file),
                 "--x1", "1,1,1", "--x2", "0,0,0", "--seed", "5"])
    assert code == 0
    assert "length=3" in capsys.readouterr().out


def test_path_json_deterministic(cube_file, tmp_path, capsys):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    for out in (out1, out2):
        assert main(["path", "--instance", str(cube_file), "--seed", "7",
                     "--json", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    record = json.loads(out1.read_text())
    assert record["status"] == "Completed" and len(record["vertices"]) == 4
    capsys.readouterr()


def test_path_bad_coordinates(cube_file, capsys):
    assert main(["path", "--instance", str(cube_file),
                 "--x1", "zero,0,0", "--x2", "1,1,1", "--seed", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--x1", "--x2"])
def test_path_empty_coordinate_list_is_refused(cube_file, capsys, flag):
    # An empty list is a bad list, not a missing one: the file's endpoint
    # must not stand in for it.
    assert main(["path", "--instance", str(cube_file), flag, "", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad coordinate list ''")
    assert captured.out == ""


def test_path_endpoint_of_the_wrong_length(cube_file, capsys):
    assert main(["path", "--instance", str(cube_file), "--x1", "0,0", "--seed", "0"]) == 1
    assert capsys.readouterr().err == "error: point has length 2, expected 3\n"


def test_path_without_endpoints_in_the_file_or_flags(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    write_instance(replace(gen_hypercube(3), x1=None, x2=None), bare)
    assert main(["path", "--instance", str(bare), "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: endpoints missing (no --x1/--x2 and none in the file)\n"
    assert captured.out == ""


def test_generate_help_and_unknown_family(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    text = capsys.readouterr().out
    assert all(family in text for family in FAMILIES)
    out = tmp_path / "x.json"
    assert main(["generate", "--family", "dodecahedron", "--n", "3",
                 "--out", str(out)]) == 1
    assert "unknown family 'dodecahedron'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--family", "hypercube", "--n", "0"], "dimension must be positive"),
    (["generate", "--family", "simplex", "--n", "0"], "dimension must be positive"),
    (["generate", "--family", "cut-cube", "--n", "1"], "dimension must be at least 2"),
    (["generate", "--family", "transportation", "--n", "1"], "transportation needs p, q >= 2"),
    (["generate", "--family", "random-sphere", "--n", "3", "--m", "3"],
     "need at least n+1 rows for a bounded polytope"),
    (["experiment", "--trials", "-1", "--seed", "0"], "trial count must be nonnegative"),
], ids=["hypercube-n0", "simplex-n0", "cut-cube-n1", "transportation-n1", "sphere-m3-n3",
        "trials-negative"])
def test_out_of_range_sizes_exit_1_and_write_nothing(cube_file, tmp_path, capsys, argv,
                                                     message):
    out = tmp_path / "out"
    extra = ["--instance", str(cube_file)] if argv[0] == "experiment" else []
    assert main(argv + extra + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_missing_instance_file(tmp_path, capsys):
    assert main(["delta", "--instance", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["path", "--instance", str(bad), "--seed", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400"], ids=["int", "float"])
def test_number_beyond_the_float_range_exit_code(cube_file, tmp_path, capsys, number):
    data = json.loads(cube_file.read_text())
    data["b"][0] = "HUGE"
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data).replace('"HUGE"', number))
    assert main(["path", "--instance", str(bad), "--seed", "0"]) == 1
    assert "error: b contains a non-finite number" in capsys.readouterr().err


def test_delta_output(cube_file, capsys):
    assert main(["delta", "--instance", str(cube_file)]) == 0
    out = capsys.readouterr().out
    assert "delta=1.0" in out
    assert "method=enumeration" in out
    assert "bases_checked=8" in out


def test_delta_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    write_instance(gen_hypercube(30), big)
    assert main(["delta", "--instance", str(big)]) == 3
    assert "error:" in capsys.readouterr().err


def test_bound_check_cube(cube_file, capsys):
    assert main(["bound-check", "--instance", str(cube_file)]) == 0
    out = capsys.readouterr().out
    assert "Delta=1" in out
    assert "bound_on_inv_delta=3" in out
    assert "certificate=holds" in out


def test_bound_check_skips_non_integral(tmp_path, capsys):
    inst_file = tmp_path / "sphere.json"
    assert main(["generate", "--family", "random-sphere", "--n", "3",
                 "--seed", "1", "--out", str(inst_file)]) == 0
    capsys.readouterr()
    assert main(["bound-check", "--instance", str(inst_file)]) == 0
    assert "certificate=skipped" in capsys.readouterr().out


def test_bound_check_violated_exit(cube_file, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "certify_reports",
                        lambda report, subdets: (False, -1.0))
    assert main(["bound-check", "--instance", str(cube_file)]) == 2
    assert "certificate=violated" in capsys.readouterr().out


def test_bound_check_enumerates_once(cube_file, capsys, calls):
    calls.watch((flatness_mod, cli_mod), "delta_A", "subdet_report")
    assert main(["bound-check", "--instance", str(cube_file)]) == 0
    assert "certificate=holds" in capsys.readouterr().out
    assert calls.counts() == {"delta_A": 1, "subdet_report": 1}


def _experiment(instance, out_dir) -> int:
    return main(["experiment", "--instance", str(instance), "--trials", "3",
                 "--seed", "0", "--out", str(out_dir)])


def test_every_certificate_reads_one_subdet_report(cube_file, tmp_path, capsys, calls):
    calls.watch((flatness_mod, cli_mod, experiments_mod), "subdet_report")
    assert certify_delta_Delta(gen_hypercube(3)) == (True, 2.0)
    assert len(calls["subdet_report"]) == 1
    assert _experiment(cube_file, tmp_path / "report") == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["bound_integral_ceiling"] == 8 * 6 * 9 * 9
    assert len(calls["subdet_report"]) == 2
    assert main(["bound-check", "--instance", str(cube_file)]) == 0
    assert len(calls["subdet_report"]) == 3
    capsys.readouterr()


def test_rank_deficient_integer_matrix(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat", "m": 3, "n": 2,
                                "A": [[1, 1], [2, 2], [3, 3]], "b": [1, 2, 3],
                                "integral": True, "x1": [0.5, 0.5], "x2": [0.0, 1.0]}))
    with pytest.raises(DependentVectors, match="no independent n-row subset"):
        certify_delta_Delta(read_instance(path))
    assert main(["bound-check", "--instance", str(path)]) == 1
    assert _experiment(path, tmp_path / "report") == 1
    assert "error:" in capsys.readouterr().err


def test_subdet_cap_binds_every_integer_certificate(cube_file, pyramid, tmp_path, capsys,
                                                    monkeypatch):
    # bound-check, experiment's integral ceiling and certify_delta_Delta all
    # read the certificate from subdet_report, under SUBDET_CAP.  The cap
    # counts the minors of the rows that are not unit rows: none on the
    # cube, whose rows are all unit rows, so even a cap of 1 answers it, and
    # 34 on the pyramid.
    monkeypatch.setattr(flatness_mod, "SUBDET_CAP", 1)
    assert certify_delta_Delta(gen_hypercube(3)) == (True, 2.0)
    assert _experiment(cube_file, tmp_path / "report") == 0
    assert main(["bound-check", "--instance", str(cube_file)]) == 0
    assert "Delta=1\n" in capsys.readouterr().out
    path = tmp_path / "pyramid.json"
    write_instance(pyramid, path)
    monkeypatch.setattr(flatness_mod, "SUBDET_CAP", 33)
    with pytest.raises(CapExceeded, match="34 square submatrices exceed cap 33"):
        certify_delta_Delta(pyramid)
    assert main(["bound-check", "--instance", str(path)]) == 3
    assert _experiment(path, tmp_path / "refused") == 3
    assert capsys.readouterr().err.count("34 square submatrices exceed cap 33") == 2
    assert not (tmp_path / "refused").exists()
    monkeypatch.setattr(flatness_mod, "SUBDET_CAP", 34)
    assert certify_delta_Delta(pyramid)[0]
    assert main(["bound-check", "--instance", str(path)]) == 0
    assert "Delta=2\n" in capsys.readouterr().out
    assert _experiment(path, tmp_path / "report") == 0


def test_bound_check_transportation_4x4(tmp_path, capsys):
    # Totally unimodular: 11,439 minors of the rows that are not unit rows
    # give Delta = 1, where every order of all 16 rows holds 2,042,974.
    path = tmp_path / "t44.json"
    write_instance(gen_transportation(4, 4, 0), path)
    capsys.readouterr()
    assert main(["bound-check", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Delta=1\n" in out
    assert "certificate=holds" in out


def test_delta_cap_exits_3_in_every_command(tmp_path, capsys, monkeypatch):
    # experiment cannot report without delta, so the cap that refuses it
    # exits 3 there too, as in delta and bound-check.  delta_A enumerates
    # under ENUM_CAP, as every C(., n) basis enumeration does: a cap of 5
    # passes each endpoint's C(5, 4) = 5 tight subsets and refuses the
    # C(9, 4) = 126 bases of delta_A and the vertex graph.
    path = tmp_path / "t33.json"
    write_instance(gen_transportation(3, 3, 0), path)
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 5)
    assert main(["delta", "--instance", str(path)]) == 3
    assert main(["bound-check", "--instance", str(path)]) == 3
    assert _experiment(path, tmp_path / "report") == 3
    assert capsys.readouterr().err.count("exceeds cap 5") == 3
    assert not (tmp_path / "report").exists()


def test_experiment_refuses_delta_before_any_trial(tmp_path, capsys, calls, monkeypatch):
    # The report needs delta, so a cap that refuses it refuses the command
    # before the first walk, with the message and exit code of the report.
    path = tmp_path / "t33.json"
    write_instance(gen_transportation(3, 3, 0), path)
    calls.watch(experiments_mod, "find_path")
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 5)
    assert main(["experiment", "--instance", str(path), "--trials", "50", "--seed", "0",
                 "--out", str(tmp_path / "report")]) == 3
    assert capsys.readouterr().err == ("error: flatness of transportation-p3q3-s0 not "
                                       "computable: C(9,4) = 126 subsets exceeds cap 5\n")
    assert calls["find_path"] == [] and not (tmp_path / "report").exists()


def test_experiment_refuses_subdet_cap_before_any_trial(pyramid, tmp_path, capsys, calls,
                                                        monkeypatch):
    # The integral ceiling needs the certificate, so a SUBDET_CAP that
    # refuses its 34 minors refuses the command before the first walk.
    path = tmp_path / "pyramid.json"
    write_instance(pyramid, path)
    calls.watch(experiments_mod, "find_path")
    monkeypatch.setattr(flatness_mod, "SUBDET_CAP", 33)
    assert main(["experiment", "--instance", str(path), "--trials", "30", "--seed", "0",
                 "--out", str(tmp_path / "report")]) == 3
    assert capsys.readouterr().err == "error: 34 square submatrices exceed cap 33\n"
    assert calls["find_path"] == [] and not (tmp_path / "report").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_experiment_refuses_out_before_any_trial(tmp_path, capsys, calls, under):
    # An --out that is a file, or lies under one, cannot hold the reports:
    # the command refuses it before the first walk.
    path = tmp_path / "t33.json"
    write_instance(gen_transportation(3, 3, 0), path)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "report" if under else blocker
    calls.watch(experiments_mod, "find_path")
    assert main(["experiment", "--instance", str(path), "--trials", "30", "--seed", "0",
                 "--out", str(out)]) == 1
    reason = "[Errno 20] Not a directory" if under else "[Errno 17] File exists"
    assert capsys.readouterr().err == f"error: {reason}: '{out}'\n"
    assert calls["find_path"] == [] and blocker.read_text() == ""


def test_experiment_enumerates_delta_once(tmp_path, capsys, calls):
    path = tmp_path / "t33.json"
    write_instance(gen_transportation(3, 3, 0), path)
    calls.watch(experiments_mod, "delta_A", "find_path")
    assert main(["experiment", "--instance", str(path), "--trials", "50", "--seed", "0",
                 "--out", str(tmp_path / "report")]) == 0
    assert calls.counts() == {"delta_A": 1, "find_path": 50}


def test_experiment_where_every_trial_fails_exits_2(cube_file, tmp_path, capsys,
                                                   monkeypatch):
    failed = ShadowPath(vertices=(), slopes=(), pivot_trace=(),
                        status="Failed(LeftwardEdge)", seed=0, retries=16)

    def exhausted(inst, x1, x2, seed):
        raise RetriesExhausted("forced", ["LeftwardEdge"] * 16, path=failed)

    monkeypatch.setattr(experiments_mod, "find_path", exhausted)
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--instance", str(cube_file), "--trials", "4",
                 "--seed", "0", "--out", str(out_dir)]) == 2
    assert "trials=0" in capsys.readouterr().out
    record = json.loads((out_dir / "report.json").read_text())
    assert record["trials"] == 0 and record["mean_length"] is None
    assert (out_dir / "report.csv").exists()
    assert main(["experiment", "--instance", str(cube_file), "--trials", "0",
                 "--seed", "0", "--out", str(out_dir)]) == 0


def test_degenerate_endpoint_cap_exit_code(tripled_cube3, tmp_path, capsys, monkeypatch):
    path = tmp_path / "tripled.json"
    write_instance(tripled_cube3, path)
    assert main(["path", "--instance", str(path), "--seed", "0"]) == 0
    monkeypatch.setattr(polytope_mod, "ENUM_CAP", 83)
    capsys.readouterr()
    assert main(["path", "--instance", str(path), "--seed", "0"]) == 3
    assert _experiment(path, tmp_path / "report") == 3
    assert capsys.readouterr().err.count("C(9,3) = 84 subsets exceeds cap 83") == 2


def test_path_retries_exhausted_exit(cube_file, tmp_path, capsys, monkeypatch):
    failed = ShadowPath(vertices=(), slopes=(), pivot_trace=(),
                        status="Failed(LeftwardEdge)", seed=0, retries=16)

    def exhausted(inst, x1, x2, seed):
        raise RetriesExhausted("forced", ["LeftwardEdge"] * 16, path=failed)

    monkeypatch.setattr(cli_mod, "find_path", exhausted)
    out_json = tmp_path / "failed.json"
    code = main(["path", "--instance", str(cube_file), "--seed", "0",
                 "--json", str(out_json)])
    assert code == 2
    assert "status=Failed(LeftwardEdge)" in capsys.readouterr().out
    record = json.loads(out_json.read_text())
    assert record["status"] == "Failed(LeftwardEdge)"
    assert record["projections"] == [] and record["perturbation"] is None


def test_experiment_writes_reports(cube_file, tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code = main(["experiment", "--instance", str(cube_file),
                 "--trials", "20", "--seed", "0", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "trials=20" in out and "mean_length=3.0" in out
    csv_text = (out_dir / "report.csv").read_text()
    assert csv_text.startswith(
        "instance_id,m,n,delta,trials,mean,stderr,bound,ratio,bfs_lower")
    record = json.loads((out_dir / "report.json").read_text())
    assert record["bfs_lower"] == 3
    assert record["bound_8mn2_over_delta2"] == 432.0


def test_experiment_requires_endpoints(tmp_path, capsys):
    from polywalk.polytope import build_instance

    inst = build_instance([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                          [1.0, 1.0, 0.0, 0.0], name="square")
    path = tmp_path / "square.json"
    write_instance(inst, path)
    code = main(["experiment", "--instance", str(path),
                 "--trials", "5", "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "endpoints" in capsys.readouterr().err


def test_experiment_deterministic_outputs(cube_file, tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["experiment", "--instance", str(cube_file),
                     "--trials", "15", "--seed", "3", "--out", str(d)]) == 0
    assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    capsys.readouterr()


def test_build_parser_is_built_once():
    assert cli_mod.build_parser() is cli_mod.build_parser()


def test_handler_replaced_after_first_parse_runs(cube_file, capsys, monkeypatch):
    assert main(["path", "--instance", str(cube_file), "--seed", "0"]) == 0
    seen = []

    def fake_path(args):
        seen.append((args.instance, args.seed, args.x1))
        return 7

    monkeypatch.setattr(cli_mod, "cmd_path", fake_path)
    assert main(["path", "--instance", str(cube_file), "--seed", "4"]) == 7
    assert seen == [(str(cube_file), 4, None)]
    capsys.readouterr()


def _cli_run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"exit {exc.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_back_to_back_calls_match_fresh_parsers(cube_file, tmp_path, capsys):
    # Each command differs from the one before in subcommand or flags, so an
    # option value or default left behind by one parse would show up in the
    # next; a malformed call in the middle must leave nothing behind either.
    def commands(tag):
        out = tmp_path / tag
        out.mkdir()
        return [
            ["path", "--instance", str(cube_file), "--x1", "1,1,1", "--x2", "0,1,0",
             "--seed", "5", "--json", str(out / "explicit.json")],
            ["path", "--instance", str(cube_file), "--seed", "5"],
            ["generate", "--family", "random-sphere", "--n", "3", "--m", "9",
             "--seed", "1", "--out", str(out / "sphere.json")],
            ["generate", "--family", "transportation", "--n", "2",
             "--m", "3", "--out", str(out / "tp.json")],
            ["path", "--instance", str(cube_file)],
            ["delta", "--instance", str(out / "sphere.json")],
            ["bound-check", "--instance", str(out / "tp.json")],
            ["path", "--instance", str(out / "tp.json"), "--seed", "3",
             "--json", str(out / "tp_path.json")],
            ["experiment", "--instance", str(out / "tp.json"), "--trials", "4",
             "--seed", "2", "--out", str(out / "exp")],
            ["generate", "--family", "hypercube", "--n", "2", "--out", str(out / "sq.json")],
        ]

    def files(tag):
        root = tmp_path / tag
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    shared = [_cli_run(argv, capsys) for argv in commands("shared")]
    fresh = []
    for argv in commands("fresh"):
        cli_mod.build_parser.cache_clear()
        fresh.append(_cli_run(argv, capsys))
    strip = str(tmp_path)
    assert [tuple(str(p).replace(strip + "/shared", "") for p in r) for r in shared] == \
        [tuple(str(p).replace(strip + "/fresh", "") for p in r) for r in fresh]
    assert files("shared") == files("fresh")
    assert shared[4][0] == "exit 2"
    assert [code for code, _, _ in shared[:4]] == [0, 0, 0, 0]
