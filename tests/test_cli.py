import io
from math import inf

import pytest

from stochcuts.cli import (main, build_parser, render_trace_svg, _run_config,
                           EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_TIME_LIMIT)
from stochcuts.instance_io import load, FORMAT_TAG
from stochcuts.drivers import RunConfig, read_trace_csv


def test_generate_writes_parseable_instance(tmp_path):
    out = tmp_path / "inst.txt"
    code = main(["generate", "--sites", "3", "--clients", "4",
                 "--scenarios", "4", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith(FORMAT_TAG + "\n")
    inst = load(out)
    assert inst.n1 == 3
    assert inst.n_scenarios == 4


def test_generate_to_stdout(capsys):
    code = main(["generate", "--sites", "2", "--clients", "2",
                 "--scenarios", "2"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith(FORMAT_TAG + "\n")


def test_generate_rejects_bad_counts(capsys):
    code = main(["generate", "--scenarios", "0"])
    assert code == EXIT_USAGE
    assert "scenario_count" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "thm1", "--no-such-flag"])
    assert exc.value.code == EXIT_USAGE


def test_solve_builtin_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code = main(["solve", "thm1", "--algorithm", "apblagc",
                 "--trace", str(trace_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "z_lb 0.5" in out
    assert "reason outer_stop" in out
    with open(trace_path) as fh:
        rows = read_trace_csv(fh)
    assert rows
    assert rows[-1]["kind"] == "termination"
    assert rows[-1]["ccut"] == 1


def test_solve_instance_file(tmp_path, capsys):
    inst_path = tmp_path / "i.txt"
    main(["generate", "--sites", "2", "--clients", "3", "--scenarios", "2",
          "--out", str(inst_path)])
    code = main(["solve", str(inst_path), "--algorithm", "benders"])
    assert code == EXIT_OK
    assert "algorithm benders" in capsys.readouterr().out


def test_solve_unknown_instance(capsys):
    code = main(["solve", "no-such-instance"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_bad_config_value(capsys):
    # one error line and the usage exit code, before any solve: --box inf
    # used to fail deep in separation, --time-limit nan to run unlimited
    for flag, value, field in (("--kappa1", "7", "kappa1"),
                               ("--box", "inf", "multiplier_box"),
                               ("--box", "nan", "multiplier_box"),
                               ("--time-limit", "nan", "time_limit"),
                               ("--epsilon", "nan", "epsilon")):
        code = main(["solve", "thm1", flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err


@pytest.mark.parametrize("body, message", [
    ("dims 1 1 0 1 1\nbogus 1 2\n", "line 3: unknown directive 'bogus'"),
    ("dims 1 1 0 1 1\nW 0 0 1.0\nscenario 0 0.5\n",
     "invalid instance: probabilities sum to 0.5"),
    ("dims 1 1 0 1 1\nd 0 1.0\nW 0 0 1.0\nscenario 0 1\nh 0 0 nan\n",
     "invalid instance: scenario 0: h has a non-finite entry"),
    ("dims 1 1 0 1 1\nmark integer 0\nW 0 0 1.0\nscenario 0 1\n",
     "invalid instance: integer column 0 needs a finite bound: u 0 <value>"),
])
def test_solve_rejects_bad_file(tmp_path, capsys, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"{FORMAT_TAG}\n{body}")
    for argv in (["solve", str(path)], ["compare", "thm1", str(path)]):
        assert main(argv) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("algorithm, message", [
    ("benders", "scenario 0: infeasible for every first stage"),
    ("apblagc", "scenario 0: infeasible for every first stage"),
    ("alg1", "scenario 0: infeasible for every first stage"),
])
def test_solve_reports_an_infeasible_instance(tmp_path, capsys, algorithm,
                                              message):
    # the file loads, but its one scenario needs 2 <= y <= 1 whatever x is:
    # the solve proves it and says so in one line, with no traceback and
    # no trace file left behind
    path = tmp_path / "empty-recourse.txt"
    path.write_text(f"{FORMAT_TAG}\ndims 1 1 0 2 1\nmark binary 0\nc 0 1.0\n"
                    "d 0 1.0\nW 0 0 1.0\nW 1 0 -1.0\nscenario 0 1.0\n"
                    "h 0 0 2.0\nh 0 1 -1.0\n")
    trace_path = tmp_path / "trace.csv"
    for argv in (["solve", str(path), "--algorithm", algorithm,
                  "--trace", str(trace_path)],
                 ["compare", "thm1", str(path), "--algorithms", algorithm]):
        assert main(argv) == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not trace_path.exists()


def test_solve_reports_duplicate_entries(tmp_path, capsys):
    # a repeated c line is summed, which doubles that cost: solve and
    # compare say so on stderr, one warning line per duplicate, and print
    # and exit as they do for the file with the sum, which warns of nothing
    body = ("dims 1 1 0 1 1\nmark binary 0\nc 0 {c}\nd 0 1.0\nW 0 0 1.0\n"
            "scenario 0 1.0\nh 0 0 1.0\n")
    path, summed = tmp_path / "dup.txt", tmp_path / "summed.txt"
    path.write_text(f"{FORMAT_TAG}\n" + body.format(c="-1.0\nc 0 -1.0"))
    summed.write_text(f"{FORMAT_TAG}\n" + body.format(c="-2.0"))
    for argv in (["solve", "{}", "--algorithm", "benders"],
                 ["compare", "{}", "--algorithms", "benders"]):
        outs, errs = [], []
        for source in (summed, path):
            assert main([a.format(source) for a in argv]) == EXIT_OK
            out, err = capsys.readouterr()
            # compare's last column is the solve's seconds
            outs.append([line.rsplit(None, 1)[0] if argv[0] == "compare"
                         else line for line in out.splitlines()])
            errs.append(err)
        assert outs[0] == outs[1] and any("-1" in line for line in outs[1])
        assert errs == ["", f"warning: {path}: line 5: duplicate c entry 0 "
                            "summed\n"]


def test_solve_unreadable_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read instance: ")
    assert err.count("\n") == 1


def test_run_option_defaults_are_run_config_defaults():
    for argv, algorithm in ((["solve", "thm1"], "apblagc"),
                            (["solve", "thm1", "--algorithm", "bdd"], "bdd"),
                            (["compare", "thm1"], "benders")):
        args = build_parser().parse_args(argv)
        assert _run_config(args, algorithm) == RunConfig(algorithm=algorithm)
    for command in (["solve", "thm1"], ["compare", "thm1"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--seed", "0"])


def test_solve_time_limit_exit_code(tmp_path):
    inst_path = tmp_path / "i.txt"
    main(["generate", "--sites", "4", "--clients", "6", "--scenarios", "8",
          "--out", str(inst_path)])
    code = main(["solve", str(inst_path), "--time-limit", "0.001"])
    assert code == EXIT_TIME_LIMIT


def test_solve_final_mip_master_at_the_deadline(monkeypatch, capsys):
    # branch and bound on the integer master stops at the deadline: the
    # run reports time_limit and its LP bound, no traceback
    from types import SimpleNamespace
    from stochcuts import mip
    monkeypatch.setattr(mip, "time", SimpleNamespace(monotonic=lambda: inf))
    code = main(["solve", "thm1", "--algorithm", "benders",
                 "--final-mip-master"])
    assert code == EXIT_TIME_LIMIT
    assert "reason time_limit" in capsys.readouterr().out


def test_compare_table(capsys):
    code = main(["compare", "thm1", "--algorithms", "benders,apblagc"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "thm1" in out
    assert "benders" in out and "apblagc" in out
    # the best bound per instance is starred
    starred = [line for line in out.splitlines() if "*" in line]
    assert any("apblagc" in line for line in starred)


def test_compare_rejects_unknown_algorithm_before_solving(monkeypatch,
                                                         capsys):
    # every config is built first: a bad name used to surface as a
    # ValueError traceback after the algorithms before it had solved
    from stochcuts import cli
    solved = []
    monkeypatch.setattr(cli, "run", lambda *args: solved.append(args))
    code = main(["compare", "thm1", "--algorithms", "benders,foo"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert solved == [] and out == ""
    assert err.startswith("error: unknown algorithm 'foo'")
    assert err.count("\n") == 1


def test_unwritable_output_paths(tmp_path, monkeypatch, capsys):
    # one error line and the usage exit code, not a traceback; solve finds
    # out before it solves
    from stochcuts import cli
    trace_path = tmp_path / "trace.csv"
    main(["solve", "thm1", "--trace", str(trace_path)])
    capsys.readouterr()

    def no_solve(*args):
        raise AssertionError("solved before opening the trace file")

    monkeypatch.setattr(cli, "run", no_solve)
    missing = tmp_path / "missing"
    for argv, what in (
            (["generate", "--out", str(missing / "i.txt")], "instance"),
            (["solve", "thm1", "--trace", str(missing / "t.csv")], "trace"),
            (["plot", str(trace_path), "--out", str(missing / "t.svg")],
             "svg"),
            (["plot", str(trace_path), "--out", str(tmp_path)], "svg")):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what}: ")
        assert err.count("\n") == 1
    assert not missing.exists()


def test_plot_writes_svg(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    svg_path = tmp_path / "trace.svg"
    main(["solve", "refinement-example", "--algorithm", "alg1",
          "--trace", str(trace_path)])
    capsys.readouterr()
    code = main(["plot", str(trace_path), "--out", str(svg_path),
                 "--title", "alg1 on refinement-example"])
    assert code == EXIT_OK
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "alg1 on refinement-example" in svg
    assert "</svg>" in svg


def test_plot_missing_file(tmp_path, capsys):
    code = main(["plot", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.svg")])
    assert code == EXIT_USAGE


def test_plot_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code = main(["plot", str(bad), "--out", str(tmp_path / "o.svg")])
    assert code == EXIT_FAILURE
    assert "unknown trace schema" in capsys.readouterr().err


def test_render_trace_svg_requires_events():
    with pytest.raises(ValueError, match="no events"):
        render_trace_svg([])


def test_render_trace_svg_marks_refinements(tmp_path):
    trace_path = tmp_path / "t.csv"
    main(["solve", "refinement-example", "--algorithm", "alg1",
          "--trace", str(trace_path)])
    with open(trace_path) as fh:
        rows = read_trace_csv(fh)
    svg = render_trace_svg(rows)
    assert any(r["kind"] == "refinement" for r in rows)
    assert "stroke-dasharray" in svg
    # title text is escaped
    fancy = render_trace_svg(rows, title="a<b&c")
    assert "a&lt;b&amp;c" in fancy


def test_verify_cli_thm1(capsys):
    code = main(["verify", "--suite", "thm1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  thm1-strictness" in out
    assert ":: 1 checks, 0 failures" in out


def test_verify_cli_single_cluster(capsys):
    # five builtins and one sslp-3-4-4 instance per seed
    code = main(["verify", "--suite", "single-cluster", "--seeds", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  single-cluster  instance=sslp-3-4-4-s0" in out
    assert ":: 6 checks, 0 failures" in out


def test_verify_cli_injected_failure(capsys):
    code = main(["verify", "--suite", "validity", "--seeds", "0",
                 "--inject-invalid-cut"])
    assert code == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness:" in out
    assert "1 failures" in out


def test_verify_cli_bad_seeds(capsys):
    for seeds, message in (("a,b", "bad seed list 'a,b'"),
                           ("-1", "negative seed -1 in '-1'")):
        code = main(["verify", "--suite", "dim1", "--seeds=" + seeds])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
