import json
from pathlib import Path

import pytest

import crtest
from crtest.cli import cli_main

FIXTURES = Path(__file__).parent / "fixtures"
TOY = str(FIXTURES / "toy.csv")

BASE_TEST_ARGS = [
    "test", "--input", TOY,
    "--time-col", "time", "--cause-col", "status",
    "--cause1", "1", "--cause2", "2", "--drop", "0",
]


def test_text_report(capsys):
    code = cli_main(BASE_TEST_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "method:        jel" in out
    assert "rows used:     5" in out


def test_json_report(capsys):
    code = cli_main(BASE_TEST_ARGS + ["--format", "json", "--method", "ddk"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "ddk"
    assert payload["result"]["two_sided"] is True
    assert payload["n_dropped"] == 2


def test_one_sided_flag(capsys):
    code = cli_main(BASE_TEST_ARGS + ["--format", "json", "--method", "ddk", "--one-sided"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["two_sided"] is False


def test_one_sided_is_for_ddk_only(capsys):
    # the jel test has one calibration, so the flag would be silently ignored
    for method in ([], ["--method", "jel"]):
        assert cli_main(BASE_TEST_ARGS + method + ["--one-sided"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--one-sided applies to --method ddk only" in err
        # the subcommand's own usage, not the top-level one
        assert err.startswith("usage: crtest test ")


def test_ddk_one_sided_is_for_ddk_cells_only(capsys):
    # a jel-only table has no ddk cell, so the flag would be silently ignored
    for command in (["power", "--a-grid", "1.0", "--n-grid", "10"],
                    ["power", "--a-grid", "1.0", "--n-grid", "10", "--alphas", "0.05"]):
        args = command + ["--p1", "0.4", "--reps", "100", "--seed", "4", "--ddk-one-sided"]
        assert cli_main(args + ["--method", "jel"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--ddk-one-sided applies to --method ddk or both only" in err
        assert err.startswith("usage: crtest power ")
        for method in ("ddk", "both"):
            assert cli_main(args + ["--method", method]) == 0
            assert capsys.readouterr().out.count("\nddk,") == 1


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = cli_main(BASE_TEST_ARGS + ["--format", "json", "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["method"] == "jel"
    # a power table written to --out is the bytes stdout gets without it
    table = tmp_path / "table.csv"
    args = ["power", "--a-grid", "1", "--n-grid", "10", "--p1", "0.4", "--reps", "100",
            "--seed", "4", "--workers", "1"]
    assert cli_main(args) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("method,a,n,alpha")
    assert cli_main(args + ["--out", str(table)]) == 0
    assert capsys.readouterr() == ("", "")
    assert table.read_bytes() == stdout.encode("utf-8")


def test_unwritable_out_exits_1(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    for args in (BASE_TEST_ARGS, ["power", "--p1", "0.4", "--a-grid", "1.0", "--n-grid", "10",
                                  "--reps", "100", "--seed", "4"]):
        assert cli_main(args + ["--out", str(dest)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not dest.parent.exists()


def test_no_header_with_indices(tmp_path, capsys):
    f = tmp_path / "bare.csv"
    f.write_text("1.0,1\n2.0,2\n3.0,1\n4.0,2\n")
    code = cli_main([
        "test", "--input", str(f), "--no-header",
        "--time-col", "0", "--cause-col", "1",
        "--cause1", "1", "--cause2", "2",
    ])
    assert code == 0
    assert "rows used:     4" in capsys.readouterr().out
    # only ASCII digits make an index: these stay names, which need a header
    for name in ("1\n", "\u0663"):  # the second is ARABIC-INDIC DIGIT THREE
        code = cli_main([
            "test", "--input", str(f), "--no-header",
            "--time-col", name, "--cause-col", "1",
            "--cause1", "1", "--cause2", "2",
        ])
        assert code == 1
        assert capsys.readouterr().err == (f"error: column {name!r} is a name but the file has"
                                           " no header; use an index\n")


def test_unmapped_label_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("time,status\n1.0,1\n2.0,9\n")
    code = cli_main([
        "test", "--input", str(f),
        "--time-col", "time", "--cause-col", "status",
        "--cause1", "1", "--cause2", "2",
    ])
    assert code == 1
    assert "unmapped cause label" in capsys.readouterr().err


def test_malformed_csv_exits_1(tmp_path, capsys):
    f = tmp_path / "wide.csv"
    f.write_text("time,status\n1.0,1\n2.0," + "2" * 200_000 + "\n")
    code = cli_main(["test", "--input", str(f)] + BASE_TEST_ARGS[3:])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 3") and "field limit" in err


def test_repeated_column_name_exits_1(tmp_path, capsys):
    f = tmp_path / "twice.csv"
    f.write_text("time,time,status\n1.0,2.0,1\n3.0,4.0,2\n")
    code = cli_main(["test", "--input", str(f)] + BASE_TEST_ARGS[3:])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: row 1") and "Traceback" not in err
    assert "'time'" in err and "more than once" in err


def test_missing_file_exits_1(capsys):
    code = cli_main(BASE_TEST_ARGS[:2] + ["/nonexistent/nope.csv"] + BASE_TEST_ARGS[3:])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_alpha_is_refused_before_the_file_is_read(capsys):
    # the level is checked first: a missing file still reports the bad alpha
    missing = BASE_TEST_ARGS[:2] + ["/nonexistent/nope.csv"] + BASE_TEST_ARGS[3:]
    for method in ("jel", "ddk"):
        assert cli_main(missing + ["--method", method, "--alpha", "1.5"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: alpha must be a real number in (0, 1), got 1.5\n")


def test_usage_error_exits_2(capsys):
    assert cli_main(["test", "--input", TOY]) == 2
    assert cli_main(["bogus-command"]) == 2
    assert cli_main([]) == 2


@pytest.mark.parametrize("args, message", [
    (["test", "--input", TOY, "--time-col", "time", "--cause-col", "status",
      "--cause1", ",", "--cause2", "2"],
     "argument --cause1: expected comma-separated labels, got ','"),
    (["power", "--a-grid", "1,x", "--n-grid", "20", "--p1", "0.3", "--seed", "1"],
     "expected comma-separated numbers, got '1,x'"),
    (["power", "--a-grid", "1.5", "--n-grid", "20,2.5", "--p1", "0.3", "--seed", "1"],
     "expected comma-separated integers"),
    (["test", "--input", TOY, "--time-col", "time", "--cause-col", "status",
      "--cause1", "1", "--cause2", "2", "--drop", ","],
     "argument --drop: expected comma-separated labels, got ','"),
])
def test_list_options_refuse_malformed_lists(args, message, capsys):
    assert cli_main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "crtest" in capsys.readouterr().out


def test_version(capsys):
    assert cli_main(["--version"]) == 0
    assert "crtest 0.9.0" in capsys.readouterr().out


def test_simulate_csv(capsys):
    # one simulation cell is a power table of one (a, n, alpha)
    code = cli_main([
        "power", "--p1", "0.4", "--a-grid", "1.0",
        "--n-grid", "10", "--reps", "150", "--alphas", "0.05", "--seed", "4",
        "--method", "jel",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("method,a,n,alpha")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "jel"
    rate = float(fields[4])
    assert 0.0 <= rate <= 1.0


def test_simulate_rejects_bad_p1(capsys):
    code = cli_main([
        "power", "--p1", "0.7", "--a-grid", "1.0",
        "--n-grid", "10", "--reps", "150", "--seed", "4",
    ])
    assert code == 1
    assert "p1" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["1", "1e-310", "5e291"])
def test_power_rejects_a_rate_that_takes_times_out_of_normal_floats(lam, capsys):
    # power takes no rate, in range or not: the rate rescales every time,
    # and both statistics read only the order of the times
    code = cli_main([
        "power", "--lambda", lam, "--p1", "0.3", "--a-grid", "1.0",
        "--n-grid", "20", "--reps", "200", "--seed", "1",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "unrecognized arguments: --lambda" in err


def test_power_json_grid(capsys):
    code = cli_main([
        "power", "--p1", "0.5",
        "--a-grid", "1.0,1.5", "--n-grid", "5,8", "--alphas", "0.05,0.1",
        "--reps", "120", "--seed", "6", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cells"]) == 2 * 2 * 2 * 2
    assert payload["metadata"]["reps"] == 120


def test_power_rejects_empty_grids(capsys):
    grids = {"--a-grid": "1.0", "--n-grid": "6", "--alphas": "0.05"}
    kinds = {"--a-grid": "numbers", "--n-grid": "integers", "--alphas": "numbers"}
    for empty, kind in kinds.items():
        args = ["power", "--p1", "0.5", "--reps", "100", "--seed", "6"]
        for flag, value in grids.items():
            args += [flag, "," if flag == empty else value]
        assert cli_main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {empty}: expected comma-separated {kind}" in err


def test_power_respects_method_choice(capsys):
    code = cli_main([
        "power", "--p1", "0.5",
        "--a-grid", "1.0", "--n-grid", "6", "--alphas", "0.05",
        "--reps", "100", "--seed", "6", "--method", "ddk",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("ddk,")


CELL = ["--p1", "0.3", "--reps", "100", "--seed", "2", "--workers", "1"]


def _table(args, capsys):
    assert cli_main(args + CELL) == 0
    out = capsys.readouterr().out
    if "--format" not in args:
        return out
    payload = json.loads(out)
    del payload["metadata"]["wall_time_s"]
    return payload


def test_alphas_default_to_0_05(capsys):
    assert (_table(["power", "--a-grid", "1.5", "--n-grid", "20"], capsys)
            == _table(["power", "--a-grid", "1.5", "--n-grid", "20", "--alphas", "0.05"], capsys))


def test_simulate_and_the_a_alias_are_usage_errors(capsys):
    # neither names anything: --a is a prefix of both --a-grid and --alphas
    for args, message in ((["simulate", "--a", "1.5", "--n", "20"], "invalid choice: 'simulate'"),
                          (["power", "--a", "1.5", "--n-grid", "20"],
                           "ambiguous option: --a could match --a-grid, --alphas")):
        assert cli_main(args + CELL) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err, err


def test_grid_options_take_unique_prefixes(capsys):
    # an explicit --n or --alpha alias would make these prefixes ambiguous
    for args in (["power", "--a-grid", "1.5", "--n-grid", "20", "--alph", "0.05"],
                 ["power", "--a-grid", "1.5", "--n-g", "10", "--alp", "0.05"],
                 ["power", "--a-g", "1.5", "--n", "20", "--alpha", "0.05"]):
        assert cli_main(args + CELL) == 0, args
        assert capsys.readouterr().out.startswith("method,a,n,alpha")


def test_cli_import_does_not_load_scipy(fresh):
    # importing crtest.cli loads no scipy, and with scipy unimportable every
    # public entry point, true_delta included, still runs
    code = "\n".join([
        "import sys",
        "import crtest.cli",
        "assert 'scipy' not in sys.modules",
        "sys.modules['scipy'] = None",
        "from crtest import FamilyParams, ddk_test, jel_test, sample, true_delta",
        "p = FamilyParams(lam=1.0, p1=0.4, a=1.5, seed=3)",
        "assert true_delta(p) > 0.0",
        "s = sample(p, 40)",
        "jel_test(s)",
        "ddk_test(s)",
        "args = ['power', '--p1', '0.4', '--a-grid', '1.5', '--n-grid', '10', '--reps', '100',",
        "        '--seed', '3']",
        "assert crtest.cli.cli_main(args) == 0",
    ])
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_process_pool(fresh):
    for module in ("crtest", "crtest.cli"):
        code = (f"import {module}, sys; "
                "loaded = [m for m in sys.modules if m.startswith('concurrent.futures')]; "
                "assert not loaded, loaded; assert 'numpy.random' not in sys.modules")
        proc = fresh("-c", code)
        assert proc.returncode == 0, (module, proc.stderr)
    # the harness loads numpy.random when imported, and the pool machinery
    # only when a run uses more than one worker
    code = "\n".join([
        "import sys",
        "import crtest.mc",
        "def pool_modules():",
        "    return [m for m in sys.modules if m.startswith('concurrent.futures')]",
        "assert 'numpy.random' in sys.modules",
        "assert not pool_modules(), pool_modules()",
        "from crtest import FamilyParams, SimConfig, run",
        "cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.4, a=1.0, seed=3), n_grid=(10,),",
        "                alpha_grid=(0.05,), a_grid=(1.0,), reps=100)",
        "assert run(cfg, workers=1).metadata['workers'] == 1",
        "assert not pool_modules(), pool_modules()",
    ])
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_test_loads_no_harness(fresh):
    # `crtest test` loads only the statistic path: the jel test leaves the
    # harness and the ddk test unloaded, the ddk test loads only its module.
    # Neither loads dataclasses, whose code generation costs start-up time,
    # beyond what a bare argparse parser loads (3.14's help formatter does)
    watched = {"crtest.mc", "crtest.datagen", "crtest.ddk", "dataclasses"}
    for method, wanted in (("jel", set()), ("ddk", {"crtest.ddk"})):
        code = "\n".join([
            "import argparse, sys",
            "argparse.ArgumentParser().add_argument('--x')",
            "baseline = set(sys.modules)",
            "import crtest.cli",
            f"args = {BASE_TEST_ARGS + ['--method', method, '--format', 'json']!r}",
            "assert crtest.cli.cli_main(args) == 0",
            "added = set(sys.modules) - baseline",
            f"print(sorted(m for m in {sorted(watched)!r} if m in added), file=sys.stderr)",
        ])
        proc = fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["method"] == method
        assert proc.stderr == f"{sorted(wanted)!r}\n", method


def test_module_entry_point_runs_the_cli(fresh):
    for module in ("crtest", "crtest.cli"):
        proc = fresh("-m", module, "--version")
        assert (proc.returncode, proc.stdout) == (0, f"crtest {crtest.__version__}\n"), (module, proc.stderr)
        proc = fresh("-m", module, "test")
        assert proc.returncode == 2 and "usage: crtest test" in proc.stderr, module


# Golden reports: the full stdout of `crtest test` on small CSVs, one per
# outcome the report can describe.
GOLDEN_CSV = {
    # cause 2 first, cause 1 last: every pseudo-value is >= 0
    "hull": [(1, 2), (2, 2), (3, 2), (4, 1), (5, 1), (6, 1)],
    "degenerate": [(1, 1), (2, 1), (3, 1), (4, 1)],
    # the pseudo-values average exactly 0: solved with log ratio 0
    "zero": [(1, 1), (2, 2), (3, 2), (4, 1)],
    "ties": [(1, 1), (1, 2), (2, 2), (2, 1), (2, 2), (3, 1), (4, 2), (4, 1), (5, 1)],
    # z = 1.85: one-sided rejects at 0.05, two-sided does not
    "sided": [(1, 2), *((t, 1) for t in range(2, 9))],
}
GOLDEN_SHA = {
    "hull": "7b57ec99a89ad414223fd525b2de520b8e187f4bfaf34bd347f3d340e23ef233",
    "degenerate": "7c20f5317de481d160ff5859b8b21fc62293603ae1dbb6f2d7c504f0c0c61551",
    "zero": "795db8f3ded0bef3b00b247aeff7232107b3b5a096fbecea45df1ba1d7dce37f",
    "ties": "33ece00f5c5822c9087d598e6edd6c80be58f714aff4693f40401a5f249afec1",
    "sided": "22956e7748e399b47855bd687b5dfdeefef7f40df060ca2b59ea71c95229e7de",
}


def golden_report(tmp_path, capsys, case, fmt, *extra):
    f = tmp_path / f"{case}.csv"
    f.write_text("time,cause\n" + "".join(f"{t},{c}\n" for t, c in GOLDEN_CSV[case]))
    code = cli_main([
        "test", "--input", str(f), "--time-col", "time", "--cause-col", "cause",
        "--cause1", "1", "--cause2", "2", "--format", fmt, *extra,
    ])
    assert code == 0
    return capsys.readouterr().out


def golden_text(case, method, n, *lines):
    head = [f"method:        {method}", f"input sha256:  {GOLDEN_SHA[case]}",
            f"rows used:     {n}    rows dropped: 0"]
    return "\n".join([*head, *lines]) + "\n"


def golden_json(case, method, n, result):
    return json.dumps({
        "schema_version": 2, "method": method, "n_used": n, "n_dropped": 0,
        "input_sha256": GOLDEN_SHA[case], "tool_version": crtest.__version__, "result": result,
    }, indent=2) + "\n"


def test_golden_hull_violation(tmp_path, capsys):
    assert golden_report(tmp_path, capsys, "hull", "text") == golden_text(
        "hull", "jel", 6,
        "delta_hat:     0.3",
        "statistic:     inf  (chi-square df=1 calibration)",
        "note:          0 outside pseudo-value hull; treated as reject",
        "p value:       0",
        "decision:      reject independence at alpha=0.05",
    )
    assert golden_report(tmp_path, capsys, "hull", "json") == golden_json("hull", "jel", 6, {
        "statistic": "inf", "p_value": 0.0, "reject": True, "alpha": 0.05, "delta_hat": 0.3,
        "n": 6, "hull_ok": False, "degenerate": False, "el": None,
    })


def test_golden_degenerate(tmp_path, capsys):
    assert golden_report(tmp_path, capsys, "degenerate", "text") == golden_text(
        "degenerate", "jel", 4,
        "delta_hat:     0",
        "statistic:     0  (chi-square df=1 calibration)",
        "note:          degenerate sample (no pseudo-value spread)",
        "p value:       1",
        "decision:      do not reject independence at alpha=0.05",
    )
    assert golden_report(tmp_path, capsys, "degenerate", "json") == golden_json(
        "degenerate", "jel", 4, {
            "statistic": 0.0, "p_value": 1.0, "reject": False, "alpha": 0.05, "delta_hat": 0.0,
            "n": 4, "hull_ok": True, "degenerate": True,
            "el": {"lam": 0.0, "iterations": 0},
        })


def test_golden_zero_statistic(tmp_path, capsys):
    assert golden_report(tmp_path, capsys, "zero", "text") == golden_text(
        "zero", "jel", 4,
        "delta_hat:     0",
        "statistic:     0  (chi-square df=1 calibration)",
        "p value:       1",
        "decision:      do not reject independence at alpha=0.05",
    )
    assert golden_report(tmp_path, capsys, "zero", "json") == golden_json("zero", "jel", 4, {
        "statistic": 0.0, "p_value": 1.0, "reject": False, "alpha": 0.05, "delta_hat": 0.0,
        "n": 4, "hull_ok": True, "degenerate": False,
        "el": {"lam": 0.0, "iterations": 0},
    })


def test_golden_ties(tmp_path, capsys):
    assert golden_report(tmp_path, capsys, "ties", "text") == golden_text(
        "ties", "jel", 9,
        "delta_hat:     0.0833333",
        "statistic:     0.503174  (chi-square df=1 calibration)",
        "p value:       0.478109",
        "decision:      do not reject independence at alpha=0.05",
    )
    assert golden_report(tmp_path, capsys, "ties", "json") == golden_json("ties", "jel", 9, {
        "statistic": 0.5031744124456983, "p_value": 0.4781086238656904, "reject": False,
        "alpha": 0.05, "delta_hat": 0.08333333333333333, "n": 9, "hull_ok": True,
        "degenerate": False,
        "el": {"lam": 0.6459947131703088, "iterations": 5},
    })


@pytest.mark.parametrize("two_sided", [True, False])
def test_golden_ddk(tmp_path, capsys, two_sided):
    extra = ["--method", "ddk"] + ([] if two_sided else ["--one-sided"])
    p_value = 0.06407750645105952 if two_sided else 0.03203875322552976
    assert golden_report(tmp_path, capsys, "sided", "text", *extra) == golden_text(
        "sided", "ddk", 8,
        "delta_hat:     0.125",
        f"z:             1.85164  ({'two' if two_sided else 'one'}-sided normal calibration)",
        "p1_hat:        0.875",
        f"p value:       {'0.0640775' if two_sided else '0.0320388'}",
        f"decision:      {'do not reject' if two_sided else 'reject'} independence at alpha=0.05",
    )
    assert golden_report(tmp_path, capsys, "sided", "json", *extra) == golden_json(
        "sided", "ddk", 8, {
            "z": 1.8516401995451033, "p_value": p_value, "reject": not two_sided, "alpha": 0.05,
            "two_sided": two_sided, "p1_hat": 0.875, "delta_hat": 0.125, "n": 8,
        })
