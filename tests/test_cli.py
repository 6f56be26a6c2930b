import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = cli_main(BASE_TEST_ARGS + ["--format", "json", "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["method"] == "jel"


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


def test_missing_file_exits_1(capsys):
    code = cli_main(BASE_TEST_ARGS[:2] + ["/nonexistent/nope.csv"] + BASE_TEST_ARGS[3:])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert cli_main(["test", "--input", TOY]) == 2
    assert cli_main(["bogus-command"]) == 2
    assert cli_main([]) == 2


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "crtest" in capsys.readouterr().out


def test_version(capsys):
    assert cli_main(["--version"]) == 0
    assert "crtest 0.1.0" in capsys.readouterr().out


def test_simulate_csv(capsys):
    code = cli_main([
        "simulate", "--lambda", "1", "--p1", "0.4", "--a", "1.0",
        "--n", "10", "--reps", "150", "--alpha", "0.05", "--seed", "4",
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
        "simulate", "--lambda", "1", "--p1", "0.7", "--a", "1.0",
        "--n", "10", "--reps", "150", "--seed", "4",
    ])
    assert code == 1
    assert "p1" in capsys.readouterr().err


def test_power_json_grid(capsys):
    code = cli_main([
        "power", "--lambda", "1", "--p1", "0.5",
        "--a-grid", "1.0,1.5", "--n-grid", "5,8", "--alphas", "0.05,0.1",
        "--reps", "120", "--seed", "6", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cells"]) == 2 * 2 * 2 * 2
    assert payload["metadata"]["reps"] == 120


def test_power_rejects_empty_grids(capsys):
    grids = {"--a-grid": "1.0", "--n-grid": "6", "--alphas": "0.05"}
    names = {"--a-grid": "a_grid", "--n-grid": "n_grid", "--alphas": "alpha_grid"}
    for empty, name in names.items():
        args = ["power", "--p1", "0.5", "--reps", "100", "--seed", "6"]
        for flag, value in grids.items():
            args += [flag, "," if flag == empty else value]
        assert cli_main(args) == 1
        assert f"error: {name} must be non-empty" in capsys.readouterr().err


def test_power_respects_method_choice(capsys):
    code = cli_main([
        "power", "--lambda", "1", "--p1", "0.5",
        "--a-grid", "1.0", "--n-grid", "6", "--alphas", "0.05",
        "--reps", "100", "--seed", "6", "--method", "ddk",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("ddk,")


def test_cli_import_does_not_load_scipy():
    # importing crtest.cli loads no scipy, and with scipy unimportable every
    # public entry point, true_delta included, still runs
    src = str(Path(crtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
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
        "args = ['simulate', '--p1', '0.4', '--a', '1.5', '--n', '10', '--reps', '100', '--seed', '3']",
        "assert crtest.cli.cli_main(args) == 0",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_process_pool():
    src = str(Path(crtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import crtest.cli, sys; assert 'concurrent.futures.process' not in sys.modules; "
            "assert 'numpy.random' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_the_cli():
    src = str(Path(crtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    entry = [sys.executable, "-m", "crtest.cli"]
    proc = subprocess.run([*entry, "--version"], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, f"crtest {crtest.__version__}\n"), proc.stderr
    proc = subprocess.run([*entry, "test"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and "usage: crtest test" in proc.stderr
