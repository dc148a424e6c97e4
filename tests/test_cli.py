import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from plmorse.cli import _build_parser, main
from plmorse.ensembles import TRIAL_SCHEMA
from plmorse.morse import REPORT_SCHEMA
from plmorse.network import load_network


def _deep_net_json(path):
    path.write_text(json.dumps({"layers": [
        {"weights": [["1/1", "0/1"], ["0/1", "1/1"]], "bias": ["0/1", "0/1"], "activation": "relu"},
        {"weights": [["1/1", "1/1"]], "bias": ["0/1"], "activation": "relu"},
        {"weights": [["1/1"]], "bias": ["0/1"], "activation": "none"},
    ]}))


def _two_relu_json(path):
    path.write_text(json.dumps({"layers": [
        {"weights": [[1, 0], [0, 1]], "bias": [0, 0], "activation": "relu"},
        {"weights": [[1, 1]], "bias": [0], "activation": "none"},
    ]}))


def test_generate_then_analyze(tmp_path, capsys):
    net_file = tmp_path / "fan1.json"
    assert main(["generate", "--fan", "1", "--out", str(net_file)]) == 0
    net = load_network(net_file)
    assert net.architecture == (2, 4, 1)
    assert main(["analyze", str(net_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["global_h_complexity"] == 1
    level0 = [c for c in doc["components"] if c["level"] == "0/1"]
    assert level0[0]["ranks"] == [0, 1]


def test_analyze_report_file(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    report = tmp_path / "report.json"
    assert main(["analyze", str(net_file), "--report", str(report)]) == 0
    assert "report written" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["coarse"]["sublevel"] == [1]


def test_unwritable_output_exits_two_with_one_line(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    target = tmp_path / "nonexistent" / "dir" / "r.json"
    for argv in (
        ["analyze", str(net_file), "--report", str(target)],
        ["generate", "--fan", "1", "--out", str(target)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert not target.parent.exists()


def test_analyze_nontransversal_exits_two(tmp_path, capsys):
    net_file = tmp_path / "deep.json"
    _deep_net_json(net_file)
    assert main(["analyze", str(net_file)]) == 2
    assert "not transversal" in capsys.readouterr().err


def test_analyze_bad_files(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["analyze", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text(json.dumps({"layers": [
        {"weights": [[1, 2, 3]], "bias": [0], "activation": "bogus"},
    ]}))
    assert main(["analyze", str(shapeless)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_analyze_refuses_an_integer_too_long_to_parse(tmp_path, capsys):
    """json.load raises a plain ValueError on an integer past the
    interpreter's digit limit; the file is malformed, not a crash."""
    huge = tmp_path / "huge.json"
    huge.write_text('{"layers": [{"weights": [[' + "7" * 5000
                    + ', 1]], "bias": [0], "activation": "none"}]}')
    assert main(["analyze", str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"malformed network file {huge}: ")
    assert "digits" in captured.err


def test_analyze_refuses_non_array_structure(tmp_path, capsys):
    bad = tmp_path / "bias.json"
    bad.write_text(json.dumps({"layers": [
        {"weights": [[1, 2]], "bias": 0, "activation": "none"},
    ]}))
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "layer 0 bias: expected an array" in err


def test_analyze_refuses_layer_with_no_units(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"layers": [
        {"weights": [], "bias": [], "activation": "relu"},
        {"weights": [[]], "bias": [0], "activation": "none"},
    ]}))
    assert main(["analyze", str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed network file {empty}: layer 0 has no units\n"


def test_generate_random_is_deterministic(capsys):
    assert main(["generate", "--random", "2,3,1", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--random", "2,3,1", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["layers"][0]["activation"] == "relu"


def test_generate_needs_exactly_one_family(capsys):
    assert main(["generate"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["generate", "--fan", "1", "--random", "2,3,1"]) == 2
    capsys.readouterr()
    assert main(["generate", "--random", "2,x,1"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_montecarlo_identical_bytes(capsys):
    argv = ["montecarlo", "--plmorse", "2", "3", "--trials", "10", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    jsonschema.validate(doc, TRIAL_SCHEMA)
    assert doc["closed_form"] == "1/8"


def test_montecarlo_flat_arch(capsys):
    assert main(["montecarlo", "--flat", "2,1,1", "--trials", "20", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "flat_cell"
    assert doc["bound"] == "1/2"


def test_montecarlo_needs_one_experiment(capsys):
    assert main(["montecarlo", "--trials", "5", "--seed", "1"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["montecarlo", "--plmorse", "2", "3", "--trials", "0", "--seed", "1"],
     "trials must be at least 1"),
    (["montecarlo", "--flat", "3,4", "--trials", "5", "--seed", "1"],
     "architecture needs at least one hidden layer"),
    (["montecarlo", "--flat", "3,4,4,2", "--trials", "5", "--seed", "1"],
     "output width must be 1"),
    (["montecarlo", "--plmorse", "0", "6", "--trials", "5", "--seed", "1"],
     "widths must be positive"),
    (["generate", "--random", "3,0,1"], "widths must be positive"),
    (["generate", "--fan", "0"], "need n >= 1"),
    (["generate", "--coarse-bound", "1"], "need m >= 3"),
])
def test_library_refusals_exit_two_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_montecarlo_bad_thread_count_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("PLMORSE_THREADS", "two")
    assert main(["montecarlo", "--plmorse", "2", "3", "--trials", "5", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "PLMORSE_THREADS must be an integer, got 'two'\n"


def test_oracle_sublevel(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    rc = main(["oracle", str(net_file), "--threshold", "1/3", "--resolution", "1/4", "--box", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["betti"] == [1]
    num, den = doc["margin"].split("/")
    assert int(num) > 0


def test_oracle_band_flag_count(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    assert main(["oracle", str(net_file), "--mode", "band", "--threshold", "1",
                 "--resolution", "1/4", "--box", "2"]) == 2
    assert capsys.readouterr().err == "band mode needs 2 threshold value(s), got 1\n"
    assert main(["oracle", str(net_file), "--threshold", "0", "--threshold", "1",
                 "--resolution", "1/4", "--box", "2"]) == 2
    assert capsys.readouterr().err == "sublevel mode needs 1 threshold value(s), got 0, 1\n"
    assert main(["oracle", str(net_file), "--mode", "band", "--threshold=-1/3",
                 "--threshold=1/3", "--resolution", "1/4", "--box", "2"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["oracle", str(net_file), "--threshold", "x",
                 "--resolution", "1/4", "--box", "2"]) == 2
    assert "rational" in capsys.readouterr().err


def test_oracle_refuses_huge_grid(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    assert main(["oracle", str(net_file), "--threshold", "1/3",
                 "--resolution", "1/100000", "--box", "100"]) == 2
    assert "more than the limit of 1000000" in capsys.readouterr().err


def test_oracle_rejects_nonpositive_box(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    assert main(["oracle", str(net_file), "--threshold", "1/3",
                 "--resolution", "1/4", "--box", "-1"]) == 2
    assert "box must be positive" in capsys.readouterr().err


def test_export_svg(tmp_path):
    net_file = tmp_path / "fan2.json"
    assert main(["generate", "--fan", "2", "--out", str(net_file)]) == 0
    out = tmp_path / "fan2.svg"
    assert main(["export-svg", str(net_file), "--out", str(out)]) == 0
    doc = out.read_text()
    assert doc.count("<line ") == 6
    assert 'version="1.1"' in doc


@pytest.mark.parametrize("width", ["0", "-10"])
def test_export_svg_rejects_width_below_one(tmp_path, capsys, width):
    net_file = tmp_path / "fan1.json"
    assert main(["generate", "--fan", "1", "--out", str(net_file)]) == 0
    out = tmp_path / "fan1.svg"
    assert main(["export-svg", str(net_file), "--width", width, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--width must be at least 1, got {width}\n"
    assert not out.exists()
    assert main(["export-svg", str(net_file), "--width", "1", "--out", str(out)]) == 0
    assert 'width="1"' in out.read_text()


def test_export_svg_rejects_non_planar(tmp_path, capsys):
    net_file = tmp_path / "r3.json"
    assert main(["generate", "--random", "3,2,1", "--seed", "1", "--out", str(net_file)]) == 0
    capsys.readouterr()
    assert main(["export-svg", str(net_file)]) == 2
    assert "two-input" in capsys.readouterr().err


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "x.json"), "--bogus"])
    assert exc.value.code == 2



def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """The parser is built once per process.  Calls that follow other
    subcommands, a refusal (exit 2) and an argparse error (exit 2) give the
    exit code, stdout and stderr of the same call in a fresh interpreter."""
    net_file = tmp_path / "net.json"
    _two_relu_json(net_file)
    oracle = ["oracle", str(net_file), "--resolution", "1/4", "--box", "2"]
    calls = [
        ["generate", "--random", "2,3,1", "--seed", "4"],
        oracle + ["--mode", "band", "--threshold", "1"],
        oracle + ["--mode", "band", "--threshold=-1/3", "--threshold=1/3"],
        ["generate", "--bogus"],
        oracle + ["--threshold=1/3"],
        ["montecarlo", "--plmorse", "2", "2", "--trials", "3", "--seed", "1"],
        ["oracle", "--help"],
        ["analyze", str(net_file)],
        ["--help"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    monkeypatch.delenv("PLMORSE_THREADS", raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code, *capsys.readouterr())
        fresh = subprocess.run([sys.executable, "-m", "plmorse.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert _build_parser() is _build_parser()
