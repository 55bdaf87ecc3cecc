import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from neutralsys import charmatrix as cm
from neutralsys import _linalg, cli, stability
from neutralsys import rootfinder as rf
from neutralsys.cli import main
from neutralsys.simulate import HistorySegment, simulate
from neutralsys.sysmodel import _MAX_SIZE, load_system, save_system

from conftest import (EXAMPLE1_DOC, bench_module, conjugate, make_example2,
                      make_reach_fixture, make_scalar_decay, random_transform)

REPORT_FLAGS = ("--grid-m", "64", "--T", "3")


def run_cli(*args):
    return main(list(args))


def _system_with_inputs(tmp_path):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["r"] = 1
    doc["B"] = [[0.0], [1.0]]
    # stable-spectrum variant so every analysis completes quickly
    doc["A3"]["atoms"][0]["matrix"] = [[-1.0, 0.0], [0.0, -1.0]]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    return path


def _count_spectral_work(monkeypatch):
    """Count the region scans, the calls the verdicts make to the two shared
    spectral objects, and the eigenvalue clusterings of the difference matrix
    behind them."""
    counts = {"find_roots_in_region": 0, "rightmost_root_scan": 0,
              "matrix_spectral_structure": 0, "cluster_eigenvalues": 0}
    # the module attribute each caller looks up; every module that imported
    # cluster_eigenvalues by name holds its own reference to it, while the CLI
    # imports find_roots_in_region when a command runs and so reads rf's
    sites = [(rf, "find_roots_in_region"), (stability, "rightmost_root_scan"),
             (cm, "matrix_spectral_structure")]
    sites += [(module, "cluster_eigenvalues") for module in (_linalg, cm, stability)
              if getattr(module, "cluster_eigenvalues", None) is _linalg.cluster_eigenvalues]
    for module, name in sites:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_spectrum_example1(example1_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "spectrum", "--input", str(example1_file), "--out", str(out),
        "--re-min", "-1", "--re-max", "1", "--im-max", "40",
    )
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["total_count"] > 0
    # two roots in every far chain circle
    assert doc["cluster_checks"]
    assert all(c["match"] and c["count"] == 2 for c in doc["cluster_checks"])
    with (out / "roots.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # chain clusters carry two roots each near 2 pi k
    near = [r for r in rows if abs(float(r["im"]) - 2 * np.pi * 2) < 1.0]
    assert len(near) == 2


def test_stability_example2(example2_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("stability", "--input", str(example2_file), "--out", str(out)) == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["asymptotic_case"] == "case_iii_indeterminate"
    assert doc["exponential"] == "not_stable"


def test_chain_right_of_one_half_scans_from_minus_one_half(tmp_path):
    # A_-1 = [[2]]: the chain abscissa ln 2 / h is above 1/2, so the floor
    # rule max(-1, abscissa - 1/2) alone would give a floor right of the axis.
    doc = {
        "n": 1, "r": 1, "h": 1.0, "A_minus1": [[2.0]],
        "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]]},
        "A3": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]],
               "atoms": [{"theta": 0.0, "matrix": [[-1.0]]}]},
        "B": [[1.0]],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert run_cli("stability", "--input", str(path), "--out", str(tmp_path / "st")) == 0
    st = json.loads((tmp_path / "st" / "stability.json").read_text())
    assert st["exponential"] == "not_stable"
    assert st["asymptotic_case"] == "spectrum_in_RHP_unstable"
    scan = st["evidence"]["scan"]
    assert scan["window"]["re_min"] == -0.5
    assert scan["rightmost_root_re"] == pytest.approx(0.692, abs=1e-3)
    assert run_cli("stabilizability", "--input", str(path), "--out", str(tmp_path / "sb")) == 0
    sb = json.loads((tmp_path / "sb" / "stabilizability.json").read_text())
    assert sb["verdict"] == "hypotheses_not_satisfied"


def test_stabilizability_rank_tests_do_not_depend_on_coordinates(tmp_path):
    # In new coordinates [mu I - A | B] of example 2 is rounding noise, not rank.
    T = random_transform(np.random.default_rng(11), 2, 40.0)
    path = tmp_path / "sys.json"
    save_system(conjugate(make_example2(0.0), T), path)
    assert run_cli("stabilizability", "--input", str(path), "--out", str(tmp_path / "sb")) == 0
    sb = json.loads((tmp_path / "sb" / "stabilizability.json").read_text())
    assert sb["condition_4_passes"] is False
    tests = (sb["condition_3_hautus_at_scanned_rhp_roots"]
             + sb["condition_4_hautus_pair_at_unit_eigenvalues"])
    assert sb["condition_4_hautus_pair_at_unit_eigenvalues"]
    for test in tests:
        assert test["cut"] > 0.0
        assert len(test["margins"]) == 2
    assert all(t["rank"] == 0 for t in sb["condition_4_hautus_pair_at_unit_eigenvalues"])


def test_missing_input_exits_3(tmp_path, capsys):
    assert run_cli("spectrum", "--input", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 3
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines
    record = json.loads(err_lines[-1])  # diagnostics are single-line JSON
    assert record["level"] == "error" and record["event"] == "io_error"


# corpus.random_system(np.random.default_rng(4), 3, 1) with its theta = 0 atom
# replaced by 60 * np.random.default_rng(104).standard_normal((3, 3)): the
# Newton iterate of a cell seed runs to where det D overflows.
DET_OVERFLOW_DOC = {
    "n": 3, "r": 1, "h": 1.0,
    "A_minus1": [
        [-0.34194577096604556, -0.09166101593439509, 0.8728307842648771],
        [0.34580522394909574, -0.8611176465181467, -0.0027297611691751164],
        [-0.32708450970438596, 0.0779757758365135, -0.8436951154036404],
    ],
    "A2": {"breakpoints": [-1.0, -0.4, 0.0], "segments": [
        [
            [0.04187611745919935, 0.04076917103855128, 0.27290643401674103],
            [0.05484452564928184, 0.08842927576949948, -0.2586153959986864],
            [0.3901841299712182, -0.3317995435677407, 0.19083767941582216],
        ],
        [
            [-0.05714106175734639, -0.15253245125595605, -0.11367189831749779],
            [-0.11639635703329661, 0.06585068242587445, -0.019062725203632624],
            [0.2567888580211122, -0.31689671263397867, -0.000533638733757833],
        ],
    ]},
    "A3": {"breakpoints": [-1.0, -0.4, 0.0], "segments": [
        [
            [-0.2575143247598172, 0.22397490999328148, -0.6114312677576696],
            [-0.09921601277444447, 0.060671698086935066, -0.4284714332599991],
            [0.2844072409864944, 0.05159012320465358, 0.29065451380156615],
        ],
        [
            [0.2768928181791711, -0.2828596488315519, -0.23030379778793322],
            [-0.05869703269770186, 0.21591737456390728, 0.24565309725814813],
            [-0.20486837557173201, -0.1752827291791743, -0.23031163741852365],
        ],
    ], "atoms": [{"theta": 0.0, "matrix": [
        [33.72699928128711, 33.61203116840975, -37.347403522164626],
        [-0.5889026677757412, 0.032275907812369956, 3.445646117625451],
        [130.96411889537325, -17.030795106823778, -17.510488607480532],
    ]}]},
    "B": [[-0.584238229157347], [-0.2379233775647261], [-0.13181504769026442]],
}


def _stderr_systems():
    # Example 1 with alpha = beta = 1: the chain center at 0 has det' = 0, so
    # Newton from it runs far left.
    ex1_ctrl = json.loads(json.dumps(EXAMPLE1_DOC))
    ex1_ctrl["r"], ex1_ctrl["B"] = 1, [[0.0], [1.0]]
    ex1_ctrl["A3"]["atoms"][0]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    free3 = {
        "n": 3, "r": 3, "h": 1.0, "A_minus1": np.zeros((3, 3)).tolist(),
        "A2": {"breakpoints": [-1.0, 0.0], "segments": [np.zeros((3, 3)).tolist()]},
        "A3": {"breakpoints": [-1.0, 0.0], "segments": [np.zeros((3, 3)).tolist()],
               "atoms": [{"theta": 0.0, "matrix": (-np.eye(3)).tolist()}]},
        "B": np.eye(3).tolist(),
    }
    # scalar_decay and free3 have the root -1 on the default window's side
    # Re = -1, and a contour node lands on it exactly: there the closed-form
    # det is 0.
    return {"ex1_ctrl": ex1_ctrl, "scalar_decay": SCALAR_DOC, "free3": free3,
            "det_overflow": DET_OVERFLOW_DOC}


@pytest.mark.parametrize("system", ["ex1_ctrl", "scalar_decay", "free3", "det_overflow"])
@pytest.mark.parametrize("command", ["spectrum", "stability"])
def test_stderr_holds_only_json_lines(tmp_path, command, system):
    # A fresh interpreter keeps its own warning filters, which write to the
    # real stderr.
    doc = _stderr_systems()[system]
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "neutralsys.cli", command, "--input", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    for line in proc.stderr.splitlines():
        json.loads(line)


@pytest.mark.parametrize("command", ["spectrum", "stability", "stabilizability",
                                     "controllability", "report"])
def test_result_read_off_unresolved_cells_exits_2_naming_the_window(tmp_path, monkeypatch,
                                                                    capsys, command):
    # no quadrisection: a cell that holds roots but none Newton locates stays unresolved
    monkeypatch.setattr(rf, "MAX_DEPTH", 0)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_stderr_systems()["ex1_ctrl"]))
    out = tmp_path / "out"
    flags = REPORT_FLAGS if command == "report" else ()
    assert run_cli(command, "--input", str(path), "--out", str(out), *flags) == cli.EXIT_NUMERICAL
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {r["event"] for r in records} == {"unresolved_cells"}
    assert all(r["count"] >= 1 for r in records)
    # one record per scanned window: report's spectrum window rides along in
    # the rightmost scan that every verdict reads
    windows = [rf.Rect(**r["window"]) for r in records]
    assert len(set(windows)) == len(windows) == (2 if command == "report" else 1)
    if command in ("spectrum", "report"):
        spectrum = json.loads((out / "spectrum.json").read_text())
        assert rf.Rect(**spectrum["window"]) in windows


def test_malformed_input_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_cli("spectrum", "--input", str(bad), "--out", str(tmp_path)) == 3


def test_input_that_is_not_utf8_is_one_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    assert run_cli("stability", "--input", str(bad), "--out", str(tmp_path / "out")) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.splitlines()]
    assert [(r["level"], r["event"], r["path"]) for r in records] == [
        ("error", "parse_error", str(bad))]
    assert "utf-8" in records[0]["detail"]


def test_invalid_dimensions_exit_1(tmp_path):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["A_minus1"] = [[1.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("stability", "--input", str(bad), "--out", str(tmp_path)) == 1


def test_unknown_command_exits_1():
    assert run_cli("frobnicate", "--input", "x.json") == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("spectrum", "--k-range", "a:3"),
        ("reach", "--T-list", "1,x"),
        ("simulate", "--T", "inf"),
        ("reach", "--T-list", "inf"),
        ("spectrum", "--im-max", "inf"),
        ("spectrum", "--im-max", "abc"),
        ("stability", "--im-max", "inf"),
        ("spectrum", "--re-max", "inf"),
        ("spectrum", "--re-min", "-inf"),
        ("spectrum", "--re-min", "2"),
        ("report", "--re-min", "2"),
        ("simulate", "--control-amplitude", "inf"),
        ("report", "--control-frequency", "nan"),
        ("stability", "--re-min", "nan"),
        ("controllability", "--tol-rank", "nan"),
        ("stabilizability", "--tol-rank", "-1e-3"),
        ("stability", "--tol-root", "inf"),
        ("spectrum", "--tol-root", "-1"),
        ("spectrum", "--tol-root", "1e-8"),
        ("reach", "--rank-tau", "nan"),
        ("reach", "--rank-tau", "-inf"),
        ("frobnicate", "--T", "1"),
        ("simulate", "--T", "1e12"),
        ("simulate", "--grid-m", "100000000000000"),
        ("reach", "--T-list", "1e12"),
        ("simulate", "--T", "1e308"),
        ("reach", "--T-list", "1e308"),
        ("reach", "--T-list", "1,1e308"),
        ("simulate", "--grid-m", "-3"),
        ("simulate", "--grid-m", "0"),
        ("simulate", "--grid-m", "3"),
        ("reach", "--grid-m", "0"),
    ],
)
def test_malformed_or_infinite_arguments_exit_1(tmp_path, capsys, command, flag, value):
    # unparsable horizons and numbers, horizons no simulation grid can reach,
    # scan windows that are empty or not finite, control waveforms that are
    # not finite, the removed tolerance, chain-range and basis-policy flags
    # (at any value), an unknown command, and runs whose arrays would exceed
    # any address space;
    # FLAG=VALUE, since argparse takes a bare -inf for a flag.  Each is one JSON record on stderr, not argparse's usage.
    path = _system_with_inputs(tmp_path)
    code = run_cli(command, "--input", str(path), "--out", str(tmp_path / "out"), f"{flag}={value}")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["event"] for r in records] == ["usage_error"], err
    # the reason, not the name of the private converter that found it
    assert not any(name in records[0]["detail"] for name in ("_finite", "_k_range", "_horizons"))
    if flag == "--grid-m" and int(value) < 8:
        # one refusal for every command and every grid too small
        assert records[0]["detail"] == "need at least 8 grid intervals per delay"


def test_help_exits_0(capsys):
    assert run_cli("spectrum", "-h") == cli.EXIT_OK
    out = capsys.readouterr()
    assert out.out.startswith("usage: neutralsys spectrum") and out.err == ""


# A valid value for each option the parser knew before --k-range and
# --basis-policy became constants.
OPTION_VALUES = {
    "--input": "sys.json", "--out": "out", "--re-min": "-1", "--re-max": "1",
    "--im-max": "40", "--T": "3", "--grid-m": "16", "--seed": "1", "--k-range": "5:6",
    "--basis-policy": "permutations", "--control": "sine", "--control-amplitude": "0.5",
    "--control-frequency": "2", "--control-table": "u.csv", "--history": "zero",
    "--T-list": "0.5,1.5",
}
_VERDICT_OPTIONS = {"--input", "--out", "--im-max"}
COMMAND_OPTIONS = {
    "spectrum": _VERDICT_OPTIONS | {"--re-min", "--re-max"},
    "stability": _VERDICT_OPTIONS,
    "stabilizability": _VERDICT_OPTIONS,
    "controllability": _VERDICT_OPTIONS,
    "simulate": {"--input", "--out", "--T", "--grid-m", "--seed", "--history", "--control",
                 "--control-amplitude", "--control-frequency", "--control-table"},
    "reach": {"--input", "--out", "--grid-m", "--T-list"},
    "report": set(OPTION_VALUES) - {"--k-range", "--basis-policy"},
}


@pytest.mark.parametrize("option", list(OPTION_VALUES))
@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_each_command_takes_only_the_options_it_reads(capsys, command, option):
    argv = [command, "--input", "sys.json", f"{option}={OPTION_VALUES[option]}"]
    if option in COMMAND_OPTIONS[command]:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, option[2:].replace("-", "_")) is not None
    else:
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines()]
        assert [r["event"] for r in records] == ["usage_error"], err
        assert option in records[0]["detail"]
    assert run_cli(command, "-h") == cli.EXIT_OK
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMAND_OPTIONS[command]


@pytest.mark.parametrize("im_max, n8", [("1e308", False), ("1e12", False), ("20000", True)],
                         ids=["1e308", "1e12", "20000-n8"])
@pytest.mark.parametrize("command", ["spectrum", "stability"])
def test_window_too_long_to_sample_is_a_usage_error(tmp_path, capsys, monkeypatch, command,
                                                     im_max, n8):
    # 1e308 makes a side's node count infinite, 1e12 finite but far past the
    # ceiling; both are refused before any node is allocated.  At n = 8 a
    # 20000 cap keeps every side short, but the window's nodes together,
    # each holding D, D' and the term coefficients, pass the size limit.
    path = _system_with_inputs(tmp_path)
    if n8:
        path.write_text(json.dumps(bench_module("corpus").build(1)["rand_n8_r1"]))
    sample = rf._sample_nodes

    def bounded(sys_, pts, log_floor):
        entries = len(pts) * (sys_.n ** 2 + len(sys_.terms.locs))
        assert entries <= _MAX_SIZE, f"sampling {len(pts)} nodes at once"
        return sample(sys_, pts, log_floor)

    monkeypatch.setattr(rf, "_sample_nodes", bounded)
    start = time.perf_counter()
    code = run_cli(command, "--input", str(path), "--out", str(tmp_path / "out"), f"--im-max={im_max}")
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.strip().splitlines()]
    assert [r["event"] for r in records] == ["usage_error"]
    assert "nodes" in records[0]["detail"]


SCALAR_DOC = {
    "n": 1, "r": 1, "h": 1.0, "A_minus1": [[0.0]],
    "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]]},
    "A3": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]],
           "atoms": [{"theta": 0.0, "matrix": [[-1.0]]}]},
    "B": [[1.0]],
}


@pytest.mark.parametrize("field, value", [("n", True), ("r", True), ("h", True), ("theta", False),
                                          ("A_minus1", [[False]]), ("B", [[True]])])
def test_json_booleans_are_validation_errors(tmp_path, capsys, field, value):
    # each boolean equals a value the field would accept as a number
    doc = json.loads(json.dumps(SCALAR_DOC))
    if field == "theta":
        doc["A3"]["atoms"][0]["theta"] = value
    else:
        doc[field] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run_cli("spectrum", "--input", str(path), "--out", str(tmp_path / "out")) == cli.EXIT_USAGE
    events = [json.loads(line)["event"] for line in capsys.readouterr().err.strip().splitlines()]
    assert events == ["validation_error"]


def test_parser_reuse_keeps_each_call_s_defaults(tmp_path):
    # reach with --grid-m, then simulate on its own default grid
    path = _system_with_inputs(tmp_path)
    calls = [
        ("reach", "--grid-m", "16", "--T-list", "0.5,1.5"),
        ("simulate", "--T", "1", "--history", "zero", "--control", "sine"),
    ]

    def run_all(tag, fresh):
        for i, args in enumerate(calls):
            if fresh:
                cli._build_parser.cache_clear()
            assert run_cli(*args, "--input", str(path), "--out", str(tmp_path / tag / str(i))) == 0
        return {
            f.relative_to(tmp_path / tag): f.read_bytes()
            for f in sorted((tmp_path / tag).rglob("*"))
            if f.is_file() and f.name != "run_meta.json"
        }

    reused, fresh = run_all("reused", False), run_all("fresh", True)
    assert reused == fresh
    assert len((tmp_path / "fresh/1/trajectory.csv").read_text().splitlines()) == 2 + cli.SIMULATE_GRID_M


def test_deterministic_outputs(example1_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            "spectrum", "--input", str(example1_file), "--out", str(out),
        ) == 0
    assert (out_a / "spectrum.json").read_bytes() == (out_b / "spectrum.json").read_bytes()
    assert (out_a / "roots.csv").read_bytes() == (out_b / "roots.csv").read_bytes()


def test_simulate_command(example2_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "simulate", "--input", str(example2_file), "--out", str(out),
        "--T", "5", "--grid-m", "64", "--history", "random", "--seed", "3",
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,z1,z2,m2_norm"
    assert len(lines) == 1 + 5 * 64 + 1


def test_simulate_with_control_table(tmp_path, capsys):
    # the table holds (t, u) rows; u(t) is the row of the last time <= t
    path = _system_with_inputs(tmp_path)
    table = tmp_path / "u.csv"
    table.write_text("0.0,1.0\n0.5,-2.0\n1.25,0.5\n")
    out = tmp_path / "out"
    flags = ("--input", str(path), "--T", "2", "--grid-m", "32", "--seed", "3",
             "--control", "table")
    assert run_cli("simulate", *flags, "--out", str(out), "--control-table", str(table)) == 0
    sys_ = load_system(path)

    def u(t):
        return np.array([1.0 if t < 0.5 else -2.0 if t < 1.25 else 0.5])

    expected = simulate(sys_, HistorySegment.random(sys_, 32, 3), u, T=2.0)
    assert (out / "trajectory.csv").read_text() == expected.to_csv()

    capsys.readouterr()
    table.write_text("0.0,1.0,2.0\n")
    assert run_cli("simulate", *flags, "--out", str(tmp_path / "bad"),
                   "--control-table", str(table)) == cli.EXIT_USAGE
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records] == ["usage_error"]
    assert "2 channels" in records[0]["detail"]


@pytest.mark.parametrize(
    "table, detail",
    [
        ("1.0,-1.0\n0.0,1.0\n", "strictly increasing"),   # rows out of order
        ("0.0,1.0\n0.0,2.0\n", "strictly increasing"),    # a repeated time
        ("0.0,1.0\nnan,2.0\n", "strictly increasing"),
        ("0.0,1.0\n0.5,nan\n", "values must be finite"),
        ("0.0,inf\n", "values must be finite"),
        ("", "no rows"),
        ("\n", "no rows"),
    ],
)
def test_control_table_rejects_unordered_or_non_finite_rows(tmp_path, capsys, table, detail):
    path = _system_with_inputs(tmp_path)
    (tmp_path / "u.csv").write_text(table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "--input", str(path), "--out", str(tmp_path / "out"),
                       "--T", "2", "--grid-m", "32", "--control", "table",
                       "--control-table", str(tmp_path / "u.csv"))
    assert not caught, [str(w.message) for w in caught]
    assert code == cli.EXIT_USAGE
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records] == ["usage_error"]
    assert detail in records[0]["detail"]


def test_simulate_with_sine_control(tmp_path, example1_file):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["r"] = 1
    doc["B"] = [[0.0], [1.0]]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run_cli(
        "simulate", "--input", str(path), "--out", str(out),
        "--T", "2", "--grid-m", "32", "--history", "zero",
        "--control", "sine", "--control-amplitude", "0.5",
    )
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    last = [float(x) for x in rows[-1].split(",")]
    assert any(abs(v) > 0 for v in last[1:])


def test_reach_command(tmp_path):
    doc = {
        "n": 2, "r": 1, "h": 1.0,
        "A_minus1": [[0.5, 0.0], [0.0, 1.0 / 3.0]],
        "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0, 0.0], [0.0, 0.0]]]},
        "A3": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0, 0.0], [0.0, 0.0]]],
               "atoms": [{"theta": 0.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]},
        "B": [[0.0], [1.0]],
    }
    path = tmp_path / "reach.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run_cli(
        "reach", "--input", str(path), "--out", str(out),
        "--T-list", "0.5,1.5,2.5", "--grid-m", "50",
    )
    assert code == 0
    prof = json.loads((out / "rank_profile.json").read_text())
    ranks = [e["effective_rank"] for e in prof["entries"]]
    assert ranks == sorted(ranks)
    lines = (out / "rank_profile.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_report_example2(example2_file, tmp_path):
    out = tmp_path / "rep"
    assert run_cli("report", "--input", str(example2_file), "--out", str(out),
                   "--grid-m", "64", "--T", "3") == 0
    index = json.loads((out / "index.json").read_text())
    assert index["consistency"]["exponential_stable_implies_exp_regime"]
    assert "stability.json" in index["files"]
    assert "spectrum.json" in index["files"]
    assert "trajectory.csv" in index["files"]
    assert "run_meta.json" not in index["files"]


def test_report_with_inputs(tmp_path):
    out = tmp_path / "rep"
    code = run_cli("report", "--input", str(_system_with_inputs(tmp_path)), "--out", str(out),
                   *REPORT_FLAGS)
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    for name in ("stabilizability.json", "controllability.json",
                 "rank_profile.csv", "rank_profile.json"):
        assert name in index["files"]


def test_report_scans_each_system_once(tmp_path, monkeypatch):
    counts = _count_spectral_work(monkeypatch)
    assert run_cli("report", "--input", str(_system_with_inputs(tmp_path)),
                   "--out", str(tmp_path / "rep"), *REPORT_FLAGS) == 0
    # the spectrum window rides along in the one scan that stability,
    # stabilizability and controllability share, and the chain grid and the
    # verdicts share one difference-matrix structure
    assert counts == {"find_roots_in_region": 1, "rightmost_root_scan": 1,
                      "matrix_spectral_structure": 1, "cluster_eigenvalues": 1}


@pytest.mark.parametrize("command, scans", [("spectrum", (1, 0)), ("stability", (1, 1))])
def test_standalone_commands_scan_their_one_window(tmp_path, monkeypatch, command, scans):
    counts = _count_spectral_work(monkeypatch)
    assert run_cli(command, "--input", str(_system_with_inputs(tmp_path)),
                   "--out", str(tmp_path / command)) == 0
    assert (counts["find_roots_in_region"], counts["rightmost_root_scan"]) == scans


@pytest.mark.parametrize("failing", ["spectrum", "stability"])
def test_report_contour_failure_in_either_window_writes_nothing(tmp_path, monkeypatch, capsys,
                                                                failing):
    path = _system_with_inputs(tmp_path)
    windows = {"spectrum": rf.Rect(-1.0, 1.0, -40.0, 40.0),
               "stability": stability.SystemAnalysis(load_system(path)).scan.window}
    assert windows["spectrum"] != windows["stability"]
    # both windows are symmetric about the real axis, so each is counted
    # from its strip between minus and plus its first split line y1, and
    # from its part below -y1
    window = windows[failing]
    y1 = window.split_point()[1]
    target = rf.Rect(window.re_min, window.re_max, -y1, y1)
    windings = rf._EdgeCache.windings

    def root_on_target(self, contours):
        # the target window's strip and every inflation of it come too close
        # to a root
        return [rf.RootOnContourError("contour sample too close to a root")
                if isinstance(c, rf.Rect) and abs(c.center - target.center) < 1e-9 else count
                for c, count in zip(contours, windings(self, contours))]

    monkeypatch.setattr(rf._EdgeCache, "windings", root_on_target)
    out = tmp_path / "rep"
    assert run_cli("report", "--input", str(path), "--out", str(out), *REPORT_FLAGS) == 2
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records] == ["contour_failure"]
    assert list(out.iterdir()) == []


def test_report_builds_the_chain_grid_once(tmp_path, monkeypatch):
    built = []
    chain_grid = cm.chain_grid

    def counted(*args, **kwargs):
        built.append(args)
        return chain_grid(*args, **kwargs)

    monkeypatch.setattr(cm, "chain_grid", counted)
    assert run_cli("report", "--input", str(_system_with_inputs(tmp_path)),
                   "--out", str(tmp_path / "rep"), *REPORT_FLAGS) == 0
    # the spectrum window, its cluster checks and the shared scan
    assert len(built) == 1


def test_report_index_lists_only_the_files_it_wrote(tmp_path):
    path = tmp_path / "scalar.json"
    save_system(make_scalar_decay(), path)
    out = tmp_path / "rep"
    out.mkdir()
    (out / "rank_profile.json").write_text("{}\n")   # left by an earlier reach
    (out / "notes.csv").write_text("unrelated\n")
    assert run_cli("report", "--input", str(path), "--out", str(out), "--grid-m", "64",
                   "--T", "3") == 0
    index = json.loads((out / "index.json").read_text())
    assert index["files"] == ["roots.csv", "spectrum.json", "stability.json", "trajectory.csv"]


def test_spectrum_report_orders_its_roots_once(tmp_path, monkeypatch, capsys):
    sys_ = make_reach_fixture()
    (report,) = rf.find_roots_in_region(sys_, [rf.Rect(-2.0, 1.0, -10.0, 10.0)], sys_.chains)

    def ordered_again(roots):
        raise AssertionError("the report's roots were ordered again")

    monkeypatch.setattr(rf, "_ordered", ordered_again)
    roots = report.roots
    assert len(roots) > 1 and report.roots is roots
    assert len(report.to_csv().splitlines()) == 1 + len(roots)
    assert cli._write_spectrum(sys_, report, cli._Outputs(tmp_path)) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(f"{len(roots)} root(s)")


FREE3_DOC = {
    "n": 3, "r": 3, "h": 1.0,
    "A_minus1": np.zeros((3, 3)).tolist(),
    "A2": {"breakpoints": [-1.0, 0.0], "segments": [np.zeros((3, 3)).tolist()]},
    "A3": {"breakpoints": [-1.0, 0.0], "segments": [np.zeros((3, 3)).tolist()],
           "atoms": [{"theta": 0.0, "matrix": (-np.eye(3)).tolist()}]},
    "B": np.eye(3).tolist(),
}


def test_controllability_with_full_row_rank_input_runs_no_scan(tmp_path, monkeypatch, capsys):
    path = tmp_path / "free3.json"
    path.write_text(json.dumps(FREE3_DOC))
    counts = _count_spectral_work(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("controllability", "--input", str(path), "--out", str(out)) == 0
    assert counts == {"find_roots_in_region": 0, "rightmost_root_scan": 0,
                      "matrix_spectral_structure": 0, "cluster_eigenvalues": 0}
    verdict = json.loads((out / "controllability.json").read_text())
    assert verdict["null_controllability"]["verdict"] == "yes"
    # no root is tested, so the Hautus line names the full row rank, not a window
    assert ("  Hautus condition at characteristic roots: holds at every point "
            "(input matrix has full row rank)") in capsys.readouterr().out.splitlines()


def test_stabilizability_with_full_row_rank_input_runs_no_scan(tmp_path, monkeypatch, capsys):
    # B = I settles condition 3 at every point; conditions 1, 2 and 4 read the
    # difference-matrix structure alone
    path = tmp_path / "free3.json"
    path.write_text(json.dumps(FREE3_DOC))
    counts = _count_spectral_work(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("stabilizability", "--input", str(path), "--out", str(out)) == 0
    assert counts == {"find_roots_in_region": 0, "rightmost_root_scan": 0,
                      "matrix_spectral_structure": 1, "cluster_eigenvalues": 1}
    assert capsys.readouterr().out == "stabilizability: regularly_stabilizable\n"
    doc = json.loads((out / "stabilizability.json").read_text())
    assert doc["condition_3_hautus_at_scanned_rhp_roots"] == []
    assert doc["window_note"] == "input matrix has full row rank; condition 3 holds at every point"


def test_report_verdicts_match_standalone_commands(tmp_path):
    path = _system_with_inputs(tmp_path)
    report_out = tmp_path / "report"
    assert run_cli("report", "--input", str(path), "--out", str(report_out),
                   *REPORT_FLAGS) == 0
    for command in ("stability", "stabilizability", "controllability"):
        out = tmp_path / command
        assert run_cli(command, "--input", str(path), "--out", str(out)) == 0
        name = f"{command}.json"
        assert (out / name).read_bytes() == (report_out / name).read_bytes()


def test_report_writes_what_reach_and_simulate_write(tmp_path):
    # without --grid-m each part of report uses its own command's default grid
    path = _system_with_inputs(tmp_path)
    report_out = tmp_path / "report"
    assert run_cli("report", "--input", str(path), "--out", str(report_out), "--T", "3") == 0
    for command, flags, names in (("reach", (), ("rank_profile.json", "rank_profile.csv")),
                                  ("simulate", ("--T", "3"), ("trajectory.csv",))):
        out = tmp_path / command
        assert run_cli(command, "--input", str(path), "--out", str(out), *flags) == 0
        for name in names:
            assert (out / name).read_bytes() == (report_out / name).read_bytes()


# x' = 800 x: the simulation overflows at t = 2.255 of --T 10
BLOWUP_DOC = {
    "n": 1, "r": 0, "h": 1.0, "A_minus1": [[0.0]],
    "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]]},
    "A3": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0]]],
           "atoms": [{"theta": 0.0, "matrix": [[800.0]]}]},
    "B": [[]],
}


def test_simulate_blowup_is_one_record(tmp_path, capsys):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_DOC))
    out = tmp_path / "out"
    assert run_cli("simulate", "--input", str(path), "--out", str(out), "--T", "10") == 2
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records == [{"event": "simulation_blowup", "level": "error", "t": 2.255}]
    assert not (out / "trajectory.csv").exists()


def test_report_blowup_still_writes_its_index(tmp_path, capsys):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_DOC))
    out = tmp_path / "out"
    assert run_cli("report", "--input", str(path), "--out", str(out), "--T", "10") == 2
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records] == ["simulation_blowup"]
    index = json.loads((out / "index.json").read_text())
    assert index["files"] == ["roots.csv", "spectrum.json", "stability.json"]
    assert sorted(p.name for p in out.iterdir()) == ["index.json", *index["files"]]
