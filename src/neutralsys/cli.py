"""Command-line front end: load a system file, run analyses, write reports.

Exit codes: 0 analysis completed (whatever the verdict), 1 usage error,
2 numerical failure (unresolved cells, non-finite simulation), 3 I/O error.
Diagnostics go to stderr as single-line JSON records; results are written as
JSON/CSV files plus a short human summary on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys as _sys
import time
from argparse import Namespace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ContourError,
    NeutralSysError,
    SimulationBlowUpError,
    SystemParseError,
    SystemValidationError,
)
from .sysmodel import NeutralSystem, load_system

# Each command imports the modules it runs when it runs: simulate and reach
# never compile the root finder or the verdict modules.
if TYPE_CHECKING:
    from .rootfinder import Rect, SpectrumReport
    from .simulate import HistorySegment
    from .stability import StabilityVerdict, SystemAnalysis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Grid intervals per delay when --grid-m is not given, per command that uses it.
SIMULATE_GRID_M = 200
REACH_GRID_M = 100

# Chain indices k of the cluster checks in spectrum.json, for every chain m.
CLUSTER_CHECK_KS = range(5, 21)


def _diag(level: str, event: str, **detail) -> None:
    print(json.dumps({"level": level, "event": event, **detail}, sort_keys=True),
          file=_sys.stderr)


class _Outputs:
    """The output directory and the names of the files written to it."""

    def __init__(self, path: Path):
        self.path = path
        self.written: list[str] = []

    def write(self, name: str, text: str) -> None:
        (self.path / name).write_text(text)
        self.written.append(name)

    def write_json(self, name: str, doc) -> None:
        self.write(name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _control_function(cfg: Namespace, sys_: NeutralSystem):
    if sys_.r == 0 or cfg.control == "zero":
        return None
    if cfg.control == "sine":
        amp, freq = cfg.control_amplitude, cfg.control_frequency
        return lambda t: amp * np.sin(2.0 * np.pi * freq * t) * np.ones(sys_.r)
    if cfg.control == "table":
        if not cfg.control_table:
            raise ValueError("control 'table' needs --control-table FILE")
        lines = Path(cfg.control_table).read_text().splitlines()
        if not any(line.split("#", 1)[0] for line in lines):   # loadtxt would warn
            raise ValueError("control table has no rows")
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
        times, values = rows[:, 0], rows[:, 1:]
        if values.shape[1] != sys_.r:
            raise ValueError(f"control table has {values.shape[1]} channels, need {sys_.r}")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("control table times must be finite and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("control table values must be finite")

        def table(t):
            i = int(np.searchsorted(times, t, side="right")) - 1
            return values[min(max(i, 0), len(times) - 1)]

        return table
    raise ValueError(f"unknown control spec '{cfg.control}'")


def _history(cfg: Namespace, sys_: NeutralSystem) -> HistorySegment:
    from .simulate import HistorySegment
    m = SIMULATE_GRID_M if cfg.grid_m is None else cfg.grid_m
    if cfg.history == "zero":
        return HistorySegment.zero(sys_, m)
    if cfg.history == "ones":
        return HistorySegment.constant(sys_, np.ones(sys_.n), m)
    if cfg.history == "random":
        return HistorySegment.random(sys_, m, cfg.seed)
    raise ValueError(f"unknown history spec '{cfg.history}'")


def _spectrum_window(cfg: Namespace) -> Rect:
    from .rootfinder import Rect
    return Rect(cfg.re_min, cfg.re_max, -cfg.im_max, cfg.im_max)


def _unresolved(scan: SpectrumReport) -> int:
    """Exit 2, with one record naming its window, when `scan` left cells unresolved."""
    if not scan.unresolved_cells:
        return EXIT_OK
    _diag("warning", "unresolved_cells", count=len(scan.unresolved_cells),
          window=dataclasses.asdict(scan.window))
    return EXIT_NUMERICAL


def _cmd_spectrum(cfg: Namespace, sys_: NeutralSystem, out: _Outputs) -> int:
    from .rootfinder import find_roots_in_region
    (report,) = find_roots_in_region(sys_, [_spectrum_window(cfg)], sys_.chains)
    return _write_spectrum(sys_, report, out)


def _write_spectrum(sys_: NeutralSystem, report: SpectrumReport, out: _Outputs) -> int:
    from .rootfinder import verify_cluster_multiplicity
    grid = sys_.chains
    doc = report.to_json_dict()
    if grid is not None:
        pairs = [(m, k) for m in range(len(grid.eigenvalues)) for k in CLUSTER_CHECK_KS]
        doc["cluster_checks"] = [
            {"m": m, "k": k, "count": count, "expected": expected, "match": match}
            for (m, k), (count, expected, match)
            in zip(pairs, verify_cluster_multiplicity(sys_, pairs))
        ]
    out.write_json("spectrum.json", doc)
    out.write("roots.csv", report.to_csv())
    roots = report.all_roots()
    print(f"{len(roots)} root(s), total multiplicity {report.total_count} in window; "
          f"{len(report.unresolved_cells)} unresolved cell(s)")
    for r in roots[:20]:
        print(f"  {r.lam.real:+.9g} {r.lam.imag:+.9g}i  multiplicity {r.multiplicity}")
    return _unresolved(report)


def _write_stability(verdict: StabilityVerdict, out: _Outputs) -> None:
    out.write_json("stability.json", verdict.to_json_dict())
    print(f"exponential: {verdict.exponential}; asymptotic: {verdict.asymptotic_case}")


def _cmd_stability(cfg: Namespace, analysis: SystemAnalysis, out: _Outputs) -> int:
    from .stability import classify_asymptotic
    _write_stability(classify_asymptotic(analysis), out)
    return EXIT_OK


def _cmd_stabilizability(cfg: Namespace, analysis: SystemAnalysis, out: _Outputs) -> int:
    from .structural import check_stabilizability
    report = check_stabilizability(analysis)
    out.write_json("stabilizability.json", report.to_json_dict())
    print(f"stabilizability: {report.verdict}")
    return EXIT_OK


def _cmd_controllability(cfg: Namespace, analysis: SystemAnalysis, out: _Outputs) -> int:
    from .structural import controllability_report
    report = controllability_report(analysis)
    out.write_json("controllability.json", report.to_json_dict())
    print(report.summary())
    return EXIT_OK


def _cmd_simulate(cfg: Namespace, sys_: NeutralSystem, out: _Outputs) -> int:
    from .simulate import norm_profile, simulate
    phi = _history(cfg, sys_)
    traj = simulate(sys_, phi, _control_function(cfg, sys_), T=cfg.T)
    out.write("trajectory.csv", traj.to_csv())
    prof = norm_profile(traj)
    print(f"simulated to T={traj.times[-1]:.6g} with m={phi.m}; "
          f"norm start {prof[0, 1]:.6g}, end {prof[-1, 1]:.6g}")
    return EXIT_OK


def _cmd_reach(cfg: Namespace, sys_: NeutralSystem, out: _Outputs) -> int:
    from .reachability import rank_profile
    T_list = cfg.T_list or tuple(sys_.h * f for f in (0.5, 1.5, 2.5, 3.5))
    m = REACH_GRID_M if cfg.grid_m is None else cfg.grid_m
    profile = rank_profile(sys_, T_list, m=m)
    out.write("rank_profile.csv", profile.to_csv())
    out.write_json("rank_profile.json", profile.to_json_dict())
    marks = ", ".join(f"T={e.T:.6g}: rank {e.effective_rank}" for e in profile.entries)
    print(f"effective ranks ({'monotone' if profile.monotone else 'NOT monotone'}): {marks}")
    return EXIT_OK


def _cmd_report(cfg: Namespace, analysis: SystemAnalysis, out: _Outputs) -> int:
    from .stability import classify_asymptotic
    sys_ = analysis.sys_
    _, spectrum = analysis.scans
    codes = [_write_spectrum(sys_, spectrum, out)]
    verdict = classify_asymptotic(analysis)
    _write_stability(verdict, out)
    blowup = None
    try:
        if sys_.r >= 1:
            codes.append(_cmd_stabilizability(cfg, analysis, out))
            codes.append(_cmd_controllability(cfg, analysis, out))
            codes.append(_cmd_reach(cfg, sys_, out))
        codes.append(_cmd_simulate(cfg, sys_, out))
    except SimulationBlowUpError as exc:
        blowup = exc   # run reports it once index.json lists what was written

    consistency = {
        "exponential_stable_implies_exp_regime": (
            verdict.exponential != "stable" or verdict.asymptotic_case == "exp_regime"
        )
    }
    # the files this report wrote, not whatever else the directory holds
    out.write_json("index.json", {"files": sorted(out.written), "consistency": consistency})
    if blowup is not None:
        raise blowup
    if not all(consistency.values()):
        _diag("error", "inconsistent_verdicts", detail=consistency)
        return EXIT_NUMERICAL
    return max(codes)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "stability": _cmd_stability,
    "stabilizability": _cmd_stabilizability,
    "controllability": _cmd_controllability,
    "simulate": _cmd_simulate,
    "reach": _cmd_reach,
    "report": _cmd_report,
}
# The commands that read a verdict's root scan: each takes a SystemAnalysis,
# the others the system alone.  report runs every other command.
_VERDICTS = ("stability", "stabilizability", "controllability", "report")
# The commands that scan for roots.
_SCANS = ("spectrum", *_VERDICTS)


def run(cfg: Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    try:
        sys_ = load_system(cfg.input)
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        _diag("error", "io_error", path=cfg.input, detail=str(exc))
        return EXIT_IO
    except SystemParseError as exc:
        _diag("error", "parse_error", path=cfg.input, detail=str(exc))
        return EXIT_IO
    except SystemValidationError as exc:
        _diag("error", "validation_error", path=cfg.input,
              issues=[list(i) for i in exc.report.issues])
        return EXIT_USAGE

    out = _Outputs(Path(cfg.out))
    try:
        out.path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _diag("error", "io_error", path=str(out.path), detail=str(exc))
        return EXIT_IO

    started = time.perf_counter()
    subject = sys_
    try:
        if cfg.command in _VERDICTS:
            from .stability import SystemAnalysis
            # report's spectrum window rides along in the rightmost scan: one scan per system
            windows = (_spectrum_window(cfg),) if cfg.command == "report" else ()
            subject = SystemAnalysis(sys_, im_cap=cfg.im_max, windows=windows)
        code = _COMMANDS[cfg.command](cfg, subject, out)
    except SimulationBlowUpError as exc:
        _diag("error", "simulation_blowup", t=exc.t_blowup)
        return EXIT_NUMERICAL
    except ContourError as exc:
        _diag("error", "contour_failure", detail=str(exc))
        return EXIT_NUMERICAL
    except ValueError as exc:
        _diag("error", "usage_error", detail=str(exc))
        return EXIT_USAGE
    except NeutralSysError as exc:
        _diag("error", "analysis_failure", detail=str(exc))
        return EXIT_NUMERICAL
    except OSError as exc:
        _diag("error", "io_error", detail=str(exc))
        return EXIT_IO
    # a verdict rests on the rightmost scan it read, cached on the analysis
    if "scans" in vars(subject):
        code = max(code, _unresolved(subject.scan))

    # wall-clock and provenance live outside the deterministic outputs
    out.write_json("run_meta.json", {
        "command": cfg.command,
        "input": str(cfg.input),
        **({"seed": cfg.seed} if "seed" in cfg else {}),
        "elapsed_s": round(time.perf_counter() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    return code


def _finite(text: str) -> float:
    """A finite number; a window bound at infinity has no scan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text}")
    return value


def _horizons(text: str) -> tuple[float, ...]:
    """Comma-separated horizons; an empty list leaves the choice to reach."""
    try:
        return tuple(float(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line instead of printing the usage text
    and exiting, so main reports it as one JSON record; subcommand parsers are
    of the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# Each option once: its flag, its argparse settings and the commands that
# read it.  report runs every other command, so it takes every option.
_OPTIONS = (
    ("--re-min", {"type": _finite, "default": -1.0}, ("spectrum",)),
    ("--re-max", {"type": _finite, "default": 1.0}, ("spectrum",)),
    ("--im-max", {"type": _finite, "default": 40.0}, _SCANS),
    ("--T", {"type": float, "default": 10.0}, ("simulate",)),
    ("--grid-m", {"type": int, "default": None,
                  "help": f"grid intervals per delay (default: {SIMULATE_GRID_M} simulate, "
                          f"{REACH_GRID_M} reach, each also within report)"},
     ("simulate", "reach")),
    ("--seed", {"type": int, "default": 0, "help": "seed of the random history"},
     ("simulate",)),
    ("--control", {"default": "zero", "help": "zero | sine | table"}, ("simulate",)),
    ("--control-amplitude", {"type": _finite, "default": 1.0}, ("simulate",)),
    ("--control-frequency", {"type": _finite, "default": 1.0}, ("simulate",)),
    ("--control-table", {"default": None}, ("simulate",)),
    ("--history", {"default": "random", "help": "zero | ones | random"}, ("simulate",)),
    ("--T-list", {"type": _horizons, "default": (),
                  "help": "comma-separated horizons for reach"}, ("reach",)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace every call.
    parser = _Parser(
        prog="neutralsys",
        description="Spectrum, stability and controllability analysis of "
                    "linear neutral-type delay systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # no abbreviations: reach would take --T for its --T-list
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--input", required=True, help="system description JSON")
        p.add_argument("--out", default=".", help="output directory")
        for flag, settings, readers in _OPTIONS:
            if name in readers or name == "report":
                p.add_argument(flag, **settings)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        _diag("error", "usage_error", detail=str(exc))
        return EXIT_USAGE
    except SystemExit as exc:   # -h printed the help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
