"""Correctness checks on the files one CLI analysis wrote.

Every check returns a list of (kind, detail) failures; an empty list means
the analysis passed.  The benchmark counts an analysis as failed when any
check fails.  Known answers are pinned only for the fixtures, and root sets
are compared with the reference recorded from the baseline commit, so a
change that moves a verdict only through rounding does not trip them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MERGE_TOL = 1e-6          # the root finder's default merge_tol
WITNESS_DET_TOL = 1e-8

# Files each command must write; report writes those of every command it runs
# (the input commands only when the system has inputs) and index.json.
OUTPUTS = {
    "spectrum": ("spectrum.json", "roots.csv"),
    "stability": ("stability.json",),
    "stabilizability": ("stabilizability.json",),
    "controllability": ("controllability.json",),
    "reach": ("rank_profile.json", "rank_profile.csv"),
    "simulate": ("trajectory.csv",),
}
INPUT_COMMANDS = ("stabilizability", "controllability", "reach")


def expected_outputs(command: str, r: int) -> set[str]:
    """Files an analysis with this command must leave in its output directory."""
    command = command.split("-")[0]
    if command != "report":
        return set(OUTPUTS[command])
    return {"index.json"}.union(*(
        files for cmd, files in OUTPUTS.items() if r >= 1 or cmd not in INPUT_COMMANDS
    ))


# Fixture verdicts.  Keys are dotted paths into the output documents.
KNOWN_ANSWERS = {
    "ex1_jordan": {"stability.json": {"asymptotic_case": "case_ii_unstable"}},
    "ex2_repeated_g0": {"stability.json": {"asymptotic_case": "case_iii_indeterminate"}},
    "ex2_repeated_g1": {"stability.json": {"asymptotic_case": "case_iii_indeterminate"}},
    "rotation": {"stability.json": {"asymptotic_case": "case_i_stable"}},
    "scalar_decay": {
        "stability.json": {"exponential": "stable", "asymptotic_case": "exp_regime"}
    },
    "ex1_ctrl": {
        "controllability.json": {
            "null_controllability.verdict": "yes_within_window",
            "bounds.m_min": 2,
            "bounds.m_max": 2,
            "bounds.time_lower": 2.0,
            "bounds.time_sufficient": 2.0,
            "bounds.single_input_exact": True,
        }
    },
    "ex1_unctrl": {"controllability.json": {"null_controllability.verdict": "no"}},
    "free3": {"controllability.json": {"bounds.m_min": 1, "bounds.m_max": 1}},
}

# Files that are not part of the determinism contract.
NON_DETERMINISTIC = {"run_meta.json"}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every deterministic output file in an analysis directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name not in NON_DETERMINISTIC
    }


def _lookup(doc, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def _complex(point) -> complex:
    return complex(point["re"], point["im"])


def spectrum_roots(doc: dict) -> list[list]:
    roots = list(doc["unclustered_roots"])
    for cluster in doc["clusters"]:
        roots.extend(cluster["roots"])
    return sorted([r["re"], r["im"], r["multiplicity"]] for r in roots)


def root_sets(files: dict[str, dict]) -> dict[str, list]:
    """Root sets an analysis reported, by output file.

    spectrum.json lists every located root with its multiplicity; the scan
    behind the verdict files shows through the Hautus test points (every
    scanned root in controllability.json, the ones with Re >= 0 in
    stabilizability.json) and through the scan summary in stability.json.
    """
    sets = {}
    if "spectrum.json" in files:
        sets["spectrum.json"] = spectrum_roots(files["spectrum.json"])
    if "stability.json" in files:
        scan = files["stability.json"]["evidence"]["scan"]
        sets["stability.json"] = [
            [scan["rightmost_root_re"], scan["roots_found"], scan["total_multiplicity"]]
        ]
    if "stabilizability.json" in files:
        tests = files["stabilizability.json"]["condition_3_hautus_at_scanned_rhp_roots"]
        sets["stabilizability.json"] = sorted(
            [t["test_point"]["re"], t["test_point"]["im"]] for t in tests
        )
    if "controllability.json" in files:
        tests = files["controllability.json"]["null_controllability"][
            "condition_i_hautus_at_scanned_roots"
        ]
        sets["controllability.json"] = sorted(
            [t["test_point"]["re"], t["test_point"]["im"]] for t in tests
        )
    return sets


def _sets_match(name: str, got: list, want: list) -> bool:
    if name == "stability.json":
        (g_re, g_found, g_mult), (w_re, w_found, w_mult) = got[0], want[0]
        if (g_found, g_mult) != (w_found, w_mult):
            return False
        if g_re is None or w_re is None:
            return g_re is w_re
        return abs(g_re - w_re) <= MERGE_TOL
    if len(got) != len(want):
        return False
    # Greedy nearest matching; located roots are at least merge_tol apart.
    unused = list(want)
    for root in got:
        best = min(
            range(len(unused)),
            key=lambda i: abs(complex(*root[:2]) - complex(*unused[i][:2])),
        )
        ref = unused.pop(best)
        if abs(complex(*root[:2]) - complex(*ref[:2])) > MERGE_TOL or root[2:] != ref[2:]:
            return False
    return True


def _atom_only_det(system: dict, lam: complex) -> complex:
    """det D(lam) for a system whose A2/A3 carry no densities, computed from
    the system document alone: D = -lam I + lam e^{-lam h} A + sum atoms."""
    n = system["n"]
    D = -lam * np.eye(n) + lam * np.exp(-lam * system["h"]) * np.array(system["A_minus1"])
    for atom in system["A3"].get("atoms", []):
        D = D + np.exp(lam * atom["theta"]) * np.array(atom["matrix"])
    return complex(np.linalg.det(D))


def check_analysis(
    name: str,
    system: dict,
    command: str,
    code: int | str,
    out: Path,
    reference: dict | None,
) -> tuple[list[tuple[str, str]], dict[str, list]]:
    """Failures of one analysis, plus the root sets it reported."""
    if code != 0:
        return [("exit_code", f"{command} exited with {code}")], {}
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    files = {
        fname: json.loads((out / fname).read_text())
        for fname in sorted(present)
        if fname.endswith(".json") and fname not in NON_DETERMINISTIC
    }
    failures: list[tuple[str, str]] = []
    missing = sorted(expected_outputs(command, system["r"]) - present)
    if missing:
        failures.append(("missing_output", ", ".join(missing)))

    spec = files.get("spectrum.json")
    if spec is not None:
        located = sum(r[2] for r in spectrum_roots(spec))
        if located != spec["total_count"]:
            failures.append(
                ("spectrum_count_mismatch",
                 f"winding count {spec['total_count']}, located multiplicity {located}")
            )
        if spec["unresolved_cells"]:
            failures.append(("unresolved_cells", f"{len(spec['unresolved_cells'])} cell(s)"))
        bad = [c for c in spec.get("cluster_checks", []) if not c["match"]]
        if bad:
            failures.append(
                ("cluster_check_mismatch",
                 ", ".join(f"m={c['m']} k={c['k']}: {c['count']} != {c['expected']}" for c in bad))
            )

    profile = files.get("rank_profile.json")
    if profile is not None:
        ranks = [e["effective_rank"] for e in profile["entries"]]
        if not profile["monotone_effective_rank"] or any(b < a for a, b in zip(ranks, ranks[1:])):
            failures.append(("rank_profile_not_monotone", f"effective ranks {ranks}"))

    index = files.get("index.json")
    if index is not None and not all(index["consistency"].values()):
        failures.append(("inconsistent_verdicts", json.dumps(index["consistency"], sort_keys=True)))

    if (out / "trajectory.csv").is_file():
        failures += _check_trajectory(out / "trajectory.csv")

    # A known answer is pinned wherever its file is expected; when the file is
    # missing, missing_output has already failed the analysis.
    for fname, expected in KNOWN_ANSWERS.get(name, {}).items():
        if fname not in files:
            continue
        for key, want in expected.items():
            got = _lookup(files[fname], key)
            if got != want:
                failures.append(("known_answer", f"{fname} {key} = {got!r}, expected {want!r}"))
    if name == "ex1_unctrl" and "controllability.json" in files:
        witness = files["controllability.json"]["null_controllability"]["witness"]
        lam = None if witness is None else _complex(witness["test_point"])
        if lam is None or abs(_atom_only_det(system, lam)) > WITNESS_DET_TOL:
            failures.append(("known_answer", f"witness {lam} is not a characteristic root"))

    sets = root_sets(files)
    for fname, got in sets.items():
        want = None if reference is None else reference.get(fname)
        if want is None:
            failures.append(("missing_reference", f"no reference root set for {fname}"))
        elif not _sets_match(fname, got, want):
            failures.append(("root_set_mismatch", f"{fname} differs from its reference"))
    return failures, sets


def _check_trajectory(path: Path) -> list[tuple[str, str]]:
    lines = path.read_text().splitlines()
    last = lines[-1].split(",")
    if len(lines) < 3 or not all(math.isfinite(float(x)) for x in last):
        return [("trajectory_malformed", f"{len(lines)} line(s), last row {last[:3]}")]
    return []
