"""Closed-loop benchmark of the neutralsys command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verdicts, report, probe, trajectory (see WORKLOADS for why
each exists); run them in turn to see all four.  BENCHMARK.json lists
verdicts and report, the two that between them run every layer.

One process, one caller: each analysis is a call of ``neutralsys.cli.main``
made in-process, and the next one starts only when it returns.  The package
is imported from ``src/`` of the checkout this file sits in.  A run builds
the corpus from the seed, writes it as system files, runs one untimed
warm-up analysis per command, then makes a fixed number of passes over the
workload's analyses, sized to take about S seconds.  After every pass it
checks each analysis's output files and hashes them.  Fresh interpreters for
the set-up time run between analyses, spread evenly over the passes.

--trace 0 prints the end-to-end metrics, and fail_frac beside them.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object; the lines
above it are the same numbers for a reader, and every failed check.
"failed" counts analyses that failed any check; "correct" is false when a
failure is not one the reference commit already showed on that system and
command.  The full results, with every failure, digest and the environment,
go to bench/out/results/; the spans of a traced run (spans.py) go to
bench/out/traces/.

    python3 bench/run.py --record-reference

records into bench/reference.json the root sets of every system the
root-finding workloads run, and the checks that every analysis of a fixed
system (one that does not depend on the seed) already fails.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; the workloads drive one process.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer, layer_metrics, write_spans  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 20        # fresh interpreters per untraced run
TAIL_BEYOND = 10          # samples the tail percentile must leave above it

FIXTURES = list(corpus.fixtures())
WITH_INPUTS = ["ex1_ctrl", "ex1_unctrl", "free3", "reach_fixture"]
SIMULATE = ["--T", "50", "--grid-m", "400"]

# Each workload: the commands run on every one of its systems, the systems,
# and the passes a run of BENCHMARK.json's run_seconds makes (35-55 s on
# 2 cores; other --seconds scale the count).  A fixed count fixes the rank of
# the tail and median samples.  The counts below put the tail sample, with
# ten beyond it, inside the samples of one system, away from their fastest
# few and from the edge with a group of different cost, where noise would
# decide which group it came from.
#
# The machine this was tuned on switches between two speeds about 1.45x
# apart and stays in one for seconds to minutes; CPU time follows wall time,
# so no measure within one run removes it, and runs ten seeds apart can see
# different speeds.  BENCHMARK.json therefore gates only the two workloads
# that between them run every layer (report runs all of them; verdicts is
# root finding without the simulator), with long runs.  probe (reach, no
# root finding) and trajectory (single-column simulate) stay runnable for
# the predictions that need a workload that bypasses root finding.
#
# A pass has to fit several times into one run, so the expensive commands run
# on a part of the corpus: report on the fixtures only (one random n = 2
# system costs as much as all ten of them), the root-finding commands on the
# fixtures and dense_n2.  Reach and simulate cost the same on every draw of a
# shape, so they take the seeded random systems.
WORKLOADS = {
    "verdicts": {
        "commands": {"spectrum": [], "stability": [], "stabilizability": [],
                     "controllability": []},
        "systems": FIXTURES + ["dense_n2"],
        "passes": 7,
    },
    "report": {
        "commands": {"report": []},
        "systems": FIXTURES,
        "passes": 8,
    },
    "probe": {
        "commands": {"reach": []},
        "systems": WITH_INPUTS + ["rand_n2_r1", "rand_n2_r2", "rand_n4_r1", "rand_n4_r2",
                                  "rand_n8_r1"],
        "passes": 8,
    },
    "trajectory": {
        "commands": {"simulate-zero": SIMULATE + ["--control", "zero"],
                     "simulate-sine": SIMULATE + ["--control", "sine"]},
        "systems": ["ex1_ctrl", "reach_fixture", "free3", "rand_n2_r1"],
        "passes": 6,
    },
}
ROOT_COMMANDS = ("spectrum", "stability", "stabilizability", "controllability")


def die(message: str, code: int = 2):
    print(json.dumps({"level": "error", "event": message}), file=sys.stderr)
    raise SystemExit(code)


def import_package():
    """Import neutralsys from this checkout's src/ and nowhere else."""
    if not (SRC / "neutralsys" / "__init__.py").is_file():
        die(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import neutralsys
    import neutralsys.cli

    if Path(neutralsys.__file__).resolve().parent != SRC / "neutralsys":
        die(f"neutralsys imported from {neutralsys.__file__}, not from {SRC}")
    return neutralsys


def analyses_of(workload: str, docs: dict) -> list[tuple[str, str, list]]:
    spec = WORKLOADS[workload]
    return [
        (name, command, args)
        for name in spec["systems"]
        for command, args in spec["commands"].items()
        if docs[name]["r"] >= 1 or command not in checks.INPUT_COMMANDS
    ]


class Runner:
    """Runs analyses through cli.main and checks what they wrote."""

    def __init__(self, cli, workdir: Path, docs: dict, reference: dict):
        self.cli = cli
        self.workdir = workdir
        self.docs = docs
        self.root_sets = reference.get("root_sets", {})
        self.baseline_failures = reference.get("baseline_failures", {})
        self.system_files = {}
        (workdir / "systems").mkdir(parents=True)
        for name, doc in docs.items():
            path = workdir / "systems" / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.system_files[name] = path

    def out_dir(self, name: str, command: str) -> Path:
        return self.workdir / "out" / name / command

    def clear(self, name: str, command: str) -> None:
        """Remove an analysis's earlier outputs, so a check never reads them."""
        shutil.rmtree(self.out_dir(name, command), ignore_errors=True)

    def call(self, name: str, command: str, args: list) -> int | str:
        """Exit code of one analysis, or the exception that escaped it."""
        argv = [command.split("-")[0], "--input", str(self.system_files[name]),
                "--out", str(self.out_dir(name, command)), *args]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return self.cli.main(argv)
            except Exception as exc:  # a crashed analysis fails; the run goes on
                return f"uncaught {type(exc).__name__}: {exc}"

    def run_pass(self, analyses, order, tracer: Tracer | None = None, between=None):
        """Wall time of the pass and (seconds, exit code) per analysis, in the
        order of `analyses`; the analyses run in the order given by `order`.
        Clearing old outputs and between(), called before each analysis, are
        left out of every time."""
        results = [None] * len(analyses)
        untimed = 0.0
        start = time.perf_counter()
        for i in map(int, order):
            name, command, args = analyses[i]
            t_out = time.perf_counter()
            self.clear(name, command)
            if between is not None:
                between()
            t0 = time.perf_counter()
            untimed += t0 - t_out
            if tracer is None:
                code = self.call(name, command, args)
            else:
                code = tracer.analysis_span(i, lambda: self.call(name, command, args))
            results[i] = (time.perf_counter() - t0, code)
        return time.perf_counter() - start - untimed, results

    def check(self, name: str, command: str, code: int | str):
        """Failures as (kind, detail, known), root sets and output digests.

        A failure is known when the reference commit already failed the same
        command that way on this very system document.
        """
        doc = self.docs[name]
        out = self.out_dir(name, command)
        ref = self.root_sets.get(corpus.dynamics_key(doc))
        failures, sets = checks.check_analysis(name, doc, command, code, out, ref)
        baseline = self.baseline_failures.get(corpus.document_key(doc), {})
        known = baseline.get("commands", {}).get(command, ())
        failures = [(kind, detail, kind in known) for kind, detail in failures]
        return failures, sets, (checks.digests(out) if out.is_dir() else {})


class SetupSampler:
    """Seconds a fresh interpreter takes to import the package and load one
    system file.  Called before each of the `calls` timed analyses, it starts
    SETUP_SAMPLES interpreters spread evenly over them, so the samples cover
    the whole run rather than one moment of a machine whose speed drifts."""

    def __init__(self, system_file: Path, calls: int):
        self.script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import neutralsys; "
                       f"neutralsys.load_system({str(system_file)!r})")
        self.calls = calls
        self.done = 0
        self.samples: list[float] = []

    def __call__(self) -> None:
        j, self.done = self.done, self.done + 1
        for _ in range((j + 1) * SETUP_SAMPLES // self.calls - j * SETUP_SAMPLES // self.calls):
            self.samples.append(self.sample())

    def sample(self) -> float:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", self.script], stdout=subprocess.DEVNULL)
        # A blocking wait; wait(timeout=...) polls in steps of up to 50 ms.
        watchdog = threading.Timer(120.0, child.kill)
        watchdog.start()
        status = child.wait()
        seconds = time.perf_counter() - t0
        watchdog.cancel()
        if status != 0:
            die(f"set-up interpreter exited with {status}")
        return seconds


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "machine": platform.machine(),
    }


class Record:
    """Checks, digests and failures of every analysis over a run."""

    def __init__(self, analyses):
        self.analyses = analyses
        self.times = [[] for _ in analyses]
        self.failures = [dict() for _ in analyses]   # kind -> (detail, known)
        self.digests = [None for _ in analyses]
        self.roots = [None for _ in analyses]
        self.attempted = 0
        self.failed = 0
        self.run_failures: dict[str, tuple] = {}   # failures of the run, not of one analysis

    def add_pass(self, runner: Runner, results) -> None:
        for i, ((name, command, _), (seconds, code)) in enumerate(zip(self.analyses, results)):
            failures, sets, digest = runner.check(name, command, code)
            if self.digests[i] is None:
                self.digests[i], self.roots[i] = digest, sets
            elif digest != self.digests[i]:
                failures.append(("nondeterministic_output", "digests differ between passes", False))
            self.times[i].append(seconds)
            self.attempted += 1
            self.failed += bool(failures)
            for kind, detail, known in failures:
                self.failures[i].setdefault(kind, (detail, known))

    def failure_list(self) -> list[dict]:
        labelled = [(f"{name}/{command}", fails)
                    for (name, command, _), fails in zip(self.analyses, self.failures)]
        return [
            {"analysis": label, "kind": kind, "detail": detail, "known": known}
            for label, fails in labelled + [("run", self.run_failures)]
            for kind, (detail, known) in fails.items()
        ]

    def correct(self) -> bool:
        return all(f["known"] for f in self.failure_list())

    def per_analysis(self) -> list[dict]:
        return [
            {"analysis": f"{name}/{command}", "seconds": times, "digests": digests}
            for (name, command, _), times, digests in zip(self.analyses, self.times, self.digests)
        ]


def timed_passes(runner: Runner, analyses, passes: int, record: Record, traced: bool,
                 seed: int, between=None):
    """Untimed checks after every pass.  Untraced runs make `passes` plain
    passes; traced runs alternate a plain and a traced pass, half as many of
    each (at least two).  Each pass runs the analyses in its own seeded
    order, so that one analysis's samples are spread over the run and not
    all caught by the same slow spell of a shared machine."""
    plain, traced_walls, tracers = [], [], []
    orders = (np.random.default_rng([seed, k]).permutation(len(analyses)) for k in count())
    for _ in range(max(2, passes // 2) if traced else passes):
        wall, results = runner.run_pass(analyses, next(orders), between=between)
        plain.append(wall)
        record.add_pass(runner, results)
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                wall, results = runner.run_pass(analyses, next(orders), tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            tracers.append(tracer)
            record.add_pass(runner, results)
    return plain, traced_walls, tracers


def declared(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def end_to_end(record: Record, walls, setup, specs) -> tuple[dict, list[str]]:
    pooled = sorted(t for times in record.times for t in times)
    # The highest percentile with TAIL_BEYOND samples above it: the sample
    # that has exactly that many above it.
    tail = len(pooled) - 1 - TAIL_BEYOND
    pct = 100.0 * tail / (len(pooled) - 1)
    metrics = declared({
        "setup_s": statistics.median(setup),
        "corpus_s": statistics.median(walls),
        "analysis_s.p50": statistics.median(pooled),
        "analysis_s.tail": pooled[tail],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, specs)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "corpus_s": f"median of {len(walls)} passes",
        "analysis_s.p50": f"median of {len(pooled)} analyses",
        "analysis_s.tail": f"p{pct:.4g} of {len(pooled)} analyses",
        "peak_rss_mb": "whole run",
    }
    lines = [f"{k:18s} {m['value']:12.6g} {m['unit']:5s} ({notes[k]})" for k, m in metrics.items()]
    frac = record.failed / record.attempted
    lines.append(f"{'fail_frac':18s} {frac:12.6g} ratio ({record.failed} of "
                 f"{record.attempted} analyses)")
    return metrics, lines


def per_layer(record: Record, plain, traced_walls, tracers, specs) -> tuple[dict, list, dict]:
    layers = [layer_metrics(t.spans) for t in tracers]
    counts, _, scans = layers[0]
    if any(c != counts for c, _, _ in layers[1:]):
        record.run_failures["nondeterministic_trace"] = ("counts differ between passes", False)
    missing = sorted({m for t in tracers for m in t.missing})
    if missing:
        record.run_failures["trace_missing_entry_point"] = (", ".join(missing), False)
    unreadable = {k: v for t in tracers for k, v in t.unreadable.items()}
    if unreadable:
        record.run_failures["trace_unreadable_work"] = (json.dumps(unreadable, sort_keys=True),
                                                        False)
    values = dict(counts)
    for key in layers[0][1]:
        values[key] = statistics.median(times[key] for _, times, _ in layers)
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1
    metrics = declared(values, specs)
    lines = [f"{k:34s} {m['value']:14.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"({len(tracers)} traced and {len(plain)} untraced passes; counts from one "
                 f"traced pass, times are medians)")
    scans_per_analysis = {
        f"{record.analyses[i][0]}/{record.analyses[i][1]}": n for i, n in sorted(scans.items())
    }
    return metrics, lines, scans_per_analysis


def run(args) -> int:
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload}", 1)
    neutralsys = import_package()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    docs = corpus.build(args.seed)
    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(neutralsys.cli, workdir, docs, reference)
    analyses = analyses_of(args.workload, docs)

    # Warm-up: each command once, on the first system it runs on; untimed.
    warmed = set()
    for name, command, cmd_args in analyses:
        if command not in warmed:
            warmed.add(command)
            runner.call(name, command, cmd_args)

    record = Record(analyses)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = max(MIN_PASSES,
                 round(WORKLOADS[args.workload]["passes"] * args.seconds / spec["run_seconds"]))
    sampler = None
    if not args.trace:
        sampler = SetupSampler(runner.system_files[WORKLOADS[args.workload]["systems"][-1]],
                               passes * len(analyses))
    plain, traced_walls, tracers = timed_passes(
        runner, analyses, passes, record, bool(args.trace), args.seed, sampler)
    setup = sampler.samples if sampler else []
    if args.trace:
        metrics, lines, scans = per_layer(record, plain, traced_walls, tracers, spec["per_layer"])
        write_spans(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz", tracers)
    else:
        metrics, lines = end_to_end(record, plain, setup, spec["end_to_end"])
        scans = {}

    failures = record.failure_list()
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "metrics": metrics,
        "pass_seconds": {"untraced": plain, "traced": traced_walls},
        "setup_seconds": setup,
        "attempted": record.attempted,
        "failed": record.failed,
        "failures": failures,
        "analyses": record.per_analysis(),
        "root_sets": {f"{n}/{c}": s for (n, c, _), s in zip(analyses, record.roots)},
        "scans_per_analysis": scans,
        "trace_lookup_sites": tracers[0].sites if tracers else [],
    }
    results_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(analyses)} analyses per pass, one closed-loop caller")
    for line in lines:
        print("  " + line)
    for f in failures:
        tag = " (known at the baseline)" if f["known"] else ""
        print(f"  FAILED {f['analysis']}: {f['kind']}{tag}: {f['detail']}")
    print(f"  results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record.correct(),
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


def record_reference() -> int:
    """Root sets of every system the root-finding workloads run, from the
    root-finding commands: roots do not depend on the input matrix, so one
    record per dynamics serves every seed.  Then every workload's analyses
    of the fixtures, whose documents do not depend on the seed, and the
    checks each of them already fails."""
    neutralsys = import_package()
    docs = corpus.build(0)
    workdir = OUT / "work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(neutralsys.cli, workdir, docs, {})

    root_sets = {}
    for name in sorted({n for w in ("verdicts", "report") for n in WORKLOADS[w]["systems"]}):
        entry = root_sets.setdefault(corpus.dynamics_key(docs[name]), {"names": []})
        entry["names"].append(name)
        for command in ROOT_COMMANDS:
            if docs[name]["r"] == 0 and command in checks.INPUT_COMMANDS:
                continue
            code = runner.call(name, command, [])
            if code != 0:
                die(f"{name} {command} exited with {code}")
            _, found = checks.check_analysis(
                name, docs[name], command, code, runner.out_dir(name, command), None)
            entry.update(found)

    fixtures = corpus.fixtures()
    analyses = {(name, command): args for w in WORKLOADS
                for name, command, args in analyses_of(w, docs) if name in fixtures}
    baseline = {}
    for (name, command), args in sorted(analyses.items()):
        runner.clear(name, command)
        code = runner.call(name, command, args)
        failures, _ = checks.check_analysis(
            name, docs[name], command, code, runner.out_dir(name, command),
            root_sets.get(corpus.dynamics_key(docs[name])))
        kinds = sorted({kind for kind, _ in failures})
        if kinds:
            entry = baseline.setdefault(corpus.document_key(docs[name]),
                                        {"name": name, "commands": {}})
            entry["commands"][command] = kinds
        print(name, command, kinds, flush=True)
    REFERENCE.write_text(json.dumps(
        {"merge_tol": checks.MERGE_TOL, "root_sets": root_sets, "baseline_failures": baseline},
        indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
