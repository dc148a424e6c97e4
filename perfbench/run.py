"""plmorse benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's inputs are made from the seed (see corpus.py),
then whole passes over the workload's program calls repeat: at least one,
and another only while it should end within S seconds.  Every call goes
through the in-process CLI entry point ``plmorse.cli.main`` and every
output is checked (see checks.py).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-module
metrics with ``--trace 1``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up is timed in this many fresh interpreters before the first pass and
# again after the last, so that its median spans the run's machine load.
SETUP_REPEATS = 8
# Reported times are scaled to the host's fast state, in which one probe
# (``probe_work``) takes this long; see ``SpeedProbe``.
PROBE_REF_S = 0.00035
# The probe runs this often while a timed interval runs.
PROBE_EVERY_S = 0.05
# ratio -> (numerator, denominator); both are reported next to it
RATIOS = {
    "compact.refine.kept": ("compact.pieces", "compact.refine.tried"),
    "geometry.vertices.yield": ("geometry.vertices.found", "geometry.vertices.subsets"),
}


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (ROOT / "src" / "plmorse" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'plmorse'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import plmorse.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "plmorse":
        _fail(f"imported plmorse from {cli.__file__}, not from this checkout")
    return cli


def probe_work() -> None:
    """Fixed pure-Python work of the program's kind, from the standard library.

    Rational arithmetic and dict updates: the interpreter work that plmorse
    spends its time on, but none of plmorse's code, so no change to the
    program changes its time.
    """
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, 7) * Fraction(3, i + 2)
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i


class SpeedProbe:
    """Samples the host's speed while a timed interval runs.

    The host's speed changes with its other tenants' load: it switches
    between a fast and a slow state, about 1.7 times slower, every fraction
    of a second to a few seconds, and over minutes the share of slow time
    ranges up to a factor of two in wall time (README.md, "Noise").  So each
    timed interval runs with SIGALRM every ``PROBE_EVERY_S``, and the
    handler times one ``probe_work``; one more probe runs just before the
    interval.  A probe's speed is ``PROBE_REF_S`` over its time.  The time
    reported for an interval is its wall time, less the time spent in the
    handler, times the mean speed of its probes: the seconds it would have
    taken in the fast state.  The mean of speeds, because the work done in
    an interval is the integral of speed over its wall time, and the probes
    sample that at even steps of wall time.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        # The probe makes no cycles; with the collector on, its time would
        # also depend on how many objects the program holds.
        collecting = gc.isenabled()
        gc.disable()
        probe_work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.speeds.append(PROBE_REF_S / (t1 - t0))
        self.handler_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def interval(self):
        """Probe the block; then ``speeds`` and ``handler_s`` describe it."""
        self.speeds = []
        self._sample()
        self.handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, wall: float) -> float:
        """The fast-state seconds of the last interval, whose wall time was ``wall``."""
        return (wall - self.handler_s) * statistics.fmean(self.speeds)


def _setup(workload: str, seed: int, out: Path, probe: SpeedProbe) -> list[float]:
    """Make the inputs in fresh interpreters; return each one's fast-state time."""
    # -S: skip site-packages start-up, which the program does not need and
    # which can cost tens of milliseconds, depending on what is installed.
    cmd = [sys.executable, "-S", str(BENCH / "corpus.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    times = []
    for _ in range(SETUP_REPEATS):
        with probe.interval():
            # A blocking wait returns when the child exits; subprocess.run
            # with a timeout polls instead, at up to 50 ms, which would
            # quantise the time.  The wait resumes after each probe.
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
            killer = threading.Timer(120, child.kill)
            killer.start()
            try:
                rc = child.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        # The child runs on while the probe runs in this process, so the
        # probe's time is not taken off.
        times.append(wall * statistics.fmean(probe.speeds))
        if rc != 0:
            _fail(f"input generation exited with {rc}")
    return times


class Workload:
    """The program calls of one pass, each with the check of its output."""

    def __init__(self, manifest: dict, work: Path):
        self.ops = manifest["ops"]
        self.work = work
        self.nets = {}
        self.refs = {}
        for op in self.ops:
            if "net" in op and op["net"] not in self.nets:
                doc = json.loads(Path(op["net"]).read_text())
                self.nets[op["net"]] = checks.parse_network(doc)
            if op["kind"] == "oracle":
                self.refs[op["id"]] = _exact_betti(op)

    def argv(self, op, out: Path) -> list[str]:
        flag = "--report" if op["kind"] == "analyze" else "--out"
        return op["argv"] + [flag, str(out)]

    def check(self, op, doc) -> list[str]:
        if op["kind"] == "analyze":
            return checks.check_report(doc, self.nets[op["net"]], op["family"], op["param"])
        if op["kind"] == "montecarlo":
            return checks.check_montecarlo(doc, op["mc_kind"], op["arch"], op["trials"])
        return checks.check_oracle(doc, op["mode"], self.refs[op["id"]])


def _exact_betti(op) -> tuple[int, ...]:
    """Betti numbers of the exact sub/superlevel model: the oracle's reference."""
    from fractions import Fraction

    from plmorse.compact import sublevel_model, superlevel_model
    from plmorse.complexes import build_complex
    from plmorse.homology import betti, triangulate
    from plmorse.network import load_network

    cx = build_complex(load_network(op["net"]))
    model = sublevel_model if op["mode"] == "sublevel" else superlevel_model
    return betti(triangulate(model(cx, Fraction(op["threshold"]))).complex)


class Runner:
    """Makes passes over a workload, counting attempts and failures."""

    def __init__(self, cli, workload: Workload, probe: SpeedProbe | None = None):
        self.cli = cli
        self.wl = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe = probe or SpeedProbe()
        self.wall: dict[str, float] = {}  # the last pass's wall times
        self.speeds: list[float] = []  # every probe speed of every pass

    def one_pass(self) -> dict[str, float]:
        """Run every call once; return the fast-state time of each, failed ones too.

        A call's time does not include reading and checking its output.
        """
        times = {}
        for op in self.wl.ops:
            out = self.wl.work / f"out-{op['id']}.json"
            if out.exists():
                out.unlink()
            argv = self.wl.argv(op, out)
            if self.tracer is not None:
                self.tracer.op = op["id"]
            self.attempted += 1
            sink = io.StringIO()
            try:
                with self.probe.interval():
                    t0 = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(sink):
                            rc = self.cli.main(argv)
                    finally:
                        self.wall[op["id"]] = time.perf_counter() - t0
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                self._failed(op, f"raised {type(exc).__name__}: {exc}")
                continue
            finally:
                times[op["id"]] = self.probe.scaled(self.wall[op["id"]])
                self.speeds += self.probe.speeds
            if rc != 0:
                self._failed(op, f"exited with {rc}")
                continue
            try:
                problems = self.wl.check(op, json.loads(out.read_text()))
            except Exception as exc:  # missing, unreadable or malformed output
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            if problems:
                self._failed(op, "; ".join(problems))
        return times

    def _failed(self, op, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op['id']}: {why}")


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_program()
    os.environ.pop("PLMORSE_THREADS", None)
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "oracle":
            import corpus

            corpus.oracle_picks(args.seed, work)  # untimed: see corpus.oracle_picks
        probe = SpeedProbe()
        setup_times = _setup(args.workload, args.seed, work, probe)
        manifest = json.loads((work / "manifest.json").read_text())
        wl = Workload(manifest, work)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        runner = Runner(cli, wl, probe)
        start = time.perf_counter()
        untraced = None
        if tracer is not None:
            untraced = sum(runner.one_pass().values())
            tracer.install()
            runner.tracer = tracer
        # At least one pass; another only if it should end within the budget.
        passes, wall = [], []
        while True:
            t0 = time.perf_counter()
            passes.append(runner.one_pass())
            wall.append(sum(runner.wall.values()))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
        setup_times += _setup(args.workload, args.seed, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # No operation of any workload is expected to fail, so any failure makes
    # the run incorrect: its times may be short by the work a crash skipped.
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    for p in runner.problems:
        print(f"perfbench: failed {p}", file=sys.stderr)
    # Times below are fast-state seconds (see SpeedProbe) unless named wall.
    pass_s = [sum(p.values()) for p in passes]
    per_call = {op["id"]: statistics.median(p[op["id"]] for p in passes) for op in wl.ops}
    speed = statistics.fmean(runner.speeds)
    print(f"perfbench: median seconds per call {json.dumps(per_call)}", file=sys.stderr)
    print(f"perfbench: seconds per pass {json.dumps(pass_s)}", file=sys.stderr)
    print(f"perfbench: wall seconds per pass {json.dumps(wall)}", file=sys.stderr)
    print(f"perfbench: seconds per set-up {json.dumps(setup_times)}", file=sys.stderr)
    print(f"perfbench: mean probe speed {speed} over {len(runner.speeds)} probes", file=sys.stderr)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "corpus_s": statistics.median(pass_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]
    else:
        spans_file = BENCH / "work" / f"spans-{args.workload}.json"
        tracer.write(spans_file)
        totals = tracer.summary()
        n = len(passes)
        per_pass = {k: v / n * (speed if k.endswith(".s") else 1) for k, v in totals.items()}
        per_pass["trace.overhead_s"] = statistics.median(pass_s) - untraced
        for ratio, (num, den) in RATIOS.items():
            per_pass[ratio] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        values = per_pass
        listed = spec["per_layer"]
    # BENCHMARK.json names the metrics; a call never made counts as zero.
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in listed}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="plmorse benchmark (see README.md)")
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
