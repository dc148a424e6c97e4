"""One-off reference figures, outside the benchmark's timed runs.

    python3 perfbench/reference.py

Times program calls too slow for a benchmark pass, with run.py's own pass
and checks, each case in its own interpreter under a 300 s budget:
``analyze`` on the seed-3 random nets (3,6,1) and (4,6,1), and the
montecarlo pass serially and with PLMORSE_THREADS=2.  Prints one JSON line
per case; a case that outlives the budget is reported as a timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BUDGET_S = 300

CASES = [
    ("analyze (3,6,1) seed 3", {}, "3,6,1"),
    ("analyze (4,6,1) seed 3", {}, "4,6,1"),
    ("montecarlo pass, serial", {}, "montecarlo"),
    ("montecarlo pass, PLMORSE_THREADS=2", {"PLMORSE_THREADS": "2"}, "montecarlo"),
]


def _one(what: str) -> dict:
    """Make one pass of a case in this interpreter; return its call times."""
    import run

    cli = run.import_program()
    from plmorse.network import random_network, save_network

    import corpus

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if what == "montecarlo":
            ops = corpus.montecarlo_ops(1)
        else:
            arch = tuple(map(int, what.split(",")))
            net = str(work / "net.json")
            save_network(random_network(arch, corpus.REFERENCE_SEED), net)
            ops = [{"id": f"reference{what}", "kind": "analyze", "argv": ["analyze", net],
                    "net": net, "family": "reference", "param": list(arch)}]
        runner = run.Runner(cli, run.Workload({"ops": ops}, work))
        times = runner.one_pass()
        return {"seconds": sum(times.values()), "calls": times,
                "attempted": runner.attempted, "failed": runner.failed,
                "problems": runner.problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one-off reference figures")
    p.add_argument("--one", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(_one(args.one)))
        return 0
    for name, env, what in CASES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--one", what]
        child_env = {k: v for k, v in os.environ.items() if k != "PLMORSE_THREADS"}
        child_env.update(env)
        try:
            done = subprocess.run(cmd, env=child_env, capture_output=True, text=True,
                                  timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            print(json.dumps({"case": name, "timeout_s": BUDGET_S}))
            continue
        if done.returncode != 0:
            print(json.dumps({"case": name, "error": done.stderr.strip()[-300:]}))
            continue
        print(json.dumps({"case": name, **json.loads(done.stdout.splitlines()[-1])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
