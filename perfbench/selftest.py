"""Show that the benchmark's output checks catch wrong answers.

    python3 perfbench/selftest.py

Each case takes a correct program output, confirms the check passes it, then
corrupts it the way a faulty program might and confirms the check rejects
it.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plmorse.ensembles import montecarlo_plmorse, summary_to_json  # noqa: E402
from plmorse.morse import analyze, report_to_json  # noqa: E402
from plmorse.network import (  # noqa: E402
    build_coarse_bound_network,
    build_fan_network,
    network_to_json,
    random_network,
)

import checks  # noqa: E402


def _bump_rank(report):
    rec = report["components"][0]
    rec["ranks"] = rec["ranks"][:-1] + [rec["ranks"][-1] + 1] if rec["ranks"] else [1]
    rec["total"] += 1
    report["global_h_complexity"] += 1


def _bump_coarse(report):
    report["coarse"]["sublevel"][-1] -= 1


def _flip_vertex(report):
    v = next(v for v in report["vertices"] if v["class"] == "Regular")
    v["class"], v["index"] = "NondegenerateCritical", 0


def _shift_level(report):
    rec = report["components"][0]
    rec["level"] = str(Fraction(rec["level"]) + 1)
    report["thresholds"] = sorted({r["level"] for r in report["components"]}, key=Fraction)


def main() -> int:
    bad = []

    def case(name, problems, want_caught):
        ok = bool(problems) == want_caught
        verdict = "caught" if problems else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        if not ok:
            bad.append(name)

    nets = [
        ("fan(1)", build_fan_network(1), "fan", 1),
        ("coarse-bound(4)", build_coarse_bound_network(4), "coarse", 4),
        ("random (2,3,1) seed 3", random_network((2, 3, 1), 3), "random", [2, 3, 1]),
    ]
    for name, net, family, param in nets:
        layers = checks.parse_network(network_to_json(net))
        report = report_to_json(analyze(net))
        case(f"{name} report", checks.check_report(report, layers, family, param), False)
        corruptions = [("one local rank bumped", _bump_rank), ("a local level moved", _shift_level)]
        if family == "coarse":
            corruptions.append(("coarse sublevel rank lowered", _bump_coarse))
        if report["vertices"] and any(v["class"] == "Regular" for v in report["vertices"]):
            corruptions.append(("a regular vertex called a minimum", _flip_vertex))
        for what, corrupt in corruptions:
            wrong = copy.deepcopy(report)
            corrupt(wrong)
            case(f"{name}, {what}", checks.check_report(wrong, layers, family, param), True)

    doc = {"mode": "sublevel", "betti": [2], "margin": "1/24"}
    case("oracle Betti numbers", checks.check_oracle(doc, "sublevel", (2,)), False)
    case("oracle Betti number off by one", checks.check_oracle(doc, "sublevel", (1,)), True)
    case("oracle margin zero", checks.check_oracle(dict(doc, margin="0/1"), "sublevel", (2,)), True)

    arch, trials = (3, 6, 1), 1000
    summary = summary_to_json(montecarlo_plmorse(3, 6, trials, 1))
    case("Monte Carlo PL Morse count", checks.check_montecarlo(summary, "plmorse", arch, trials), False)
    far = dict(summary, successes=summary["successes"] + 100)
    case("Monte Carlo count far from the closed form",
         checks.check_montecarlo(far, "plmorse", arch, trials), True)
    flat = {"kind": "flat_cell", "architecture": [3, 4, 4, 1], "trials": trials,
            "successes": 20, "closed_form": None, "bound": "1/16"}
    case("flat-cell rate far below 2^-n_m",
         checks.check_montecarlo(flat, "flat_cell", (3, 4, 4, 1), trials), True)

    print(f"{'all cases behaved' if not bad else f'{len(bad)} case(s) went wrong'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
