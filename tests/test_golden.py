"""Golden networks and reports: the constructions and the analyze report,
pinned byte for byte.

The fan and coarse-bound nets place tangency points with ``math.tan`` and the
random nets draw with ``random.gauss``; both are float-derived, so the stored
nets pin them.  The reports pin every measure ``analyze`` computes.
"""

import json
from pathlib import Path

import pytest

from plmorse.morse import analyze, report_to_json
from plmorse.network import (
    build_coarse_bound_network,
    build_fan_network,
    load_network,
    network_to_json,
    random_network,
)

GOLDEN = Path(__file__).parent / "golden"

NETS = {
    "fan1": lambda: build_fan_network(1),
    "fan2": lambda: build_fan_network(2),
    "coarse_bound4": lambda: build_coarse_bound_network(4),
    "random_2_3_1_seed3": lambda: random_network((2, 3, 1), 3),
    "random_2_2_2_1_seed5": lambda: random_network((2, 2, 2, 1), 5),
    "random_2_3_2_1_seed3": lambda: random_network((2, 3, 2, 1), 3),
    "random_3_3_1_seed10004": lambda: random_network((3, 3, 1), 10004),
}


def _dump(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(NETS))
def test_golden_network_construction(name):
    stored = (GOLDEN / f"{name}.net.json").read_text()
    assert _dump(network_to_json(NETS[name]())) == stored


@pytest.mark.parametrize("name", sorted(NETS))
def test_golden_report(name):
    net = load_network(GOLDEN / f"{name}.net.json")
    stored = (GOLDEN / f"{name}.report.json").read_text()
    assert _dump(report_to_json(analyze(net))) == stored
