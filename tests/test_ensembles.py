import os
import random
import subprocess
import sys
from fractions import Fraction as F

import jsonschema
import pytest

from plmorse import ensembles as ens
from plmorse import morse
from plmorse.complexes import build_complex, is_generic
from plmorse.geometry import rank
from plmorse.network import AffineLayer, Network, has_inactive_region, random_network

from draw_reference import snap_point


def two_relu_net():
    return Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    ))


def test_probability_formula_values():
    assert ens.plmorse_probability_formula(1, 3) == F(1, 2)
    assert ens.plmorse_probability_formula(2, 3) == F(1, 8)
    assert ens.plmorse_probability_formula(2, 5) == F(1, 2)
    assert ens.plmorse_probability_formula(3, 2) == 0
    assert ens.plmorse_probability_formula(2, 2) == 0
    with pytest.raises(ValueError):
        ens.plmorse_probability_formula(0, 3)


def test_probability_formula_range():
    for n in range(1, 5):
        for n1 in range(1, 12):
            p = ens.plmorse_probability_formula(n, n1)
            assert 0 <= p <= 1
            if n1 <= 2 * n + 1:
                assert p <= F(1, 2)
            if n1 == 2 * n + 1:
                assert p == F(1, 2)


def _within_four_sigma(summary, p: F) -> bool:
    diff = summary.empirical_rate - p
    return diff * diff * summary.trials <= 16 * p * (1 - p)


def test_montecarlo_plmorse_matches_formula():
    s = ens.montecarlo_plmorse(1, 3, 2000, 7)
    assert s.closed_form == F(1, 2)
    assert _within_four_sigma(s, F(1, 2))
    s = ens.montecarlo_plmorse(2, 3, 2000, 7)
    assert _within_four_sigma(s, F(1, 8))


def test_montecarlo_plmorse_impossible_case():
    for n, n1 in ((3, 2), (2, 2)):
        s = ens.montecarlo_plmorse(n, n1, 300, 1)
        assert s.successes == 0
        assert s.closed_form == 0


def test_montecarlo_determinism():
    a = ens.montecarlo_plmorse(2, 3, 100, 5)
    b = ens.montecarlo_plmorse(2, 3, 100, 5)
    assert a == b
    assert ens.summary_to_json(a) == ens.summary_to_json(b)
    c = ens.montecarlo_flat_cell((2, 3, 1), 100, 5)
    d = ens.montecarlo_flat_cell((2, 3, 1), 100, 5)
    assert c == d


@pytest.mark.parametrize("seed, counts", [(10000, (347, 131, 184, 65)),
                                          (20000, (328, 124, 145, 63))])
def test_montecarlo_successes_are_pinned(seed, counts):
    """Exact success counts of seeded runs: a changed draw order, draw
    rounding or trial decision moves them."""
    got = (
        ens.montecarlo_plmorse(3, 6, 1000, seed).successes,
        ens.montecarlo_flat_cell((3, 4, 4, 1), 1000, seed + 1).successes,
        ens.montecarlo_plmorse(2, 4, 500, seed, "uniform").successes,
        ens.montecarlo_flat_cell((2, 3, 1), 500, seed, "uniform").successes,
    )
    assert got == counts


@pytest.mark.parametrize("scheme", ["gaussian", "uniform"])
def test_trials_match_the_network_route(scheme):
    """Each integer trial decides as the public functions do on the
    Fraction network and point drawn with the same seed."""
    answers = set()
    for index in range(300):
        n, n1 = (2, 4) if index % 2 else (3, 6)
        net = random_network((n, n1, 1), ens.trial_seed(3, index), scheme)
        hit = ens._plmorse_trial(((n, n1, 1), 3, scheme, index))
        assert hit == (not has_inactive_region(net.layers[0])), index
        answers.add(hit)

        arch = (2, 3, 1) if index % 2 else (3, 4, 4, 1)
        s = ens.trial_seed(3, index)
        flat = ens.minimal_cell_is_flat(
            random_network(arch, s, scheme), ens.random_point(arch[0], s, scheme))
        assert ens._flat_trial((arch, 3, scheme, index)) == flat, index
        answers.add(("flat", flat))
    assert answers == {True, False, ("flat", True), ("flat", False)}


def test_trials_build_no_fraction():
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is F.__new__.__code__:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(watch)
    try:
        for index in range(20):
            ens._plmorse_trial(((3, 6, 1), 1, "gaussian", index))
            ens._flat_trial(((3, 4, 4, 1), 1, "uniform", index))
    finally:
        sys.setprofile(None)
    assert calls == []


def _pipeline_is_pl_morse(net) -> bool:
    cx = build_complex(net)
    if any(cx.cells[lab].dimension >= 1 for lab in cx.flat_labels):
        return False
    return all(v.kind != morse.DEGENERATE for v in morse.classify_vertices(cx))


def test_all_minus_decision_matches_pipeline():
    checked = 0
    seed = 0
    while checked < 8 and seed < 60:
        net = random_network((2, 3, 1), seed)
        seed += 1
        cx = build_complex(net)
        if not is_generic(net) or cx.transversality_witnesses:
            continue
        assert morse.is_pl_morse_depth2(net) == _pipeline_is_pl_morse(net)
        checked += 1
    assert checked == 8


def test_flat_cell_rates():
    s = ens.montecarlo_flat_cell((2, 1, 1), 1500, 7)
    assert s.bound == F(1, 2)
    assert _within_four_sigma(s, F(1, 2))
    s = ens.montecarlo_flat_cell((2, 3, 1), 1500, 7)
    assert s.bound == F(1, 8)
    assert float(s.empirical_rate) >= 1 / 8 - 4 * (1 / 8 * 7 / 8 / s.trials) ** 0.5


def test_minimal_cell_flatness_examples():
    net = two_relu_net()
    assert ens.minimal_cell_is_flat(net, (-1, -1)) is True
    assert ens.minimal_cell_is_flat(net, (1, 1)) is False
    assert ens.minimal_cell_is_flat(net, (0, 0)) is True
    assert ens.minimal_cell_is_flat(net, (1, -1)) is False
    deep = Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    ))
    assert ens.minimal_cell_is_flat(deep, (-1, -1)) is True
    assert ens.minimal_cell_is_flat(deep, (2, 3)) is False


def fraction_flat_walk(net, x) -> bool:
    """The rational layer walk, the reference for ``minimal_cell_is_flat``:
    the same decision with every row and value kept as a ``Fraction``."""
    n = net.n0
    x = tuple(F(v) for v in x)
    zero = F(0)
    rows = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    values = list(x)
    normals = []
    for layer in net.layers[:-1]:
        new_rows, new_values = [], []
        for wrow, b in zip(layer.weights, layer.bias):
            coeffs = tuple(
                sum(w * rows[k][j] for k, w in enumerate(wrow)) for j in range(n)
            )
            val = sum(w * values[k] for k, w in enumerate(wrow)) + b
            if val == 0:
                normals.append(coeffs)
            if val > 0:
                new_rows.append(coeffs)
                new_values.append(val)
            else:
                new_rows.append((zero,) * n)
                new_values.append(zero)
        rows, values = new_rows, new_values
    out = net.layers[-1].weights[0]
    gradient = tuple(sum(w * rows[k][j] for k, w in enumerate(out)) for j in range(n))
    return rank(normals + [gradient]) == rank(normals)


def test_flat_walk_matches_fraction_walk_on_walls():
    """Points on the walls of deep nets with non-dyadic weights, where the
    integer walk must collect the normals the rational walk does.  Random
    Monte Carlo points almost never land on a wall."""
    rng = random.Random(20221)
    scalars = [F(k, d) for k in range(-3, 4) for d in (1, 3)]
    wall_hits = deep_wall_hits = 0
    answers = set()
    for _ in range(600):
        n = rng.randint(1, 3)
        widths = [n] + [rng.randint(1, 3) for _ in range(rng.randint(2, 3))] + [1]
        layers = [
            AffineLayer.make(
                [[rng.choice(scalars) for _ in range(a)] for _ in range(b)],
                [rng.choice(scalars) for _ in range(b)],
                "none" if i == len(widths) - 2 else "relu",
            )
            for i, (a, b) in enumerate(zip(widths, widths[1:]))
        ]
        net = Network(tuple(layers))
        x = tuple(rng.choice(scalars) for _ in range(n))
        pre = net.evaluate(x)[1]
        got = ens.minimal_cell_is_flat(net, x)
        assert got == fraction_flat_walk(net, x), (net, x)
        if 0 in pre:
            wall_hits += 1
            deep_wall_hits += 0 in pre[widths[1]:]
            answers.add(got)
    assert wall_hits >= 100 and deep_wall_hits >= 50
    assert answers == {True, False}


@pytest.mark.parametrize("scheme", ["gaussian", "uniform"])
def test_random_point_matches_snapped_draws(scheme):
    for n in (1, 2, 3, 5):
        for seed in (0, 1, 7, 10004, 2**40 + 3):
            x = ens.random_point(n, seed, scheme)
            assert x == snap_point(n, seed, scheme)
            assert all(isinstance(v, F) for v in x)


def test_random_point_scheme_and_determinism():
    a = ens.random_point(3, 42)
    assert a == ens.random_point(3, 42)
    assert len(a) == 3
    assert a != ens.random_point(3, 43)
    u = ens.random_point(4, 1, scheme="uniform")
    assert all(-1 <= c <= 1 for c in u)
    with pytest.raises(ValueError, match="scheme"):
        ens.random_point(2, 1, scheme="cauchy")


def test_summary_json_and_schema():
    s = ens.montecarlo_plmorse(2, 3, 50, 9)
    doc = ens.summary_to_json(s)
    jsonschema.validate(doc, ens.TRIAL_SCHEMA)
    assert doc["closed_form"] == "1/8"
    assert doc["bound"] is None
    lo, hi = doc["confidence"]
    assert 0.0 <= lo <= float(s.empirical_rate) <= hi <= 1.0
    s = ens.montecarlo_flat_cell((2, 1, 1), 50, 9)
    doc = ens.summary_to_json(s)
    jsonschema.validate(doc, ens.TRIAL_SCHEMA)
    assert doc["closed_form"] is None
    assert doc["bound"] == "1/2"


def test_thread_env_var(monkeypatch):
    base = ens.montecarlo_plmorse(2, 3, 120, 11)
    flat = ens.montecarlo_flat_cell((2, 3, 1), 120, 11)
    monkeypatch.setenv("PLMORSE_THREADS", "2")
    assert ens.montecarlo_plmorse(2, 3, 120, 11) == base
    assert ens.montecarlo_flat_cell((2, 3, 1), 120, 11) == flat
    monkeypatch.setenv("PLMORSE_THREADS", "soon")
    with pytest.raises(ValueError, match="PLMORSE_THREADS"):
        ens.montecarlo_plmorse(2, 3, 10, 1)


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    """The pool starts all its workers at once, so PLMORSE_THREADS above the
    CPU count asks for no more; the executor here is a fake that only
    records its size and runs the trials in process."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    base = ens.montecarlo_plmorse(2, 3, 40, 11)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ens.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("PLMORSE_THREADS", "100000")
    assert ens.montecarlo_plmorse(2, 3, 40, 11) == base
    monkeypatch.setenv("PLMORSE_THREADS", "2")
    assert ens.montecarlo_plmorse(2, 3, 40, 11) == base
    monkeypatch.setattr(ens.os, "cpu_count", lambda: None)
    monkeypatch.setenv("PLMORSE_THREADS", "8")
    assert ens.montecarlo_plmorse(2, 3, 40, 11) == base
    assert sizes == [3, 2]


def test_cli_import_leaves_process_pool_unloaded():
    code = "import sys, plmorse.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_trial_validation():
    with pytest.raises(ValueError, match="trials"):
        ens.montecarlo_plmorse(2, 3, 0, 1)
    with pytest.raises(ValueError, match="hidden"):
        ens.montecarlo_flat_cell((2, 1), 10, 1)
