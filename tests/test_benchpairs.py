"""The summary math of tools/benchpairs.py on canned runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


LOWER = {"better": "lower", "bound": 0.24}
HIGHER = {"better": "higher", "bound": 0.15}


def _run(seed, side, wall, ratio, failed=0, attempted=100):
    return {"workload": "w", "seed": seed, "side": side,
            "attempted": attempted, "failed": failed, "correct": not failed,
            "metrics": {"wall_s": wall, "decided_ratio": ratio}}


def test_summary_medians_quartiles_and_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 1.0]       # wins 3, ties 1, loses 1
    p_ratio = [0.9, 0.9, 0.8, 1.0, 0.7]
    c_ratio = [1.0, 0.9, 0.9, 0.9, 0.8]      # higher is better: wins 3
    runs = []
    for k, seed in enumerate(range(10, 15)):
        runs.append(_run(seed, "change", change[k], c_ratio[k],
                         attempted=90))
        runs.append(_run(seed, "parent", parent[k], p_ratio[k],
                         failed=k % 2))
    got = benchpairs.summarize(runs, {"wall_s": LOWER,
                                      "decided_ratio": HIGHER})["w"]
    assert got["seeds"] == [10, 11, 12, 13, 14]
    wall = got["wall_s"]
    assert wall["parent"] == {"median": 3.0, "n": 5, "quartiles": [2.0, 4.0]}
    assert wall["change"] == {"median": 2.0, "n": 5}
    assert wall["change_vs_parent"] == pytest.approx(-0.3333)
    assert wall["change_better_pairs"] == "3 of 5"
    assert wall["reading"] == "unresolved"  # parent spread 2/3
    ratio = got["decided_ratio"]
    assert ratio["parent"]["median"] == 0.9
    assert ratio["parent"]["quartiles"] == [0.8, 0.9]
    assert ratio["change_better_pairs"] == "3 of 5"
    assert got["failed"] == {"parent": 2, "change": 0}
    assert got["attempted"] == {"parent": 500, "change": 450}


def test_one_pair_has_its_value_as_both_quartiles():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 0.5, 1.0)]
    got = benchpairs.summarize(runs, {"wall_s": LOWER})["w"]["wall_s"]
    assert got["parent"] == {"median": 1.0, "n": 1, "quartiles": [1.0, 1.0]}
    assert got["change_better_pairs"] == "1 of 1"


def _reading(parent, change, metric, name="wall_s"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(seed, "parent", p, p), _run(seed, "change", c, c)]
    return benchpairs.summarize(runs, {name: metric})["w"][name]["reading"]


@pytest.mark.parametrize("parent, change, metric, reading", [
    # lower is better: a median 25% up is worse than the 0.24 bound
    ([1.0, 1.0, 1.01, 0.99], [1.25, 1.25, 1.26, 1.24], LOWER, "worse"),
    ([1.0, 1.0, 1.01, 0.99], [1.2, 1.2, 1.21, 1.19], LOWER, "not worse"),
    # higher is better: a median 20% down is worse than the 0.15 bound
    ([1.0, 1.0, 1.01, 0.99], [0.8, 0.8, 0.81, 0.79], HIGHER, "worse"),
    ([1.0, 1.0, 1.01, 0.99], [1.2, 1.2, 1.21, 1.19], HIGHER, "not worse"),
    # a parent spread of 0.5 over its median cannot resolve 0.24 ...
    ([1.0, 2.0, 1.5, 1.5, 1.0, 2.0], [1.4] * 6, LOWER, "unresolved"),
    # ... unless every change run beats every parent run
    ([1.0, 2.0, 1.5, 1.5, 1.0, 2.0], [0.9] * 6, LOWER, "not worse"),
    ([1.0, 2.0, 1.5, 1.5, 1.0, 2.0], [2.1] * 6, HIGHER, "not worse"),
    # worse is read before the spread
    ([1.0, 2.0, 1.5, 1.5, 1.0, 2.0], [2.0] * 6, LOWER, "worse"),
], ids=["lower-worse", "lower-within", "higher-worse", "higher-better",
        "spread", "spread-all-beat", "spread-all-beat-higher",
        "spread-and-worse"])
def test_each_metric_has_a_reading(parent, change, metric, reading):
    assert _reading(parent, change, metric) == reading


def test_seed_lists():
    assert benchpairs.parse_seeds("100-103,107") == [100, 101, 102, 103, 107]
    assert benchpairs.parse_seeds("5") == [5]


@pytest.mark.parametrize("value, flag", [("1", True), ("", False),
                                         (None, False)])
def test_machine_records_the_bytecode_state_of_the_runs(monkeypatch, value,
                                                        flag):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    got = benchpairs.machine()
    assert got["PYTHONDONTWRITEBYTECODE"] is flag
    assert got["cores"] >= 1
    assert got["python"].count(".") == 2
    assert set(got) == {"cores", "python", "sympy", "PYTHONDONTWRITEBYTECODE"}
