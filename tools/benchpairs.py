"""Run the benchmark on two commits in alternating pairs and summarize.

    python tools/benchpairs.py PARENT CHANGE --workload fp-scan \\
        --seeds 100-109 --out pairs.json

Run from the root of the repository.  Each commit is unpacked once with
``git archive`` into a scratch directory.  For each workload and seed,
both sides run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from the root of their copy, after ``__pycache__`` and ``.perfbench_tmp``
are removed from it; the parent goes first on the even pairs of the seed
list, the change on the odd ones.  T is BENCHMARK.json's ``run_seconds``,
so every pair runs at the length the benchmark sets.  The last line a run
prints is its JSON result; a run that fails stops the tool, so every seed
has both sides.  The output file holds ``command``, ``machine``, ``protocol``,
``summary`` and ``runs`` in the shape of the BENCH_*.json records: the
cores, the Python and sympy versions and whether the runs write bytecode
(see ``machine``); for each end-to-end
metric of BENCHMARK.json, each side's median, the parent's quartiles
(inclusive method), the relative change of the medians, the pairs the
change wins (ties count for neither side) and a reading against the
metric's bound (see ``summarize``), and the failed and attempted
questions of each side.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text):
    """'100-103,107' -> [100, 101, 102, 103, 107]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def end_to_end():
    """({metric: its entry, with "better" and "bound"}, the whole
    document) of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in doc["end_to_end"]}, doc


def machine():
    """What the runs ran on.  Each run inherits this process's
    environment, and with PYTHONDONTWRITEBYTECODE set every process it
    starts compiles src/gradlie again, which cli-gallery's wall_s
    counts."""
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "missing"
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy, "PYTHONDONTWRITEBYTECODE": bool(
                os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def unpack(commit, dest):
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def clean(copy):
    for cache in list(copy.rglob("__pycache__")) + [copy / ".perfbench_tmp"]:
        shutil.rmtree(cache, ignore_errors=True)


def run_once(copy, workload, seed, seconds):
    """The parsed result line of one benchmark run in a copy."""
    clean(copy)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d):\n%s" % (
            " ".join(cmd), out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def run_record(workload, seed, side, result):
    return {"workload": workload, "seed": seed, "side": side,
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: round(v["value"], 6)
                        for k, v in result["metrics"].items()}}


def summarize(runs, metrics):
    """{workload: summary} of run records; metrics maps each end-to-end
    metric to its "better" direction ("lower" or "higher") and its
    relative "bound".  A metric reads "worse" when the change's median is
    worse than the parent's by more than the bound; else "unresolved"
    when the parent's interquartile spread over its median exceeds the
    bound, unless every change run beats every parent run; else "not
    worse"."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = list(dict.fromkeys(r["seed"] for r in mine))
        by = {(r["seed"], r["side"]): r for r in mine}
        block = {"seeds": seeds}
        for name, metric in metrics.items():
            sign, bound = (1 if metric["better"] == "lower" else -1,
                           metric["bound"])

            def beats(c, p):
                return sign * (c - p) < 0

            vals = {side: [by[s, side]["metrics"][name] for s in seeds]
                    for side in SIDES}
            med = {side: statistics.median(v) for side, v in vals.items()}
            parent, change = vals["parent"], vals["change"]
            wins = sum(beats(c, p) for p, c in zip(parent, change))
            # one pair: both quartiles are its value
            q1, _, q3 = statistics.quantiles(
                parent * 2 if len(parent) == 1 else parent, n=4,
                method="inclusive")
            rel = med["change"] / med["parent"] - 1
            if sign * rel > bound:
                reading = "worse"
            elif (q3 - q1) / med["parent"] > bound and not all(
                    beats(c, p) for c in change for p in parent):
                reading = "unresolved"
            else:
                reading = "not worse"
            block[name] = {
                "parent": {"median": round(med["parent"], 6),
                           "n": len(seeds),
                           "quartiles": [round(q1, 6), round(q3, 6)]},
                "change": {"median": round(med["change"], 6),
                           "n": len(seeds)},
                "change_vs_parent": round(rel, 4),
                "change_better_pairs": "%d of %d" % (wins, len(seeds)),
                "reading": reading,
            }
        for count in ("failed", "attempted"):
            block[count] = {side: sum(by[s, side][count] for s in seeds)
                            for side in SIDES}
        out[workload] = block
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("change", help="the changed commit")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; may be repeated")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seeds, as 100-109 or 100,102")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    metrics, bench = end_to_end()
    seconds = bench["run_seconds"]
    commits = {side: subprocess.run(
        ["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.strip()
        for side, commit in zip(SIDES, (args.parent, args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            unpack(commits[side], copies[side])
        for workload in args.workload:
            for k, seed in enumerate(args.seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result = run_once(copies[side], workload, seed, seconds)
                    runs.append(run_record(workload, seed, side, result))
                    print("%s seed %d %s: wall_s %.4f, %d failed" % (
                        workload, seed, side,
                        result["metrics"]["wall_s"]["value"],
                        result["failed"]), flush=True)
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds %g --trace 0 (from the root of a git archive "
                   "copy of each side; __pycache__ and .perfbench_tmp "
                   "removed before each run)" % seconds,
        "machine": machine(),
        "protocol": "pairs at seeds %s; parent first on even pairs, change "
                    "first on odd pairs; medians over the runs of each side, "
                    "quartiles of the parent's runs (inclusive method)"
                    % ",".join(map(str, args.seeds)),
        "commits": commits,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
