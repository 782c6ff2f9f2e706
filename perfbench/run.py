"""Time-to-verdict benchmark for gradlie.

    python3 perfbench/run.py --workload q-exact --seed 1 --seconds 35 --trace 0

Run from the repository root.  A run makes passes until ``--seconds`` is
spent (at least two): each pass generates the seeded inputs of both input
classes in a fresh interpreter and asks the workload's fixed question
list once per class, checking every answer against perfbench/expected.py.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes on the seed's first inputs and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import expected  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
RUN_LIMIT_S = 150          # stop starting passes past this, whatever --seconds
PROCESS_TIMEOUT_S = 120
STARTUP_PROBES = 3
HASH_SEED = "0"            # pinned for the child processes

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "sparse_wall_s": "s",
    "dense_wall_s": "s", "decided_ratio": "ratio", "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics but not in the JSON result, so not
# bounded: each rests on a few questions (the median fp-scan question
# takes well under a millisecond; the fp-scan tail is the second fastest
# of twelve scans), and their run-to-run spread on a shared machine came
# close to or above the largest allowed bound
INFO = {"verdict_p50_s": "s", "verdict_tail_s": "s"}

# every span the tracer records; rref is split by field
_SPANNED = list(tracer.SPANS) + [
    "linalg.rref_q", "linalg.rref_p", "enumeration.distinct_principal_ideals"]
_WITH_CALLS = {"cli.main", "serialize.parse_algebra", "lie.validate",
               "linalg.rref_q", "linalg.rref_p", "analysis.killing_matrix",
               "derivations.derivation_space"}
# per-layer metrics read from the tracer's counters rather than its spans
_COUNTERS = {"lie.ad_matrix.calls": "count",
             "linalg.rref_q.cells": "count", "linalg.rref_p.cells": "count",
             "enumeration.points_scanned": "count",
             "enumeration.closures": "count",
             "enumeration.distinct_ideals": "count",
             "enumeration.budget_refusals": "count",
             "jordan.pair_scan.points": "count"}

PER_LAYER = {"startup.import_s": "s", "startup.import_sympy_s": "s",
             "startup.import_numpy_s": "s"}
for _s in _SPANNED:
    if _s in _WITH_CALLS:
        PER_LAYER[_s + ".calls"] = "count"
    PER_LAYER[_s + ".self_s"] = "s"
PER_LAYER.update(_COUNTERS)
PER_LAYER.update({"enumeration.useful_ratio": "ratio",
                  "enumeration.closures_per_s": "1/s",
                  "trace.overhead_ratio": "ratio",
                  "trace.unattributed_s": "s"})


# -- environment -------------------------------------------------------------


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "gradlie", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "gradlie_commit": git_commit(root),
            "gradlie_src_sha256": source_digest(root),
            "budget": workloads.BUDGET, "pythonhashseed": HASH_SEED}


def machine_reference():
    """Seconds for a fixed pure-Python loop, best of three: how fast the
    machine runs at the moment.  Printed beside the results to read
    run-to-run noise; never a metric."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def child_env(root):
    env = dict(os.environ)
    env.pop("GRADLIE_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


# -- statistics --------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolated q-th percentile (the 'inclusive' definition)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(workload):
    """Highest whole percentile with at least ten questions beyond it in
    the smallest run, MIN_PASSES passes; fixed per workload so that runs
    of different length report the same percentile."""
    n = MIN_PASSES * sum(len(workloads.questions(workload, c))
                         for c in workloads.CLASSES)
    return int(100 * (1 - 10.0 / n))


# -- one pass ----------------------------------------------------------------


class Runner:
    """Runs the passes of one benchmark invocation in a scratch directory
    inside the checkout."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.env = child_env(root)
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.worker = os.path.join(HERE, "worker.py")
        self.count = 0

    def path(self, name):
        self.count += 1
        return os.path.join(self.tmp, "%d_%s" % (self.count, name))

    def run(self, argv, timeout=PROCESS_TIMEOUT_S):
        return subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def api_pass(self, pass_index, traced):
        out = self.path("result.json")
        spans = self.path("spans.bin") if traced else None
        argv = [sys.executable, self.worker, "api", "--workload",
                self.workload, "--seed", str(self.seed), "--pass-index",
                str(pass_index), "--out", out]
        if spans:
            argv += ["--trace", spans]
        t_spawn = time.monotonic()
        proc = self.run(argv)
        if proc.returncode != 0:
            raise RuntimeError("worker failed:\n" + proc.stderr[-2000:])
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        qs = res["questions"]
        return {"setup": res["t_first"] - t_spawn,
                "walls": res["walls"], "questions": qs,
                "trace": [spans] if spans else []}

    def cli_pass(self, pass_index, traced):
        d = self.path("files")
        t0 = time.monotonic()
        proc = self.run([sys.executable, self.worker, "gen", "--seed",
                         str(self.seed), "--pass-index", str(pass_index),
                         "--dir", d])
        setup = time.monotonic() - t0
        if proc.returncode != 0:
            raise RuntimeError("input generation failed:\n"
                               + proc.stderr[-2000:])
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        walls, done, spans = {}, [], []
        for cls in workloads.CLASSES:
            t_cls = time.monotonic()
            for cmd, inst, mark, fld in workloads.CLI_GALLERY:
                name = workloads.cli_file_name(cls, inst, mark, fld)
                argv = cmd.split() + ["--format", "json", "--budget",
                                      str(workloads.BUDGET),
                                      os.path.join(d, name)]
                t_q = time.monotonic()
                if traced:
                    out, sp = self.path("cli.json"), self.path("spans.bin")
                    proc = self.run([sys.executable, self.worker, "cli",
                                     "--out", out, "--trace", sp, "--"]
                                    + argv)
                    secs = time.monotonic() - t_q
                    if proc.returncode != 0:
                        raise RuntimeError("traced CLI worker failed:\n"
                                           + proc.stderr[-2000:])
                    with open(out, encoding="utf-8") as fh:
                        res = json.load(fh)
                    spans.append(sp)
                    outcome = {"exit": res["exit"], "stdout": res["stdout"],
                               "stderr": res["stderr"]}
                else:
                    proc = self.run([sys.executable, "-m", "gradlie"] + argv)
                    secs = time.monotonic() - t_q
                    outcome = {"exit": proc.returncode, "stdout": proc.stdout,
                               "stderr": proc.stderr}
                done.append((cls, cmd, inst, mark, fld, name, secs, outcome))
            walls[cls] = time.monotonic() - t_cls
        questions = []
        for cls, cmd, inst, mark, fld, name, secs, outcome in done:
            q = workloads.qid("cli:" + cmd, inst, mark, fld)
            want, _why = expected.EXPECTED[q]
            ctx = check.Context(**manifest[name])
            status, message = check.check_cli(cmd, want, outcome, ctx)
            questions.append({"qid": q, "cls": cls, "seconds": secs,
                              "outcome": outcome, "status": status,
                              "message": message, "crashed": False})
        return {"setup": setup, "walls": walls, "questions": questions,
                "trace": spans}

    def one_pass(self, pass_index, traced):
        if self.workload == "cli-gallery":
            return self.cli_pass(pass_index, traced)
        return self.api_pass(pass_index, traced)

    def startup_probe(self):
        """(wall of python -c 'import gradlie', sympy s, numpy s)."""
        walls, sym, num = [], [], []
        for _ in range(STARTUP_PROBES):
            t0 = time.monotonic()
            self.run([sys.executable, "-c", "import gradlie"])
            walls.append(time.monotonic() - t0)
            proc = self.run([sys.executable, "-X", "importtime", "-c",
                             "import gradlie"])
            cum = {}
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$",
                             line)
                if m:
                    cum[m.group(2)] = int(m.group(1)) / 1e6
            sym.append(cum.get("sympy", 0.0))
            num.append(cum.get("numpy", 0.0))
        return (statistics.median(walls), statistics.median(sym),
                statistics.median(num))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass


# -- metrics -----------------------------------------------------------------


def end_to_end(workload, passes):
    times = [q["seconds"] for p in passes for q in p["questions"]]
    qs = [q for p in passes for q in p["questions"]]
    decided = sum(1 for q in qs
                  if q["status"] != check.UNDECIDED and not q["crashed"])
    level = tail_level(workload)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": percentile(times, level),
        "setup_s": statistics.median(p["setup"] for p in passes),
        "wall_s": statistics.median(sum(p["walls"].values()) for p in passes),
        "sparse_wall_s": statistics.median(p["walls"]["sparse"]
                                           for p in passes),
        "dense_wall_s": statistics.median(p["walls"]["dense"] for p in passes),
        "decided_ratio": decided / len(qs),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"verdict_p50_s": "median of %d questions (not bounded)"
             % len(times),
             "verdict_tail_s": "p%d of %d questions (%d beyond it), %d passes"
             % (level, len(times),
                sum(1 for t in times if t > metrics["verdict_tail_s"]),
                len(passes))}
    return metrics, notes


def layer_summary(spans):
    """Calls, self time, inclusive time and counters over span files."""
    calls, self_s, total, counts = {}, {}, {}, {}
    for path in spans:
        c, s, t, n = tracer.summarize(path)
        for dst, src in ((calls, c), (self_s, s), (total, t), (counts, n)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return calls, self_s, total, counts


def per_layer(traced, untraced, startup):
    """Per-layer metrics: medians over traced passes."""
    rows = []
    for p in traced:
        calls, self_s, total, counts = layer_summary(p["trace"])
        wall = sum(p["walls"].values())
        m = {}
        for name in PER_LAYER:
            base, _, leaf = name.rpartition(".")
            if name in _COUNTERS:
                m[name] = counts.get(name, 0)
            elif leaf == "calls":
                m[name] = calls.get(base, 0)
            elif leaf == "self_s" and base in _SPANNED:
                m[name] = self_s.get(base, 0.0)
        closures = m["enumeration.closures"]
        scan_s = total.get("enumeration.distinct_principal_ideals", 0.0)
        m["enumeration.useful_ratio"] = (
            m["enumeration.distinct_ideals"] / closures if closures else 0.0)
        m["enumeration.closures_per_s"] = closures / scan_s if scan_s else 0.0
        m["trace.unattributed_s"] = wall - sum(self_s.values())
        m["_wall"] = wall
        rows.append(m)
    out = {name: statistics.median(r[name] for r in rows)
           for name in rows[0] if name != "_wall"}
    traced_wall = statistics.median(r["_wall"] for r in rows)
    untraced_wall = statistics.median(sum(p["walls"].values())
                                      for p in untraced)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["startup.import_s"], out["startup.import_sympy_s"], \
        out["startup.import_numpy_s"] = startup
    return out


# -- main --------------------------------------------------------------------


def measure(runner, seconds, trace):
    """(untraced passes, traced passes, startup probe or None)."""
    t0 = time.monotonic()
    untraced, traced, startup = [], [], None
    if trace:
        startup = runner.startup_probe()
    longest = 0.0
    while True:
        t_p = time.monotonic()
        if trace:
            # untraced and traced passes alternate, untraced first and last,
            # all on the seed's first inputs: traced counts repeat exactly
            # and a drift in machine speed cancels in the overhead ratio
            is_traced = len(untraced) > len(traced)
            (traced if is_traced else untraced).append(
                runner.one_pass(0, is_traced))
            done = traced and len(untraced) == len(traced) + 1
        else:
            untraced.append(runner.one_pass(len(untraced), False))
            done = len(untraced) >= MIN_PASSES
        longest = max(longest, time.monotonic() - t_p)
        elapsed = time.monotonic() - t0
        if done and (elapsed > RUN_LIMIT_S or elapsed + longest > seconds):
            return untraced, traced, startup


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gradlie", "cli.py")):
        print("perfbench: run from the repository root; src/gradlie is "
              "missing under %s" % root, file=sys.stderr)
        return 2

    env = environment(root)
    print("environment " + json.dumps(env, sort_keys=True))
    ref_before = machine_reference()
    runner = Runner(root, args.workload, args.seed)
    try:
        # one unmeasured warm-up process: byte-compiles and warms the cache
        warm = runner.run([sys.executable, runner.worker, "warmup"])
        if warm.returncode != 0:
            print("perfbench: warm-up failed:\n" + warm.stderr[-2000:],
                  file=sys.stderr)
            return 2
        untraced, traced, startup = measure(runner, args.seconds, args.trace)
        if args.trace:
            metrics = per_layer(traced, untraced, startup)
            units, notes = PER_LAYER, {}
        else:
            metrics, notes = end_to_end(args.workload, untraced)
            units = END_TO_END
    finally:
        runner.close()
    print("machine_ref_s before %.4f after %.4f" % (ref_before,
                                                   machine_reference()))

    qs = [q for p in untraced + traced for q in p["questions"]]
    failed = [q for q in qs if q["status"] == check.FAILED]
    for q in failed:
        print("FAILED %s [%s]: %s" % (q["qid"], q["cls"], q["message"]))
    for q in sorted({q["qid"] + ": " + q["message"] for q in qs
                     if q["status"] == check.UNDECIDED}):
        print("undecided " + q)
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print("%s pass setup/wall s: %s" % (kind, ", ".join(
                "%.3f/%.3f" % (p["setup"], sum(p["walls"].values()))
                for p in passes)))
    print("workload %s seed %d: %d passes, %d questions, %d failed "
          "(failed_ratio %.4f), %d undecided"
          % (args.workload, args.seed, len(untraced) + len(traced), len(qs),
             len(failed), len(failed) / len(qs),
             sum(1 for q in qs if q["status"] == check.UNDECIDED)))
    for name, unit in list(units.items()) + [
            (n, u) for n, u in INFO.items() if n in metrics]:
        print("%-48s %14.6f %-6s %s" % (name, metrics[name], unit,
                                         notes.get(name, "")))
    print(json.dumps({
        "correct": not failed, "attempted": len(qs), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
