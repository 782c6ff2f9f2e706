"""Tests of the benchmark itself: generator, tracer and checker.

    python -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

import gradlie
from gradlie import gallery

import check
import expected
import inputs
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")


def _env():
    env = dict(os.environ)
    env.pop("GRADLIE_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run(argv):
    return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=300)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["sl2", "heis3", "sl2sum"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cls", workloads.CLASSES)
def test_generator_preserves_verdicts(name, seed, cls):
    want = expected.EXPECTED["structure_report:%s:Q" % name][0]
    alg = inputs.generate(name, "Q", cls, seed).obj
    assert gradlie.is_semiprime(alg) == want["semiprime"]
    assert gradlie.is_prime(alg) == want["prime"]
    assert alg.center().dim == want["center_dim"]
    f5 = inputs.generate(name, "F5", cls, seed).obj
    assert gradlie.is_semiprime(f5) == \
        expected.EXPECTED["is_semiprime:%s:F5" % name][0]


def test_seed_zero_is_the_gallery_table():
    for cls in workloads.CLASSES:
        assert inputs.generate("sl2sum", "Q", cls, 0).obj == gallery.sl2sum()


def test_sparse_keeps_nonzero_count_and_marks_follow():
    gal = gallery.p_mod_i()
    inst = inputs.generate("p_mod_i", "Q", "sparse", 3)
    assert inputs.nonzeros(inst.obj.table) == inputs.nonzeros(gal.table)
    small = inst.marks["small"]
    assert small.dim == 6 and inst.obj.is_subalgebra(small)


# -- traced and untraced runs ------------------------------------------------

ONLY = ["structure_report:heis3:Q", "maximal_quotients:sl2:Q",
        "check_axiomatic_graded:sl2:Q", "is_quotient_graded:p_mod_i:small:Q",
        "is_semiprime:sl2sum:F5", "is_strongly_nondegenerate:heis3:F5",
        "pair_is_semiprime:pair_padded:F5", "socle:sl4:F5"]


def _api(tmp_path, workload, traced):
    out = str(tmp_path / ("%s-%d.json" % (workload, traced)))
    argv = [sys.executable, WORKER, "api", "--workload", workload,
            "--seed", "5", "--out", out, "--only"] + ONLY
    if traced:
        argv += ["--trace", str(tmp_path / ("%s.bin" % workload))]
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return json.load(fh)["questions"]


@pytest.mark.parametrize("workload", ["q-exact", "fp-scan"])
def test_traced_and_untraced_answers_are_identical(tmp_path, workload):
    plain = _api(tmp_path, workload, False)
    traced = _api(tmp_path, workload, True)
    assert plain and [q["qid"] for q in plain] == [q["qid"] for q in traced]
    for a, b in zip(plain, traced):
        assert json.dumps(a["outcome"], sort_keys=True) == \
            json.dumps(b["outcome"], sort_keys=True)
        assert a["status"] == b["status"] != check.FAILED


def test_traced_cli_output_is_byte_identical(tmp_path):
    proc = _run([sys.executable, WORKER, "gen", "--seed", "5", "--dir",
                 str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    path = str(tmp_path / workloads.cli_file_name("dense", "p_mod_i", "small", "Q"))
    argv = ["check-quotient", "--graded", "--format", "json", path]
    plain = _run([sys.executable, "-m", "gradlie"] + argv)
    out = str(tmp_path / "cli.json")
    proc = _run([sys.executable, WORKER, "cli", "--out", out, "--trace",
                 str(tmp_path / "cli.bin"), "--"] + argv)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        traced = json.load(fh)
    assert traced["exit"] == plain.returncode == 1
    assert traced["stdout"] == plain.stdout


# -- checker -----------------------------------------------------------------


def _ctx(inst):
    from worker import context_json
    return check.Context(**context_json(inst))


def test_checker_flags_a_wrong_expected_entry():
    inst = inputs.generate("heis3", "F5", "dense", 4)
    outcome = {"answer": gradlie.is_semiprime(inst.obj)}
    want = expected.EXPECTED["is_semiprime:heis3:F5"][0]
    assert check.check_api("is_semiprime", want, outcome, _ctx(inst))[0] == \
        check.OK
    assert check.check_api("is_semiprime", not want, outcome,
                           _ctx(inst))[0] == check.FAILED


def test_checker_flags_a_witness_outside_the_expected_subspace():
    inst = inputs.generate("p_mod_i", "Q", "dense", 4)
    v = gradlie.is_quotient(gradlie.QuotientEmbedding(
        inst.obj, inst.marks["small"]), graded=True)
    outcome = {"answer": {"value": v.value,
                          "witness": [str(c) for c in v.witness]}}
    want = dict(expected.EXPECTED["is_quotient_graded:p_mod_i:small:Q"][0])
    assert check.check_api("is_quotient_graded", want, outcome,
                           _ctx(inst))[0] == check.OK
    want["witness_in"] = [0, 1, 2, 3]
    assert check.check_api("is_quotient_graded", want, outcome,
                           _ctx(inst))[0] == check.FAILED


def test_checker_flags_a_wrong_exit_code():
    ctx = check.Context({"P": [["1"]]})
    outcome = {"exit": 0, "stdout": json.dumps({"verdict": "true"}),
               "stderr": ""}
    want = {"exit": 1, "json": {"verdict": "false"}}
    assert check.check_cli("check-quotient", want, outcome, ctx)[0] == \
        check.FAILED


# -- budget ------------------------------------------------------------------


def test_over_budget_question_is_undecided_not_failed():
    inst = inputs.generate("sl4", "F5", "sparse", 1)
    with pytest.raises(gradlie.errors.DimensionTooLarge) as err:
        gradlie.is_semiprime(inst.obj, budget=workloads.BUDGET)
    outcome = {"error": type(err.value).__name__, "message": str(err.value)}
    want = expected.EXPECTED["is_semiprime:sl4:F5"][0]
    assert check.check_api("is_semiprime", want, outcome, _ctx(inst)) == \
        (check.UNDECIDED, "DimensionTooLarge")


def test_cli_budget_refusal_is_undecided(tmp_path):
    path = str(tmp_path / "heis3.json")
    with open(path, "w") as fh:
        fh.write(gradlie.serialize_algebra(gallery.heis3(gradlie.GF(5))))
    proc = _run([sys.executable, "-m", "gradlie", "analyze", "--budget", "5",
                 "--format", "json", path])
    outcome = {"exit": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr}
    want = expected.EXPECTED["cli:analyze:heis3:F5"][0]
    status, _msg = check.check_cli("analyze", want, outcome,
                                   check.Context({"P": [["1"]]}))
    assert proc.returncode in (2, 3) and status == check.UNDECIDED


# -- consistency -------------------------------------------------------------


def test_every_question_has_an_expected_answer():
    asked = {workloads.qid(*q) for w in workloads.WORKLOADS
             for c in workloads.CLASSES for q in workloads.questions(w, c)}
    assert asked == set(expected.EXPECTED)


def test_benchmark_json_lists_the_printed_metrics():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
