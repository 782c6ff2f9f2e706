"""The decision ladder of gradlie.analysis: how the five ideal-lattice
questions (semiprime, prime, socle, minimal ideals, an absolute zero
divisor) are decided through one driver, _decide.

The field is chosen in the driver only, the entry points and the report
read their methods off the ladder, a step refuses only in its charge,
before any work, and the driver, not a step, holds the memo of every
step's answers, still charging the step on a memo hit.
"""

import ast
from pathlib import Path

import pytest

from gradlie import analysis
from gradlie.analysis import (
    absolute_zero_divisor_witness,
    graded_socle,
    is_prime,
    is_semiprime,
    is_strongly_nondegenerate,
    minimal_ideals,
    socle,
    structure_report,
)
from gradlie.enumeration import scan_blocks
from gradlie.errors import DimensionTooLarge, UndecidedError
from gradlie.gallery import heis3, sl2, sl2sum, sln_e11
from gradlie.lie import GradedLieAlgebra, direct_sum
from gradlie.scalars import GF, QQ

F5 = GF(5)

ENTRY_POINTS = ("is_semiprime", "is_prime", "socle", "graded_socle",
                "minimal_ideals", "_minimal_ideals",
                "absolute_zero_divisor_witness", "is_strongly_nondegenerate",
                "structure_report")

STEPS = [step for ladders in analysis._LADDERS.values()
         for ladder in ladders.values() for step in ladder]


def _functions():
    """{name: ast.FunctionDef} of the module-level functions of analysis."""
    tree = ast.parse(Path(analysis.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _field_reads(node):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == "p"]


@pytest.mark.parametrize("field, methods", [
    (QQ, ["killing-criterion", "centroid", "semisimple-identity",
          "killing-criterion"]),
    (F5, ["envelope-radical"] * 3 + ["exhaustive-Fp"])], ids=["Q", "F5"])
@pytest.mark.parametrize("budget", [None, 0])
def test_the_zero_algebra(field, methods, budget):
    a = GradedLieAlgebra(field, (), ())
    for graded in (False, True):
        assert is_semiprime(a, graded=graded, budget=budget) is True
        assert is_prime(a, graded=graded, budget=budget) is True
        assert analysis._minimal_ideals(a, graded, budget) == ()
        assert absolute_zero_divisor_witness(a, graded, budget) is None
        assert is_strongly_nondegenerate(a, graded, budget)
    assert socle(a, budget).dim == graded_socle(a, budget).dim == 0
    assert minimal_ideals(a, budget) == ()
    rep = structure_report(a, budget)
    assert (rep.semiprime, rep.prime, rep.strongly_nondegenerate,
            rep.socle_dim) == (True, True, True, 0)
    assert list(rep.methods) == ["semiprime", "prime", "socle",
                                 "strongly-nondegenerate"]
    assert list(rep.methods.values()) == methods


def test_a_zero_divisor_walk_is_memoized_and_still_charged(monkeypatch):
    walks = []

    def counted(alg, block, _inner=analysis.zero_divisors):
        walks.append(block)
        return _inner(alg, block)

    monkeypatch.setattr(analysis, "zero_divisors", counted)
    h = heis3(F5)
    assert not is_strongly_nondegenerate(h)
    assert absolute_zero_divisor_witness(h) is not None
    assert len(walks) == 1
    with pytest.raises(DimensionTooLarge):  # 31 points, budget 1
        absolute_zero_divisor_witness(h, budget=1)
    assert len(walks) == 1


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_leave_the_field_to_the_ladder(name):
    func = _functions()[name]
    reads = _field_reads(func)
    if name == "structure_report":
        # killing_det is a report field, not a decision
        kd = [n for n in ast.walk(func)
              if isinstance(n, ast.keyword) and n.arg == "killing_det"]
        assert len(kd) == 1 and len(_field_reads(kd[0])) == 1
        reads = [r for r in reads if r not in _field_reads(kd[0])]
    assert reads == []


def test_the_field_is_chosen_once_in_the_driver():
    assert len(_field_reads(_functions()["_decide"])) == 1


def test_the_report_reads_every_method_off_the_ladder():
    labels = {method for _, _, method in STEPS}
    assert labels == {"killing-criterion", "principal-ideal-probe",
                      "centroid", "semisimple-identity", "envelope-radical",
                      "norton-irreducibility", "norton-mod-p",
                      "exhaustive-Fp"}
    body = _functions()["structure_report"].body[1:]  # past the docstring
    literals = {n.value for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert not any(label in text for label in labels for text in literals)
    assert not any("certificate" in text for text in literals)


def test_no_step_touches_the_memo():
    functions = _functions()
    for _, run, _ in STEPS:
        names = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(functions[run.__name__])
                 if isinstance(n, (ast.Name, ast.Attribute))}
        assert not names & {"memo", "_memo"}, run.__name__


def _reached(name, functions):
    """The module-level functions of analysis that the named one calls by
    name, itself included, transitively."""
    seen, todo = set(), [name]
    while todo:
        fn = todo.pop()
        if fn in functions and fn not in seen:
            seen.add(fn)
            todo += [n.func.id for n in ast.walk(functions[fn])
                     if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name)]
    return seen


def test_a_step_refuses_only_in_its_charge():
    functions = _functions()
    for charge, run, _ in STEPS:
        for fn in _reached(run.__name__, functions):
            for n in ast.walk(functions[fn]):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                    assert n.func.id != "resolve_budget", (run.__name__, fn)
                if isinstance(n, ast.Raise):
                    raised = getattr(n.exc, "func", n.exc)  # a call or a name
                    assert getattr(raised, "id", None) not in (
                        "UndecidedError", "DimensionTooLarge"), (
                        run.__name__, fn)
        # a run reads the budget only to pass it on to a scan
        reads = [n for n in ast.walk(functions[run.__name__])
                 if isinstance(n, ast.Name) and n.id == "budget"]
        assert not reads or charge is scan_blocks, run.__name__


def test_the_centroid_refuses_before_any_commutant(monkeypatch):
    # sl2's centroid (2 generators of 3^4 cells) is within 2,000, sl3's (8^4
    # cells per generator) is not, and the charge sees both first
    def solved(*args):
        raise AssertionError("a commutant was solved for")

    monkeypatch.setattr(analysis, "_commutant", solved)
    a = direct_sum(sl2(), sln_e11(3))
    with pytest.raises(UndecidedError, match="^the centroid of dimension 8 "
                                             "is over the budget$"):
        analysis._decide(a, "minimal", budget=2000)


def test_the_q_steps_are_memoized_and_still_charged(monkeypatch):
    solved = []
    commutant = analysis._commutant
    monkeypatch.setattr(analysis, "_commutant",
                        lambda *args: solved.append(args) or commutant(*args))
    a = direct_sum(sl2sum(), sln_e11(3))
    for _ in range(3):
        assert sorted(m.dim for m in minimal_ideals(a)) == [3, 3, 8]
    assert len(solved) == 3  # one centroid per summand, once
    with pytest.raises(UndecidedError, match="^the centroid of dimension 8 "
                                             "is over the budget$"):
        analysis._decide(a, "minimal", budget=2000)
    assert len(solved) == 3

    # the probe's split is found once, plain or graded
    b = sln_e11(3)
    structure_report(b)
    closures = []
    generated = GradedLieAlgebra.ideal_generated
    monkeypatch.setattr(GradedLieAlgebra, "ideal_generated",
                        lambda alg, vectors: closures.append(vectors)
                        or generated(alg, vectors))
    assert is_prime(b) and is_prime(b, graded=True)
    assert closures == []
