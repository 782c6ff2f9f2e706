"""How each question kind calls gradlie, and how its result is recorded.

``ask`` makes exactly the public call being timed; ``record`` turns the
result into a JSON value afterwards, outside the timed region.  Functions
are looked up on the ``gradlie`` package at call time, so a traced run
that rebinds them is seen here too.
"""

from __future__ import annotations

from fractions import Fraction

import gradlie

from workloads import BUDGET


def _rank(field, rows):
    """Rank by exact elimination, independent of gradlie.linalg."""
    p = field.p
    rows = [[Fraction(x) for x in r] for r in rows]
    if p is not None:
        rows = [[Fraction(int(x) % p) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                k = rows[i][c] / top[c]
                rows[i] = [x - k * y for x, y in zip(rows[i], top)]
                if p is not None:
                    rows[i] = [Fraction(x.numerator * pow(x.denominator, -1, p)
                                        % p) for x in rows[i]]
        rank += 1
    return rank


def _embedding(inst, extra):
    return gradlie.QuotientEmbedding(inst.obj, inst.marks[extra])


def _axiomatic(inst, graded):
    mq = gradlie.maximal_quotients(inst.obj, graded=graded, budget=BUDGET)
    emb = gradlie.QuotientEmbedding(mq.algebra, list(mq.embedding))
    return gradlie.check_axiomatic(emb, budget=BUDGET)


def _round_trip(inst):
    lie = gradlie.tkk(inst.obj)
    return inst.obj, gradlie.associated_pair(lie, budget=BUDGET)


def _predicate(name, graded):
    return lambda inst, extra: getattr(gradlie, name)(
        inst.obj, graded=graded, budget=BUDGET)


def _ideal_predicate(graded):
    return lambda inst, extra: gradlie.is_essential_ideal(
        inst.obj, inst.marks[extra], graded=graded, budget=BUDGET)


def _decider(name, graded):
    return lambda inst, extra: getattr(gradlie, name)(
        _embedding(inst, extra), graded=graded, budget=BUDGET)


ASK = {
    "structure_report": lambda inst, extra: gradlie.structure_report(
        inst.obj, budget=BUDGET),
    "maximal_quotients": lambda inst, extra: gradlie.maximal_quotients(
        inst.obj, graded=False, budget=BUDGET),
    "maximal_quotients_graded": lambda inst, extra: gradlie.maximal_quotients(
        inst.obj, graded=True, budget=BUDGET),
    "check_axiomatic": lambda inst, extra: _axiomatic(inst, False),
    "check_axiomatic_graded": lambda inst, extra: _axiomatic(inst, True),
    "maximal_quotients_match": lambda inst, extra:
        gradlie.maximal_quotients_match(inst.obj, budget=BUDGET),
    "tkk": lambda inst, extra: gradlie.tkk(inst.obj),
    "associated_pair": lambda inst, extra: _round_trip(inst),
    "maximal_pair_quotients": lambda inst, extra:
        gradlie.maximal_pair_quotients(inst.obj, budget=BUDGET),
    "maximal_triple_quotients": lambda inst, extra:
        gradlie.maximal_triple_quotients(inst.obj, budget=BUDGET),
    "maximal_jordan_algebra_quotients": lambda inst, extra:
        gradlie.maximal_jordan_algebra_quotients(inst.obj, budget=BUDGET),
    "check_central_quotients": lambda inst, extra:
        gradlie.check_central_quotients(inst.obj, variant=extra),
    "socle": lambda inst, extra: gradlie.socle(inst.obj, budget=BUDGET),
    "graded_socle": lambda inst, extra: gradlie.graded_socle(
        inst.obj, budget=BUDGET),
    "graded_core": lambda inst, extra: gradlie.graded_core(
        inst.obj, inst.marks[extra]),
    "is_essential_ideal": _ideal_predicate(False),
    "is_essential_ideal_graded": _ideal_predicate(True),
    "pair_is_semiprime": lambda inst, extra: gradlie.pair_is_semiprime(
        inst.obj, budget=BUDGET),
}
for _name in ("is_semiprime", "is_prime", "is_strongly_nondegenerate"):
    ASK[_name] = _predicate(_name, False)
    ASK[_name + "_graded"] = _predicate(_name, True)
for _name in ("is_quotient", "is_weak_quotient"):
    ASK[_name] = _decider(_name, False)
    ASK[_name + "_graded"] = _decider(_name, True)


def _verdict(v):
    witness = None if v.witness is None else [str(c) for c in v.witness]
    return {"value": v.value, "witness": witness}


def _mq(inst, mq):
    return {"dim": mq.algebra.dim,
            "embedding_rank": _rank(inst.obj.field, mq.embedding)}


def _report(inst, r):
    return {"center_dim": r.center_dim,
            "killing_nonzero": None if r.killing_det is None
            else r.killing_det != 0,
            "semiprime": r.semiprime, "prime": r.prime,
            "strongly_nondegenerate": r.strongly_nondegenerate,
            "socle_dim": r.socle_dim}


def _pair_round_trip(inst, result):
    pair, ap = result
    return (ap.c_v.is_zero() and ap.pair.table_plus == pair.table_plus
            and ap.pair.table_minus == pair.table_minus)


RECORD = {
    "structure_report": _report,
    "maximal_quotients": _mq,
    "maximal_quotients_graded": _mq,
    "check_axiomatic": lambda inst, r: r.passed,
    "check_axiomatic_graded": lambda inst, r: r.passed,
    "maximal_quotients_match": lambda inst, r: bool(r[2]["isomorphic"]),
    "tkk": lambda inst, r: r.dim,
    "associated_pair": _pair_round_trip,
    "maximal_pair_quotients": lambda inst, r: {
        "dims": list(r.pair.dims()), "verdict": r.verdict.value},
    "maximal_triple_quotients": lambda inst, r: {
        "dim": r.triple.dim, "verdict": r.pairs.verdict.value},
    "maximal_jordan_algebra_quotients": lambda inst, r: {
        "dim": r.algebra.dim, "verdict": r.triples.pairs.verdict.value},
    "check_central_quotients": lambda inst, r: r.verdict.value,
    "socle": lambda inst, r: r.dim,
    "graded_socle": lambda inst, r: r.dim,
    "graded_core": lambda inst, r: r.dim,
}
for _name in ("is_quotient", "is_weak_quotient"):
    RECORD[_name] = RECORD[_name + "_graded"] = lambda inst, v: _verdict(v)


def record(kind, inst, result):
    """JSON value of a result; plain booleans pass through."""
    fn = RECORD.get(kind)
    return bool(result) if fn is None else fn(inst, result)
