"""The budget only ever refuses: a property of the ideal-lattice questions.

Each of semiprime, prime, socle and absolute zero divisor, plain and
graded, is asked at every budget of BUDGETS, ascending and then
descending, once on an algebra shared by the whole walk (so the later
questions meet the memos the earlier ones filled) and once on a fresh
copy per budget.  A refusal is DimensionTooLarge or UndecidedError; any
other outcome, a GradlieError included, is a decided answer.  Two things
must hold per question: every decided answer is equal, and no budget
that refuses is above a budget that decided.
"""

import random

import pytest

from _naive import change_basis, seeded_homogeneous_basis
from gradlie.analysis import (
    absolute_zero_divisor_witness,
    graded_socle,
    is_prime,
    is_semiprime,
    socle,
)
from gradlie.errors import DimensionTooLarge, GradlieError, UndecidedError
from gradlie.gallery import heis3, p_mod_i, sl2, sl2_sqrt2, sl2sum, sln_e11
from gradlie.scalars import GF, QQ

BUDGETS = (1, 10 ** 2, 10 ** 4, 10 ** 6, 10 ** 9)

QUESTIONS = {
    "semiprime": lambda a, b: is_semiprime(a, budget=b),
    "semiprime.g": lambda a, b: is_semiprime(a, graded=True, budget=b),
    "prime": lambda a, b: is_prime(a, budget=b),
    "prime.g": lambda a, b: is_prime(a, graded=True, budget=b),
    "socle": lambda a, b: socle(a, budget=b),
    "socle.g": lambda a, b: graded_socle(a, budget=b),
    "azd": lambda a, b: absolute_zero_divisor_witness(a, budget=b),
    "azd.g": lambda a, b: absolute_zero_divisor_witness(
        a, graded=True, budget=b),
}


def _sln3(field):
    return sln_e11(3, field)


# (maker, field, dense basis change): a few seconds in all, each over
# F_p deciding some questions only above a budget that refuses them
INPUTS = {
    "sl2@Q": (sl2, QQ, False),
    "sl2@F5~d": (sl2, GF(5), True),
    "heis3@Q": (heis3, QQ, False),
    "heis3@F7": (heis3, GF(7), False),
    "sl2sum@Q~d": (sl2sum, QQ, True),
    "sl2sum@F7": (sl2sum, GF(7), False),
    "sl2_sqrt2@F7": (sl2_sqrt2, GF(7), False),
    "p_mod_i@Q": (p_mod_i, QQ, False),
    "p_mod_i@F5": (p_mod_i, GF(5), False),
    "p_mod_i@F7~d": (p_mod_i, GF(7), True),
    "sln3@Q": (_sln3, QQ, False),
    "sln3@F5": (_sln3, GF(5), False),
}


def _build(ident):
    make, field, dense = INPUTS[ident]
    alg = make(field)
    if dense:
        rows = seeded_homogeneous_basis(alg, True, random.Random(ident))
        alg = change_basis(alg, rows)
    return alg


def _ask(alg, question, budget):
    """(decided, answer): the value, or a rejection's class and message;
    (False, None) for a refusal."""
    try:
        return True, question(alg, budget)
    except (DimensionTooLarge, UndecidedError):
        return False, None
    except GradlieError as exc:
        return True, (type(exc).__name__, str(exc))


@pytest.mark.parametrize("ident", list(INPUTS))
def test_a_larger_budget_never_refuses_what_a_smaller_one_decided(ident):
    mixed = 0
    for name, question in QUESTIONS.items():
        decided, refused = [], []
        for order in (BUDGETS, BUDGETS[::-1]):
            shared = _build(ident)
            for budget in order:
                for alg in (shared, _build(ident)):
                    ok, answer = _ask(alg, question, budget)
                    if ok:
                        decided.append((budget, answer))
                    else:
                        refused.append(budget)
        assert decided, (name, "refused at every budget")
        assert all(a == decided[0][1] for _, a in decided), name
        assert not refused or max(refused) < min(b for b, _ in decided), (
            name, sorted(set(refused)))
        mixed += bool(refused)
    # over F_p some question is refused at a small budget and decided at
    # a larger one, so the walk crosses a refusal boundary
    assert mixed or INPUTS[ident][1].p is None
