"""A fixed subset of the ideal-lattice and maximal-quotients corpus
(tests/corpus.py), each input recomputed with its questions asked in
reverse order, so that an answer that depends on a memo an earlier
question filled shows up as a changed digest.  `python tests/corpus.py --check` recomputes all of it."""

import pytest

import corpus

# every method of structure_report, every field, both basis changes, and
# psl3 over F3, whose maximal quotients are larger than itself
SUBSET = (
    "sl2@Q~d", "sl2sum@F2~s", "sl2sum@F5~d", "sl2_sqrt2@Q~d",
    "sl2_sqrt2@F5~s", "sl2sum_swap@Q~d", "sl2sum_swap@F3~d", "heis3@Q~s",
    "heis3@F2~d", "heis3@F3~d", "sln3@Q~d", "sln3@F3~s", "psl3@F3~d", "psl3@Q~s", "p_mod_i@Q~d",
    "p_mod_i@F3~d", "p_mod_i@F5", "sl2+heis3@F5~s", "sl2+ab@F7~d",
    "heis3+ab@F3", "sln3+ab@F5~d", "sl2+sl2+sl2@F2~d", "sl2+sln3@Q~d",
    "sl2+sln3@F5~s", "sl2_sqrt2+sl2@Q~d", "sl2_sqrt2+sl2@F2~d",
)


@pytest.fixture(scope="module")
def recorded():
    return corpus.read_corpus()


def test_corpus_file_holds_every_input_and_budget(recorded):
    assert sorted(recorded) == sorted((ident, b) for ident in corpus.input_ids()
                                      for b in corpus.BUDGETS)
    assert all(len(d) == len(corpus.QUESTIONS) for d in recorded.values())


@pytest.mark.parametrize("ident", SUBSET)
def test_corpus_answers_do_not_depend_on_the_order_asked(recorded, ident):
    assert corpus.mismatches(ident, recorded, reverse=True) == []
