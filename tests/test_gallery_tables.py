"""Every example table, pinned: the first 12 hex digits of the sha256 of
the canonical algebra file (serialize_algebra) of each gallery builder,
and of the exchange double and derived triple built from them, over Q
and small prime fields.  The Lie and associative builders are
pinned over Q, F2, F3, F5 and F7, the Jordan ones over Q, F5 and F7."""

import hashlib
from functools import partial

import pytest

from gradlie.assoc import exchange_double
from gradlie.gallery import (
    heis3,
    jordan_sym2,
    m_n_transpose,
    p_mod_i,
    pair_field,
    pair_padded,
    pair_rect,
    pair_zero,
    sl2,
    sl2_sqrt2,
    sl2sum,
    sl2sum_swap,
    sln_e11,
)
from gradlie.scalars import GF, QQ
from gradlie.serialize import serialize_algebra

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5), "F7": GF(7)}

LIE_ASSOC = {
    "sl2": sl2, "heis3": heis3, "sl2sum": sl2sum, "sl2_sqrt2": sl2_sqrt2,
    "sl2sum_swap": sl2sum_swap, "p_mod_i": p_mod_i,
    **{"sln_e11(%d)" % n: partial(sln_e11, n) for n in range(2, 6)},
    **{"m_n_transpose(%d)" % n: partial(m_n_transpose, n)
       for n in range(1, 5)},
    **{"exchange_double(m_n_transpose(%d))" % n:
       lambda f, n=n: exchange_double(m_n_transpose(n, f))
       for n in range(1, 5)},
}

JORDAN = {
    **{"pair_rect(%d,%d)" % (p, q): partial(pair_rect, p, q)
       for p in range(1, 4) for q in range(1, 4)},
    "jordan_sym2": jordan_sym2,
    "derived_triple(jordan_sym2)": lambda f: jordan_sym2(f).derived_triple(),
    "pair_field": pair_field,
    "pair_zero": lambda f: pair_zero(field=f),
    "pair_zero(2,3)": lambda f: pair_zero(2, 3, f),
    "pair_padded": pair_padded,
}

CASES = {**{"%s@%s" % (name, fn): (build, FIELDS[fn])
            for name, build in LIE_ASSOC.items() for fn in FIELDS},
         **{"%s@%s" % (name, fn): (build, FIELDS[fn])
            for name, build in JORDAN.items() for fn in ("Q", "F5", "F7")}}


def _pin(build, field):
    text = serialize_algebra(build(field))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


PINS = {
    'derived_triple(jordan_sym2)@F5': '69bb2ca92edf',
    'derived_triple(jordan_sym2)@F7': '2f95b6baea61',
    'derived_triple(jordan_sym2)@Q': '3fe089bbfdfc',
    'exchange_double(m_n_transpose(1))@F2': 'e8522115df92',
    'exchange_double(m_n_transpose(1))@F3': '46a78094cc42',
    'exchange_double(m_n_transpose(1))@F5': '15bcb3904047',
    'exchange_double(m_n_transpose(1))@F7': 'c021c48063cf',
    'exchange_double(m_n_transpose(1))@Q': '21fa02c584f1',
    'exchange_double(m_n_transpose(2))@F2': 'ee31bca6160a',
    'exchange_double(m_n_transpose(2))@F3': 'b649bd91ff90',
    'exchange_double(m_n_transpose(2))@F5': 'f182e98afb3b',
    'exchange_double(m_n_transpose(2))@F7': '4f2f605f6a45',
    'exchange_double(m_n_transpose(2))@Q': '22a71e980e2f',
    'exchange_double(m_n_transpose(3))@F2': '6ed6c78f0428',
    'exchange_double(m_n_transpose(3))@F3': 'ff1c678c350e',
    'exchange_double(m_n_transpose(3))@F5': '010fa00d7b42',
    'exchange_double(m_n_transpose(3))@F7': '306b3ab0ec72',
    'exchange_double(m_n_transpose(3))@Q': '3dcaee0fb102',
    'exchange_double(m_n_transpose(4))@F2': '1f2cc2c730df',
    'exchange_double(m_n_transpose(4))@F3': 'ff687eb45a74',
    'exchange_double(m_n_transpose(4))@F5': 'd6bec66b2855',
    'exchange_double(m_n_transpose(4))@F7': 'b65b1ac77350',
    'exchange_double(m_n_transpose(4))@Q': '21decf7be5a0',
    'heis3@F2': 'b4571dee98da',
    'heis3@F3': 'b5266e76e630',
    'heis3@F5': '5a931dec5597',
    'heis3@F7': '30730bb6b355',
    'heis3@Q': 'a154a8d3437c',
    'jordan_sym2@F5': 'd54187c3cafc',
    'jordan_sym2@F7': '62cd83f0018a',
    'jordan_sym2@Q': '142b65649709',
    'm_n_transpose(1)@F2': '65341d520882',
    'm_n_transpose(1)@F3': 'c7f4c63ccb1b',
    'm_n_transpose(1)@F5': '552d4103cba2',
    'm_n_transpose(1)@F7': 'bfa156d8e4f3',
    'm_n_transpose(1)@Q': '19d9f973728e',
    'm_n_transpose(2)@F2': '144f3a453d1e',
    'm_n_transpose(2)@F3': 'c1e61c6410de',
    'm_n_transpose(2)@F5': 'c833ce186906',
    'm_n_transpose(2)@F7': 'b5d5a97a80df',
    'm_n_transpose(2)@Q': 'f50fa513e08d',
    'm_n_transpose(3)@F2': 'ad29ccf1ea02',
    'm_n_transpose(3)@F3': '171e7ff66931',
    'm_n_transpose(3)@F5': 'd072ba4c1f1c',
    'm_n_transpose(3)@F7': 'b86103d2341a',
    'm_n_transpose(3)@Q': 'c76b23549746',
    'm_n_transpose(4)@F2': '45075a06cb7e',
    'm_n_transpose(4)@F3': 'd2300966e837',
    'm_n_transpose(4)@F5': '07c65793b3f9',
    'm_n_transpose(4)@F7': '4035f6307d4d',
    'm_n_transpose(4)@Q': '09448e873107',
    'p_mod_i@F2': '598d1de6aee9',
    'p_mod_i@F3': '0dbe0f8ee5a8',
    'p_mod_i@F5': '70ccb897921d',
    'p_mod_i@F7': '299db11e7c5e',
    'p_mod_i@Q': '58b1dd1def7e',
    'pair_field@F5': '99a8a8ea8d91',
    'pair_field@F7': 'ae61ba5bd2f0',
    'pair_field@Q': 'c98a96de0487',
    'pair_padded@F5': '194d44ac3291',
    'pair_padded@F7': 'c3fbba74ec01',
    'pair_padded@Q': 'd8fa112b0b06',
    'pair_rect(1,1)@F5': '1a79a2125ae0',
    'pair_rect(1,1)@F7': '72410d5da42e',
    'pair_rect(1,1)@Q': 'c6440909ca67',
    'pair_rect(1,2)@F5': 'f27100765992',
    'pair_rect(1,2)@F7': '463075d50c21',
    'pair_rect(1,2)@Q': 'ce5f7005a54b',
    'pair_rect(1,3)@F5': '900651eca811',
    'pair_rect(1,3)@F7': '77b3d3698d1c',
    'pair_rect(1,3)@Q': 'baace8afa1aa',
    'pair_rect(2,1)@F5': '5afc3d54196f',
    'pair_rect(2,1)@F7': '6d8ebe17c3f0',
    'pair_rect(2,1)@Q': 'd8e1cb41e339',
    'pair_rect(2,2)@F5': '386021dc4284',
    'pair_rect(2,2)@F7': 'bd70f1fbe1fc',
    'pair_rect(2,2)@Q': '47b3a9967835',
    'pair_rect(2,3)@F5': '6bcebf9163c7',
    'pair_rect(2,3)@F7': '1232014fbd01',
    'pair_rect(2,3)@Q': '106a5155dcec',
    'pair_rect(3,1)@F5': '6c38d2a75483',
    'pair_rect(3,1)@F7': '83429ed42916',
    'pair_rect(3,1)@Q': '68469926603f',
    'pair_rect(3,2)@F5': '514bf802680d',
    'pair_rect(3,2)@F7': 'd84a41629ce2',
    'pair_rect(3,2)@Q': 'ea40deacb4e8',
    'pair_rect(3,3)@F5': '5e6666a753f5',
    'pair_rect(3,3)@F7': '9ee81ef6a7f2',
    'pair_rect(3,3)@Q': '32bedffb13f8',
    'pair_zero(2,3)@F5': 'd8fa3392698c',
    'pair_zero(2,3)@F7': '686a99c9b4f8',
    'pair_zero(2,3)@Q': '788ccd69624a',
    'pair_zero@F5': 'f3c2e9af6117',
    'pair_zero@F7': 'd1046bbe94be',
    'pair_zero@Q': '713b107ac90c',
    'sl2@F2': '2d2d533e6322',
    'sl2@F3': '6ce9318a9bbb',
    'sl2@F5': '2aeca230d3ab',
    'sl2@F7': '29e7d90b5554',
    'sl2@Q': '1e2f3cf737b7',
    'sl2_sqrt2@F2': '7ba38626a0e9',
    'sl2_sqrt2@F3': '7fdb890e0550',
    'sl2_sqrt2@F5': '0781cddac16b',
    'sl2_sqrt2@F7': 'c6746df1f295',
    'sl2_sqrt2@Q': 'efbc7da8892d',
    'sl2sum@F2': 'fb7b8bf8dbd1',
    'sl2sum@F3': '53aae9b58a52',
    'sl2sum@F5': 'f452ed20f202',
    'sl2sum@F7': '71bd77867d09',
    'sl2sum@Q': '349076639064',
    'sl2sum_swap@F2': '0bf97e041c26',
    'sl2sum_swap@F3': '51ee7463fb7e',
    'sl2sum_swap@F5': '4bb8654cb48c',
    'sl2sum_swap@F7': '03d8f1434c59',
    'sl2sum_swap@Q': 'c924aeee976c',
    'sln_e11(2)@F2': 'd921d0e3122f',
    'sln_e11(2)@F3': '7a9581b9be11',
    'sln_e11(2)@F5': '3dc4a0338b91',
    'sln_e11(2)@F7': 'c29517b57823',
    'sln_e11(2)@Q': 'b95b264d2328',
    'sln_e11(3)@F2': '8ff9db57eaef',
    'sln_e11(3)@F3': '1f90636de335',
    'sln_e11(3)@F5': '83efbe72c465',
    'sln_e11(3)@F7': 'e5da016a248f',
    'sln_e11(3)@Q': 'e30f93aa9587',
    'sln_e11(4)@F2': 'e7528736a518',
    'sln_e11(4)@F3': '8007e49ad4e5',
    'sln_e11(4)@F5': 'fc88473c9e93',
    'sln_e11(4)@F7': '6b6e84be1c1c',
    'sln_e11(4)@Q': 'b488072ec0d2',
    'sln_e11(5)@F2': '1e448944039d',
    'sln_e11(5)@F3': 'd356d2c184cc',
    'sln_e11(5)@F5': 'bc139ad3861d',
    'sln_e11(5)@F7': '17688ef578c9',
    'sln_e11(5)@Q': 'c5d9c9631fd4',
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_example_table_is_pinned(case):
    assert _pin(*CASES[case]) == PINS.get(case)

