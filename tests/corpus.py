"""A differential corpus for the ideal-lattice questions of gradlie.

The inputs are seeded Lie algebras over Q, F2, F3, F5 and F7: the gallery
algebras; direct sums with heis3 or an abelian piece, which are not
semiprime by construction; sums of two or three simple pieces, whose
minimal ideals are the pieces; and a homogeneous sparse (scaled
permutation) and dense (small integers) basis change of each.  For every
input the questions of QUESTIONS are asked at each budget of BUDGETS, in
that order, on one algebra object, so the later ones meet the memos the
earlier ones filled.  An answer is the canonical JSON of the verdict and
witness, or of the exception class and message.

corpus.txt holds one line per input and budget: the input's id, the
budget, and one 12-hex-digit SHA-256 digest per question, in the order of
its header.  A changed answer changes its digest, so a change of the
library that should keep every answer is checked by

    python tests/corpus.py --check     # recompute every record
    python tests/corpus.py --write     # regenerate corpus.txt

and tests/test_corpus.py recomputes a fixed subset in reverse order, so
that an answer that depends on what was asked before it shows up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src")]

from _naive import change_basis  # noqa: E402
from gradlie.analysis import (  # noqa: E402
    StructureReport,
    _minimal_ideals,
    absolute_zero_divisor_witness,
    graded_socle,
    is_prime,
    is_semiprime,
    minimal_ideals,
    socle,
    structure_report,
)
from gradlie.errors import GradlieError  # noqa: E402
from gradlie.gallery import (  # noqa: E402
    build_lie,
    heis3,
    p_mod_i,
    sl2,
    sl2_sqrt2,
    sl2sum,
    sl2sum_swap,
    sln_e11,
)
from gradlie.lie import direct_sum  # noqa: E402
from gradlie.linalg import Subspace, rank  # noqa: E402
from gradlie.scalars import GF, QQ  # noqa: E402
from gradlie.serialize import rows_to_json  # noqa: E402

CORPUS = HERE / "corpus.txt"
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5), "F7": GF(7)}
BUDGETS = (50000, 1)
SEED = 20


def _abelian(field):
    return build_lie(field, ["a"], [0], {})


def _sum(*makers):
    def make(field):
        out = makers[0](field)
        for k, m in enumerate(makers[1:], 1):
            out = direct_sum(out, m(field), sep="'" * k)
        return out
    return make


def _sln3(field):
    return sln_e11(3, field)


BASES = {
    "sl2": sl2,
    "sl2sum": sl2sum,
    "sl2_sqrt2": sl2_sqrt2,
    "sl2sum_swap": sl2sum_swap,
    "heis3": heis3,
    "sln3": _sln3,
    "p_mod_i": p_mod_i,
    "sl2+heis3": _sum(sl2, heis3),
    "sl2+ab": _sum(sl2, _abelian),
    "heis3+ab": _sum(heis3, _abelian),
    "sln3+ab": _sum(_sln3, _abelian),
    "sl2+sl2+sl2": _sum(sl2, sl2, sl2),
    "sl2+sln3": _sum(sl2, _sln3),
    "sl2_sqrt2+sl2": _sum(sl2_sqrt2, sl2),
}
VARIANTS = ("", "~s", "~d")

QUESTIONS = (
    ("semiprime", lambda a, b: is_semiprime(a, budget=b)),
    ("semiprime.g", lambda a, b: is_semiprime(a, graded=True, budget=b)),
    ("prime", lambda a, b: is_prime(a, budget=b)),
    ("prime.g", lambda a, b: is_prime(a, graded=True, budget=b)),
    ("socle", lambda a, b: socle(a, budget=b)),
    ("socle.g", lambda a, b: graded_socle(a, budget=b)),
    ("minimal", lambda a, b: minimal_ideals(a, budget=b)),
    ("minimal.g", lambda a, b: _minimal_ideals(a, True, b)),
    ("azd", lambda a, b: absolute_zero_divisor_witness(a, budget=b)),
    ("azd.g", lambda a, b: absolute_zero_divisor_witness(
        a, graded=True, budget=b)),
    ("report", lambda a, b: structure_report(a, budget=b)),
)


def _basis_rows(alg, dense, rng):
    """A homogeneous basis for change_basis, block by degree block."""
    f, n = alg.field, alg.dim
    rows = [None] * n
    for d in sorted(set(alg.degrees)):
        idx = [i for i in range(n) if alg.degrees[i] == d]
        while True:
            if dense:
                block = [[f.of(rng.randint(-2, 2)) for _ in idx] for _ in idx]
            else:
                perm = list(range(len(idx)))
                rng.shuffle(perm)
                block = [[f.of(rng.choice((1, -1, 2, -2))) if c == perm[r]
                          else f.zero for c in range(len(idx))]
                         for r in range(len(idx))]
            if rank(f, block) == len(idx):
                break
        for i, brow in zip(idx, block):
            row = [f.zero] * n
            for c, x in zip(idx, brow):
                row[c] = x
            rows[i] = tuple(row)
    return rows


def input_ids():
    return ["%s@%s%s" % (base, fname, var) for base in BASES
            for fname in FIELDS for var in VARIANTS]


def build(ident):
    """The algebra of an input id, base@field plus an optional ~s or ~d
    basis change seeded by the id."""
    base, rest = ident.split("@")
    fname, _, var = rest.partition("~")
    alg = BASES[base](FIELDS[fname])
    if var:
        rng = random.Random("%d %s" % (SEED, ident))
        alg = change_basis(alg, _basis_rows(alg, var == "d", rng))
    return alg


def _encode(f, x):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, Subspace):
        return rows_to_json(f, x.rows)
    if isinstance(x, StructureReport):
        return {"center_dim": x.center_dim,
                "killing_det": _encode(f, x.killing_det),
                "semiprime": x.semiprime, "prime": x.prime,
                "strongly_nondegenerate": x.strongly_nondegenerate,
                "socle_dim": x.socle_dim, "socle": _encode(f, x.socle),
                "methods": x.methods}
    if isinstance(x, tuple):
        return [_encode(f, y) for y in x]
    return f.format(x)


def answer(alg, question, budget):
    """The canonical JSON of one answer: the verdict and witness, or the
    exception class and message."""
    try:
        doc = {"answer": _encode(alg.field, question(alg, budget))}
    except GradlieError as exc:  # a refusal or a rejection is a record
        doc = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def records(ident, reverse=False):
    """{(budget, question name): canonical answer} of one input, asked on
    one algebra object in corpus order, or in the reverse order."""
    try:
        alg = build(ident)
    except GradlieError as exc:
        text = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                          sort_keys=True, separators=(",", ":"))
        return {(b, name): text for b in BUDGETS for name, _ in QUESTIONS}
    order = [(b, name, q) for b in BUDGETS for name, q in QUESTIONS]
    if reverse:
        order.reverse()
    return {(b, name): answer(alg, q, b) for b, name, q in order}


def lines(ident, reverse=False):
    rec = records(ident, reverse)
    return ["%s %d %s" % (ident, b, " ".join(digest(rec[b, name])
                                             for name, _ in QUESTIONS))
            for b in BUDGETS]


def header():
    return ["# gradlie ideal-lattice corpus (tests/corpus.py); "
            "one line per input and budget",
            "# input budget " + " ".join(name for name, _ in QUESTIONS)]


def read_corpus():
    """{(input id, budget): [digest per question]} of corpus.txt."""
    out = {}
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            if line.startswith("# input budget ") and line != header()[1]:
                raise ValueError("corpus.txt asks other questions: " + line)
            continue
        ident, budget, *digests = line.split()
        out[ident, int(budget)] = digests
    return out


def mismatches(ident, want, reverse=False):
    """The records of an input whose answer differs from corpus.txt, as
    (budget, question, recomputed answer)."""
    rec = records(ident, reverse)
    return [(b, name, rec[b, name]) for b in BUDGETS
            for k, (name, _) in enumerate(QUESTIONS)
            if want.get((ident, b), [None] * len(QUESTIONS))[k]
            != digest(rec[b, name])]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute every record and compare")
    mode.add_argument("--write", action="store_true",
                      help="regenerate corpus.txt")
    args = ap.parse_args(argv)
    if args.write:
        out = header()
        for ident in input_ids():
            out += lines(ident)
        CORPUS.write_text("\n".join(out) + "\n", encoding="utf-8")
        print("wrote %d records of %d inputs"
              % ((len(out) - 2) * len(QUESTIONS), len(input_ids())))
        return 0
    want = read_corpus()
    bad = 0
    for ident in input_ids():
        for b, name, text in mismatches(ident, want):
            bad += 1
            print("%s budget %d %s: %s" % (ident, b, name, text))
    total = len(input_ids()) * len(BUDGETS) * len(QUESTIONS)
    print("%d of %d records differ" % (bad, total))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
