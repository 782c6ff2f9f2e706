"""The fixed question lists of the three workloads.

A question is (kind, instance, extra, field): ``kind`` names the public
gradlie call, ``instance`` a generated input (see inputs.INSTANCES),
``extra`` a marked subspace or a variant ('' for none) and ``field`` is
'Q' or 'F5'.  Each pass asks every question once per input class, in
this order, in a fresh interpreter.
"""

BUDGET = 10 ** 6   # gradlie's default work budget, passed explicitly

CLASSES = ("sparse", "dense")


def qid(kind, instance, extra, field):
    return ":".join(p for p in (kind, instance, extra, field) if p)


def _each(kinds, instances, extra="", field="Q"):
    return [(k, i, extra, field) for k in kinds for i in instances]


Q_EXACT = (
    _each(["structure_report"], ["sl2", "sl2sum", "heis3", "p_mod_i", "sl3"])
    + [(k, name, "", "Q")
       for name in ("sl2", "sl2sum", "sl3")
       for k in ("maximal_quotients", "check_axiomatic",
                 "maximal_quotients_graded", "check_axiomatic_graded",
                 "maximal_quotients_match")]
    + _each(["is_quotient", "is_quotient_graded", "is_weak_quotient",
             "is_weak_quotient_graded"], ["p_mod_i"], "small")
    + _each(["is_quotient", "is_quotient_graded", "is_weak_quotient",
             "is_weak_quotient_graded"], ["sl2sum"], "first")
    + [(k, name, "", "Q") for name in ("pair_field", "pair_rect12")
       for k in ("tkk", "associated_pair", "maximal_pair_quotients")]
    + [("maximal_triple_quotients", "triple_2xyz", "", "Q"),
       ("maximal_jordan_algebra_quotients", "jordan_sym2", "", "Q"),
       ("check_central_quotients", "m3", "K", "Q"),
       ("check_central_quotients", "m2", "minus", "Q"),
       ("check_central_quotients", "m4", "K", "Q")]
)

_PLAIN = ["sl2", "heis3", "sl2sum", "sl2_heis3"]   # dim <= 6: full scans
_GRADED_ONLY = ["p_mod_i", "sl3"]                  # dim 8: graded scans only

FP_SCAN = (
    _each(["is_semiprime"], _PLAIN, field="F5")
    + _each(["is_semiprime_graded"], _PLAIN + _GRADED_ONLY, field="F5")
    + _each(["is_prime"], _PLAIN, field="F5")
    + _each(["is_prime_graded"], _GRADED_ONLY, field="F5")
    + _each(["socle"], _PLAIN, field="F5")
    + _each(["graded_socle"], _PLAIN + _GRADED_ONLY, field="F5")
    + _each(["is_strongly_nondegenerate"], _PLAIN, field="F5")
    + _each(["is_strongly_nondegenerate_graded"], _GRADED_ONLY, field="F5")
    + [("is_essential_ideal", "sl2sum", "first", "F5"),
       ("is_essential_ideal", "heis3", "center", "F5"),
       ("is_essential_ideal_graded", "sl2sum", "first", "F5"),
       ("is_essential_ideal_graded", "heis3", "center", "F5"),
       ("is_essential_ideal_graded", "p_mod_i", "ix3", "F5"),
       ("graded_core", "sl2sum", "first", "F5"),
       ("graded_core", "heis3", "center", "F5"),
       ("graded_core", "sl3", "full", "F5"),
       ("is_quotient", "sl2sum", "first", "F5"),
       ("is_quotient_graded", "sl2sum", "first", "F5"),
       ("is_weak_quotient_graded", "sl2sum", "first", "F5"),
       ("is_quotient", "p_mod_i", "small", "F5"),
       ("is_quotient_graded", "p_mod_i", "small", "F5"),
       ("is_weak_quotient_graded", "p_mod_i", "small", "F5"),
       ("is_quotient", "sl2", "full", "F5"),
       ("is_weak_quotient", "sl2", "full", "F5")]
    + _each(["pair_is_semiprime"], ["pair_field", "pair_rect12",
                                    "pair_padded"], field="F5")
    # dimension 15, about 7.6M projective points: over the budget
    + _each(["is_semiprime", "is_prime", "socle"], ["sl4"], field="F5")
)

# (subcommand with flags, instance, marked subspace, field)
CLI_GALLERY = [
    ("validate", "pair_field", "", "F5"),
    ("analyze", "heis3", "", "F5"),
    ("qmax --graded", "sl3", "", "Q"),
    ("check-quotient --graded --weak", "p_mod_i", "small", "Q"),
    ("check-quotient --graded", "p_mod_i", "small", "Q"),
    ("tkk", "pair_rect12", "", "Q"),
    ("mquotients", "pair_padded", "small", "Q"),
    ("jmax", "triple_2xyz", "", "Q"),
]

# a dense basis change of the 16-dimensional m_n_transpose(4) takes about
# 30 s to build and validate, longer than a whole pass
SPARSE_ONLY = {("check_central_quotients", "m4", "K", "Q")}

WORKLOADS = ("cli-gallery", "q-exact", "fp-scan")


def cli_file_name(cls, instance, mark, field):
    """File name of a generated CLI input inside a pass's directory."""
    return "%s__%s__%s__%s.json" % (cls, instance, mark or "-", field)


def questions(workload, cls):
    """The questions of one workload for one input class, in order."""
    if workload == "cli-gallery":
        return [("cli:" + cmd, inst, mark, fld)
                for cmd, inst, mark, fld in CLI_GALLERY]
    qs = Q_EXACT if workload == "q-exact" else FP_SCAN
    return [q for q in qs if cls == "sparse" or q not in SPARSE_ONLY]

