"""Hand-written expected answers, one line of justification each.

Nothing here is computed by gradlie.  The answers are theorems about the
gallery objects; a basis change is an isomorphism, so they hold for every
generated instance.  Witness sets are coordinate subspaces of the gallery
basis, given as basis indices; a reported witness is mapped back to
gallery coordinates (v @ P) before it is compared.

Keys are question ids ``kind:instance[:mark]:field``; CLI questions use
``cli:<subcommand and flags>:instance[:mark]:field``.
"""

# sl2 = (e, f, h); sl2sum = (e, f, h, e', f', h'); heis3 = (x, y, z);
# p_mod_i = (1, i, x, ix, x2, ix2, x3, ix3) with [x^r, i x^s] = -2 i x^(r+s);
# pair_padded = ((x, p), (y, q)) with p and q in no nonzero product.

SECOND_SUMMAND = [3, 4, 5]   # e', f', h' in sl2sum
PMI_U = [4, 5, 6, 7]         # x2, ix2, x3, ix3 in p_mod_i

WHY_SECOND = ("the second summand is Ann_Q(L) for L the first copy of sl2, "
              "so it holds every refuting element")
WHY_PMI_U = ("(L:q) contains U = span(x2, ix2, x3, ix3) for every q and "
             "Ann_Q(U) = U, so any refuting p lies in U; q = x, p = x3 refutes")

EXPECTED = {
    # -- q-exact: structure over Q ------------------------------------------
    "structure_report:sl2:Q": (
        {"center_dim": 0, "killing_nonzero": True, "semiprime": True,
         "prime": True, "strongly_nondegenerate": True, "socle_dim": 3},
        "sl2 is simple over Q with nondegenerate Killing form (Cartan)"),
    "structure_report:sl2sum:Q": (
        {"center_dim": 0, "killing_nonzero": True, "semiprime": True,
         "prime": False, "strongly_nondegenerate": True, "socle_dim": 6},
        "semisimple; the two summands are nonzero ideals with [I, J] = 0"),
    "structure_report:heis3:Q": (
        {"center_dim": 1, "killing_nonzero": False, "semiprime": False,
         "prime": False, "strongly_nondegenerate": False, "socle_dim": 1},
        "the center span(z) is an abelian ideal inside every nonzero ideal; "
        "nilpotent, so the Killing form vanishes"),
    "structure_report:p_mod_i:Q": (
        {"center_dim": 0, "killing_nonzero": False, "semiprime": False,
         "prime": False, "strongly_nondegenerate": False, "socle_dim": 1},
        "span(i, ix, ix2, ix3) is an abelian ideal in the Killing radical; "
        "every nonzero ideal contains ix3; [1, i] and [x^r, i] rule out a center"),
    "structure_report:sl3:Q": (
        {"center_dim": 0, "killing_nonzero": True, "semiprime": True,
         "prime": True, "strongly_nondegenerate": True, "socle_dim": 8},
        "sl3 is simple over Q"),

    # -- q-exact: maximal algebras of quotients over Q ----------------------
    **{"%s:%s:Q" % (kind, name): ({"dim": dim, "embedding_rank": dim},
                                  "semisimple in characteristic 0: the socle "
                                  "is L and every derivation is inner "
                                  "(Zassenhaus), so Q_max = ad L = L")
       for kind in ("maximal_quotients", "maximal_quotients_graded")
       for name, dim in (("sl2", 3), ("sl2sum", 6), ("sl3", 8))},
    **{"%s:%s:Q" % (kind, name): (True, "Q_max satisfies the three axioms "
                                        "(absorption, faithfulness, every "
                                        "derivation of E0 realized)")
       for kind in ("check_axiomatic", "check_axiomatic_graded")
       for name in ("sl2", "sl2sum", "sl3")},
    **{"maximal_quotients_match:%s:Q" % name: (
        True, "3-graded semiprime: the graded and plain E0 coincide, so the "
              "two constructions agree")
       for name in ("sl2", "sl2sum", "sl3")},

    # -- quotient deciders, Q and F5 ----------------------------------------
    **{"%s:p_mod_i:small:%s" % (kind, fld): (
        {"value": "false", "witness_in": PMI_U}, WHY_PMI_U)
       for kind in ("is_quotient", "is_quotient_graded") for fld in ("Q", "F5")},
    **{"is_weak_quotient_graded:p_mod_i:small:%s" % fld: (
        {"value": "true"},
        "README: graded weak quotients strictly contain graded quotients; "
        "x3 brackets i into L, x2 brackets ix into L, ...")
       for fld in ("Q", "F5")},
    "is_weak_quotient:p_mod_i:small:Q": (
        {"value": "true"},
        "for q with an i-, 1-, ix- or x-component pick x3, ix3, x2 or ix2; "
        "for q in L pick i or 1: each gives 0 != [y, q] in L"),
    **{"%s:sl2sum:first:%s" % (kind, fld): (
        {"value": "false", "witness_in": SECOND_SUMMAND}, WHY_SECOND)
       for kind, fld in (("is_quotient", "Q"), ("is_quotient_graded", "Q"),
                         ("is_weak_quotient", "Q"),
                         ("is_weak_quotient_graded", "Q"),
                         ("is_quotient", "F5"), ("is_quotient_graded", "F5"),
                         ("is_weak_quotient_graded", "F5"))},
    **{"%s:sl2:full:F5" % kind: (
        {"value": "true"},
        "reflexive and centerless: for p != 0 some x in L has [x, p] != 0")
       for kind in ("is_quotient", "is_weak_quotient")},

    # -- Jordan systems over Q ----------------------------------------------
    "tkk:pair_field:Q": (3, "TKK of the field pair is V+ + [V+, V-] + V- = sl2"),
    "tkk:pair_rect12:Q": (8, "TKK of the 1x2 rectangular pair is sl3"),
    **{"associated_pair:%s:Q" % name: (
        True, "the associated pair of a TKK algebra is the pair itself, "
              "with zero central part")
       for name in ("pair_field", "pair_rect12")},
    "maximal_pair_quotients:pair_field:Q": (
        {"dims": [1, 1], "verdict": "true"},
        "TKK = sl2 is its own Q_max, so the pair is its own maximal pair of "
        "quotients"),
    "maximal_pair_quotients:pair_rect12:Q": (
        {"dims": [2, 2], "verdict": "true"},
        "TKK = sl3 is its own Q_max, so the pair is its own maximal pair of "
        "quotients"),
    "maximal_triple_quotients:triple_2xyz:Q": (
        {"dim": 1, "verdict": "true"},
        "the double pair is the field pair, its own maximal pair of quotients"),
    "maximal_jordan_algebra_quotients:jordan_sym2:Q": (
        {"dim": 3, "verdict": "true"},
        "Sym2 is simple and unital, so it is its own maximal algebra of "
        "quotients"),

    # -- matrix algebras with involution over Q -----------------------------
    "check_central_quotients:m3:K:Q": (
        "true", "Q = A, and K = so(3) is simple, so the induced embedding is "
                "reflexive and centerless"),
    "check_central_quotients:m4:K:Q": (
        "true", "Q = A, and K = so(4) = sl2 + sl2 is semisimple, so the "
                "induced embedding is reflexive and centerless"),
    "check_central_quotients:m2:minus:Q": (
        "true", "Q = A, and gl2 modulo its center is sl2, so the induced "
                "embedding is reflexive and centerless"),

    # -- fp-scan: ideal predicates over F5 ----------------------------------
    **{"is_semiprime%s:%s:F5" % (g, name): (want, why)
       for g in ("", "_graded")
       for name, want, why in (
           ("sl2", True, "sl2 is simple in characteristic not 2"),
           ("heis3", False, "the center span(z) is a graded abelian ideal"),
           ("sl2sum", True, "every ideal is a sum of the simple summands"),
           ("sl2_heis3", False, "the center z of heis3 is a graded abelian "
                                "ideal"))},
    "is_semiprime_graded:p_mod_i:F5": (
        False, "span(i, ix, ix2, ix3) is a graded abelian ideal"),
    "is_semiprime_graded:sl3:F5": (
        True, "sl_n is simple in characteristic not dividing n"),
    "is_prime:sl2:F5": (True, "simple algebras are prime"),
    "is_prime:heis3:F5": (False, "[Z, Z] = 0 for the center Z = span(z)"),
    "is_prime:sl2sum:F5": (False, "the two summands bracket to zero"),
    "is_prime:sl2_heis3:F5": (False, "[sl2, heis3] = 0"),
    "is_prime_graded:p_mod_i:F5": (
        False, "the graded abelian ideal span(i, ix, ix2, ix3) brackets to 0"),
    "is_prime_graded:sl3:F5": (True, "simple algebras are graded prime"),
    **{"%s:%s:F5" % (kind, name): (dim, why)
       for kind in ("socle", "graded_socle")
       for name, dim, why in (
           ("sl2", 3, "simple: the only minimal ideal is L"),
           ("heis3", 1, "every nonzero ideal contains z (bracket with x or y)"),
           ("sl2sum", 6, "the two simple summands are the minimal ideals"),
           ("sl2_heis3", 4, "minimal ideals: sl2, and span(z) inside the "
                            "centralizer heis3 of sl2"))},
    "graded_socle:p_mod_i:F5": (
        1, "every nonzero ideal contains ix3: bracket the lowest term with "
           "x^(3-r) or i x^(3-s)"),
    "graded_socle:sl3:F5": (8, "simple: the only minimal ideal is L"),
    **{"is_strongly_nondegenerate%s:%s:F5" % (g, name): (want, why)
       for name, g, want, why in (
           ("sl2", "", True, "nondegenerate Killing form in characteristic "
                             "not 2: (ad x)^2 = 0 forces K(x, L) = 0"),
           ("heis3", "", False, "(ad z)^2 = 0 for the central z"),
           ("sl2sum", "", True, "nondegenerate Killing form in characteristic "
                                "not 2"),
           ("sl2_heis3", "", False, "(ad z)^2 = 0 for the central z"),
           ("p_mod_i", "_graded", False, "ix3 is homogeneous and "
                                         "(ad ix3)^2 = 0"),
           ("sl3", "_graded", True, "the trace form of sl3 is nondegenerate "
                                    "mod 5, so the Killing form is"))},
    **{"is_essential_ideal%s:%s:F5" % (g, key): (want, why)
       for g in ("", "_graded")
       for key, want, why in (
           ("sl2sum:first", False, "the second summand is a nonzero ideal "
                                   "meeting the first in 0"),
           ("heis3:center", True, "every nonzero ideal contains z"))},
    "is_essential_ideal_graded:p_mod_i:ix3:F5": (
        True, "every nonzero ideal contains ix3"),
    "graded_core:sl2sum:first:F5": (
        3, "the first summand is perfect and graded, so its core is itself"),
    "graded_core:heis3:center:F5": (0, "[Z, Z] = 0, so the core is 0"),
    "graded_core:sl3:full:F5": (8, "sl3 is perfect, so the core of L is L"),
    "pair_is_semiprime:pair_field:F5": (
        True, "Q_x y = x^2 y, so Q_x = 0 only for x = 0: nondegenerate "
              "pairs are semiprime"),
    "pair_is_semiprime:pair_rect12:F5": (
        True, "Q_x y = (x . y) x and Q_x e_i = x_i x, so Q_x = 0 only for "
              "x = 0: nondegenerate pairs are semiprime"),
    "pair_is_semiprime:pair_padded:F5": (
        False, "(span(p), 0) is an ideal with all products zero"),
    "is_semiprime:sl4:F5": (True, "sl_n is simple in characteristic not "
                                  "dividing n"),
    "is_prime:sl4:F5": (True, "simple algebras are prime"),
    "socle:sl4:F5": (15, "simple: the only minimal ideal is L"),

    # -- cli-gallery: exit code plus fields of the --format json output -----
    "cli:validate:pair_field:F5": (
        {"exit": 0, "json": {"valid": True, "dims": [1, 1]}},
        "the file is a basis change of a valid pair"),
    "cli:analyze:heis3:F5": (
        {"exit": 0, "json": {"center_dim": 1, "semiprime": False,
                             "prime": False, "strongly_nondegenerate": False,
                             "socle_dim": 1}},
        "the center span(z) is an abelian ideal inside every nonzero ideal"),
    "cli:qmax --graded:sl3:Q": (
        {"exit": 0, "json": {"dim": 8, "embedding_rank": 8}},
        "semisimple in characteristic 0: Q_max = ad L = L"),
    "cli:check-quotient --graded --weak:p_mod_i:small:Q": (
        {"exit": 0, "json": {"verdict": "true"}},
        "README: the marked subalgebra absorbs every element weakly"),
    "cli:check-quotient --graded:p_mod_i:small:Q": (
        {"exit": 1, "json": {"verdict": "false"}, "witness_in": PMI_U},
        WHY_PMI_U),
    "cli:tkk:pair_rect12:Q": (
        {"exit": 0, "lie_dim": 8}, "TKK of the 1x2 rectangular pair is sl3"),
    "cli:mquotients:pair_padded:small:Q": (
        {"exit": 1, "json": {"verdict": "false"},
         "pair_witness_in": {"plus": [1], "minus": [1]}},
        "p and q lie in no nonzero product, so nothing in the subpair "
        "acts on them"),
    "cli:jmax:triple_2xyz:Q": (
        {"exit": 0, "json": {"dim": 1, "verdict": "true"}},
        "the double pair is the field pair, its own maximal pair of quotients"),
}
