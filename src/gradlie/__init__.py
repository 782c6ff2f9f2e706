"""Exact-arithmetic toolkit for graded Lie algebras, their algebras of
quotients, and the associated Jordan systems.

The package loads lazily (PEP 562): `import gradlie` imports no module of
it, and a name of __all__ imports the module that defines it on first
use, then stays bound here.  So a command or script pays only for the
layers it touches; `gradlie.cli` imports each command's layers inside
the command for the same reason.
"""

# the module that defines each exported name
_EXPORTS = {
    "scalars": ("QQ", "GF", "Field"),
    "lie": ("GradedLieAlgebra", "GradingGroup", "direct_sum"),
    "linalg": ("Subspace", "span", "kernel_basis"),
    "analysis": (
        "killing_determinant", "is_semiprime", "is_prime",
        "is_strongly_nondegenerate", "is_essential_ideal",
        "socle", "graded_socle", "graded_core", "structure_report"),
    "derivations": (
        "QuotientEmbedding", "Verdict", "derivation_space",
        "graded_derivation_components", "denominator_ideal",
        "is_quotient", "is_weak_quotient",
        "maximal_quotients", "maximal_quotients_match", "check_axiomatic"),
    "assoc": (
        "AssocAlgebra", "exchange_double", "exchange_skew_iso",
        "central_quotient", "check_central_quotients"),
    "jordan": (
        "JordanPair", "JordanTriple", "JordanAlgebra", "SubPair",
        "PairEmbedding", "pair_annihilator", "pair_is_semiprime",
        "pair_is_strongly_nondegenerate", "inner_derivations",
        "tkk", "tkk_ideal", "associated_pair", "is_pair_of_quotients",
        "tkk_embedding", "maximal_pair_quotients", "maximal_triple_quotients",
        "maximal_jordan_algebra_quotients"),
    "serialize": ("AlgebraFile", "parse_algebra", "serialize_algebra"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from gradlie import gallery` finds a submodule
        raise AttributeError("module 'gradlie' has no attribute %r" % name)
    # python -X importtime reports __import__, not importlib.import_module
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
