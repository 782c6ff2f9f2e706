"""Command line driver.

Subcommands operate on algebra files (see serialize) and print either a
human-readable report or, with --format json, one JSON object with the
same fields.  Exit codes are uniform across commands: 0 the property
holds or the command succeeded, 1 the property is false (a witness is
printed), 2 invalid input or a failed precondition, 3 the verdict is
undecided or only verified on witnesses.

Each command is one process, so its start-up is part of what a user
waits for: the module level holds only what every command uses (the
budget, the errors, the scalars, linalg and the file format), and each
command imports the layers it needs inside its function.  analyze of a
Lie file loads no derivations, Jordan, associative or gallery module,
and validate or tkk of a pair file no analysis or derivations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .enumeration import resolve_budget
from .errors import (
    GradlieError,
    NonzeroCenter,
    NotSemiprime,
    ParseError,
    UndecidedError,
)
from .linalg import rank
from .scalars import GF, QQ
from .serialize import (canonical_json, load_path, rows_to_json,
                        serialize_algebra)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


def format_vector(field, names, vec):
    """Render a coordinate vector as a named linear combination."""
    parts = []
    for c, nm in zip(vec, names):
        if c == field.zero:
            continue
        if c == field.one:
            parts.append(nm)
        else:
            parts.append("%s*%s" % (field.format(c), nm))
    return " + ".join(parts) if parts else "0"


def _emit(report, fmt, lines):
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        for line in lines:
            print(line)


def _emit_verdict(v, report, fmt, witness):
    """Prints a Verdict after the report's own fields: its value, its
    witness through witness(v.witness) when it has one, and its reason;
    returns the exit code of its value."""
    report.update(verdict=v.value, reason=v.reason)
    lines = ["verdict: %s" % v.value]
    if v.witness is not None:
        report["witness"] = w = witness(v.witness)
        lines.append("witness: %s" % w)
    if v.reason:
        lines.append("reason: %s" % v.reason)
    _emit(report, fmt, lines)
    return {"true": EXIT_OK, "false": EXIT_FALSE}.get(v.value, EXIT_UNDECIDED)


# -- validate ----------------------------------------------------------------


def cmd_validate(args):
    af = load_path(args.file)
    alg = af.algebra
    report = {"kind": af.kind, "valid": True}
    lines = ["kind: %s" % af.kind, "valid: true"]
    if af.kind == "jordan_pair":
        report["dims"] = list(alg.dims())
        lines.append("dims: %d + %d" % alg.dims())
    else:
        report["dim"] = alg.dim
        lines.append("dim: %d" % alg.dim)
    if af.subspace is not None:
        if af.kind == "jordan_pair":
            report["subpair_dims"] = list(af.subspace.dims())
            lines.append("subpair dims: %d + %d" % af.subspace.dims())
        else:
            report["subalgebra_dim"] = af.subspace.dim
            lines.append("subalgebra dim: %d" % af.subspace.dim)
    _emit(report, args.format, lines)
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args):
    af = load_path(args.file)
    alg = af.algebra
    report = {"kind": af.kind}
    lines = ["kind: %s" % af.kind]

    def put(key, value, text=None):
        report[key] = value
        lines.append("%s: %s" % (key.replace("_", " "),
                                 text if text is not None else value))

    if af.kind == "lie":
        from .analysis import structure_report
        rep = structure_report(alg, budget=args.budget)
        put("dim", alg.dim)
        put("support", sorted(alg.support()))
        put("center_dim", rep.center_dim)
        if rep.killing_det is not None:
            put("killing_det", str(rep.killing_det))
        put("semiprime", rep.semiprime,
            "%s (%s)" % (rep.semiprime, rep.methods["semiprime"]))
        put("prime", rep.prime,
            "%s (%s)" % (rep.prime, rep.methods["prime"]))
        put("strongly_nondegenerate", rep.strongly_nondegenerate,
            "%s (%s)" % (rep.strongly_nondegenerate,
                         rep.methods["strongly-nondegenerate"]))
        if rep.socle_dim is None:
            put("socle_dim", None, "undecided (%s)" % rep.methods["socle"])
        else:
            put("socle_dim", rep.socle_dim)
    elif af.kind == "assoc":
        put("dim", alg.dim)
        put("support", sorted(set(alg.degrees)))
        put("has_involution", alg.involution is not None)
        if alg.involution is not None:
            put("skew_dim", alg.skew_elements().dim)
    elif af.kind == "jordan_pair":
        from .jordan import (pair_is_semiprime,
                             pair_is_strongly_nondegenerate, tkk)
        put("dims", list(alg.dims()))
        # a pair without absolute zero divisors is semiprime, and both
        # walks charge the budget alike, so the first walk can answer both
        strong = pair_is_strongly_nondegenerate(alg, budget=args.budget)
        put("semiprime", strong or pair_is_semiprime(alg, budget=args.budget))
        put("strongly_nondegenerate", strong)
        put("tkk_dim", tkk(alg).dim)
    elif af.kind == "jordan_triple":
        from .jordan import pair_is_semiprime
        put("dim", alg.dim)
        put("semiprime", pair_is_semiprime(alg.double, budget=args.budget))
    elif af.kind == "jordan_algebra":
        put("dim", alg.dim)
        u = alg.unit()
        put("unital", u is not None)
    _emit(report, args.format, lines)
    return EXIT_OK


# -- qmax --------------------------------------------------------------------


def cmd_qmax(args):
    af = load_path(args.file)
    alg = af.algebra
    if af.kind != "lie":
        raise GradlieError("qmax expects a lie file")
    from .derivations import maximal_quotients
    mq = maximal_quotients(alg, graded=args.graded, budget=args.budget)
    qm = mq.algebra
    f = alg.field
    doc = json.loads(serialize_algebra(qm))
    comp = {}
    for d in sorted(qm.support()):
        comp[str(d)] = qm.degree_component(d).dim
    report = {
        "graded": bool(args.graded),
        "qmax": doc,
        "dim": qm.dim,
        "embedding": rows_to_json(f, mq.embedding),
        "embedding_rank": rank(f, mq.embedding),
        "witness_ideal": rows_to_json(f, mq.witness_ideal.rows),
        "witness_ideal_dim": mq.witness_ideal.dim,
        "component_dims": comp,
    }
    lines = [
        "maximal quotients dim: %d" % qm.dim,
        "component dims: %s" % (comp,),
        "witness ideal dim: %d" % mq.witness_ideal.dim,
        "embedding rank: %d (of %d)" % (report["embedding_rank"], alg.dim),
    ]
    _emit(report, args.format, lines)
    return EXIT_OK


# -- check-quotient ----------------------------------------------------------


def cmd_check_quotient(args):
    af = load_path(args.file)
    alg = af.algebra
    emb = af.embedding
    if af.kind != "lie" or emb is None:
        raise GradlieError("check-quotient expects a lie file with a "
                           "subalgebra entry")
    from .derivations import is_quotient, is_weak_quotient
    if args.weak:
        v = is_weak_quotient(emb, graded=args.graded, budget=args.budget)
    else:
        v = is_quotient(emb, graded=args.graded, budget=args.budget)
    return _emit_verdict(
        v, {"graded": bool(args.graded), "weak": bool(args.weak)},
        args.format, lambda w: format_vector(alg.field, alg.names, w))


# -- jordan commands ---------------------------------------------------------


def cmd_tkk(args):
    af = load_path(args.file)
    if af.kind != "jordan_pair":
        raise GradlieError("tkk expects a jordan_pair file")
    from .jordan import tkk
    sys.stdout.write(serialize_algebra(tkk(af.algebra)))
    return EXIT_OK


def cmd_mquotients(args):
    af = load_path(args.file)
    if af.kind != "jordan_pair" or af.embedding is None:
        raise GradlieError("mquotients expects a jordan_pair file with a "
                           "subpair entry")
    from .jordan import is_pair_of_quotients
    pair = af.algebra

    def witness(w):
        sign, vec = w
        return "%s side: %s" % ("plus" if sign > 0 else "minus",
                                format_vector(pair.field, pair.names(sign),
                                              vec))

    return _emit_verdict(is_pair_of_quotients(af.embedding,
                                              budget=args.budget),
                         {}, args.format, witness)


def cmd_jmax(args):
    af = load_path(args.file)
    alg = af.algebra
    f = alg.field
    if af.kind == "jordan_pair":
        from .jordan import maximal_pair_quotients
        out = maximal_pair_quotients(alg, budget=args.budget)
        result = out.pair
        doc = json.loads(serialize_algebra(result))
        report = {
            "kind": "jordan_pair",
            "result": doc,
            "dims": list(result.dims()),
            "embedding_plus": rows_to_json(f, out.plus_map),
            "embedding_minus": rows_to_json(f, out.minus_map),
            "verdict": out.verdict.value,
        }
        lines = ["maximal pair quotients dims: %d + %d" % result.dims(),
                 "decider on the result: %s" % out.verdict.value]
    elif af.kind == "jordan_triple":
        from .jordan import maximal_triple_quotients
        out = maximal_triple_quotients(alg, budget=args.budget)
        doc = json.loads(serialize_algebra(out.triple))
        report = {
            "kind": "jordan_triple",
            "result": doc,
            "dim": out.triple.dim,
            "embedding": rows_to_json(f, out.embedding),
            "verdict": out.pairs.verdict.value,
        }
        lines = ["maximal triple quotients dim: %d" % out.triple.dim,
                 "decider on the double pair: %s" % out.pairs.verdict.value]
    elif af.kind == "jordan_algebra":
        from .jordan import maximal_jordan_algebra_quotients
        out = maximal_jordan_algebra_quotients(alg, budget=args.budget)
        doc = json.loads(serialize_algebra(out.algebra))
        report = {
            "kind": "jordan_algebra",
            "result": doc,
            "dim": out.algebra.dim,
            "embedding": rows_to_json(f, out.embedding),
            "verdict": out.triples.pairs.verdict.value,
        }
        lines = ["maximal algebra quotients dim: %d" % out.algebra.dim,
                 "decider on the double pair: %s"
                 % out.triples.pairs.verdict.value]
    else:
        raise GradlieError("jmax expects a Jordan pair, triple, or algebra")
    _emit(report, args.format, lines)
    return EXIT_OK


# -- gallery -----------------------------------------------------------------

_PARAM_RE = re.compile(r"^([a-z0-9_]+)\((\d+(?:,\d+)?)\)$")

GALLERY_CAP = 6


def _gallery_object(name, field):
    from . import gallery
    m = _PARAM_RE.match(name)
    if m:
        base, params = m.group(1), [int(x) for x in m.group(2).split(",")]
        if any(p < 1 or p > GALLERY_CAP for p in params):
            raise GradlieError("gallery parameters must be in 1..%d"
                               % GALLERY_CAP)
        if base == "sln_e11" and len(params) == 1:
            if params[0] < 2:
                raise GradlieError("sln_e11 needs n >= 2")
            return gallery.sln_e11(params[0], field), None
        if base == "m_n_transpose" and len(params) == 1:
            return gallery.m_n_transpose(params[0], field), None
        if base == "pair_rect" and len(params) == 2:
            return gallery.pair_rect(params[0], params[1], field), None
        raise GradlieError("unknown gallery name %r" % name)
    if name == "sl2":
        return gallery.sl2(field), None
    if name == "sl2sum":
        return gallery.sl2sum(field), None
    if name == "heis3":
        return gallery.heis3(field), None
    if name == "p_mod_i":
        alg = gallery.p_mod_i(field)
        return alg, gallery.p_mod_i_small(alg)
    if name == "pair_field":
        return gallery.pair_field(field), None
    if name == "pair_zero":
        return gallery.pair_zero(1, 1, field), None
    if name == "pair_padded":
        pair = gallery.pair_padded(field)
        return pair, gallery.padded_subpair(pair)
    raise GradlieError("unknown gallery name %r" % name)


def cmd_gallery(args):
    spec = args.scalars
    if spec in (None, "Q", "q"):
        field = QQ
    elif spec.isascii() and spec.isdigit():
        field = GF(int(spec))
    else:
        raise ParseError("scalars must be Q or a prime, got %r" % spec)
    obj, sub = _gallery_object(args.name, field)
    sys.stdout.write(serialize_algebra(obj, sub))
    return EXIT_OK


# -- driver ------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="gradlie",
        description="Exact computations with graded Lie algebras, their "
                    "maximal algebras of quotients, and Jordan systems.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("text", "json"),
                        default="text")
        sp.add_argument("--budget", default=None,
                        help="enumeration cap (overrides GRADLIE_BUDGET)")
        return sp

    sp = add("validate", cmd_validate, help="parse and validate a file")
    sp.add_argument("file")

    sp = add("analyze", cmd_analyze, help="structure report")
    sp.add_argument("file")

    sp = add("qmax", cmd_qmax, help="maximal algebra of quotients")
    sp.add_argument("file")
    sp.add_argument("--graded", action="store_true")

    sp = add("check-quotient", cmd_check_quotient,
             help="is the file's algebra a quotient algebra of its "
                  "marked subalgebra?")
    sp.add_argument("file")
    sp.add_argument("--graded", action="store_true")
    sp.add_argument("--weak", action="store_true")

    sp = add("tkk", cmd_tkk, help="3-graded Lie algebra of a Jordan pair")
    sp.add_argument("file")

    sp = add("mquotients", cmd_mquotients,
             help="is the file's pair a pair of quotients of its marked "
                  "subpair?")
    sp.add_argument("file")

    sp = add("jmax", cmd_jmax,
             help="maximal quotients of a Jordan pair/triple/algebra")
    sp.add_argument("file")

    sp = add("gallery", cmd_gallery, help="emit a built-in example file")
    sp.add_argument("name")
    sp.add_argument("--scalars", default=None,
                    help="Q (default) or a prime p for F_p")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a malformed budget is invalid input, whatever the command
        args.budget = resolve_budget(args.budget)
        return args.fn(args)
    except UndecidedError as exc:
        print("undecided: %s" % exc, file=sys.stderr)
        return EXIT_UNDECIDED
    except (NotSemiprime, NonzeroCenter) as exc:
        print("precondition failed: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INVALID
    except GradlieError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
