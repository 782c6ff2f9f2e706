"""The algebra-file interchange format and the command line surface.

A parse that returns is a certified object: every constructor rechecks its
axioms, so the error tests below double as validation tests.  CLI checks
call main() in-process and assert on exit codes and captured output; the
start-up checks run a fresh interpreter, since in-process imports are
already cached.
"""

import ast
import itertools
import json
import subprocess
import sys

import pytest

import gradlie.jordan as J
from _naive import change_basis, dump_path
from gradlie.cli import main
from gradlie.errors import JacobiViolation, ParseError, ValidationError
from gradlie.jordan import PairEmbedding, SubPair
from gradlie.lie import GradedLieAlgebra
from gradlie.linalg import span
from gradlie.gallery import (
    heis3,
    jordan_sym2,
    m_n_transpose,
    p_mod_i,
    p_mod_i_small,
    pair_padded,
    pair_rect,
    pair_zero,
    padded_subpair,
    sl2,
    sl2sum,
    sln_e11,
    triple_2xyz,
)
from gradlie.serialize import (
    load_path,
    parse_algebra,
    serialize_algebra,
)
from gradlie.scalars import GF, QQ

F5 = GF(5)


# -- roundtrips ---------------------------------------------------------------


def test_lie_roundtrip_is_canonical():
    text = serialize_algebra(sl2())
    af = parse_algebra(text)
    assert af.kind == "lie"
    assert af.algebra == sl2()
    assert serialize_algebra(af.algebra) == text
    assert text.endswith("\n")


def test_lie_roundtrip_over_f5():
    text = serialize_algebra(heis3(F5))
    af = parse_algebra(text)
    assert af.algebra.field.p == 5
    assert serialize_algebra(af.algebra) == text


def test_assoc_roundtrip_keeps_involution():
    a = m_n_transpose(2)
    text = serialize_algebra(a)
    af = parse_algebra(text)
    assert af.kind == "assoc"
    assert af.algebra.involution == a.involution
    assert serialize_algebra(af.algebra) == text


def test_pair_triple_algebra_roundtrips():
    for obj, kind in ((pair_rect(1, 2, F5), "jordan_pair"),
                      (triple_2xyz(), "jordan_triple"),
                      (jordan_sym2(), "jordan_algebra")):
        text = serialize_algebra(obj)
        af = parse_algebra(text)
        assert af.kind == kind
        assert serialize_algebra(af.algebra) == text


def test_subalgebra_marker_roundtrip():
    a = p_mod_i()
    text = serialize_algebra(a, subspace=p_mod_i_small(a))
    af = parse_algebra(text)
    assert af.subspace is not None
    assert af.subspace.dim == 6
    assert serialize_algebra(af.algebra, subspace=af.subspace) == text


def test_subpair_marker_roundtrip():
    pp = pair_padded()
    text = serialize_algebra(pp, subspace=padded_subpair(pp))
    af = parse_algebra(text)
    assert af.subspace.dims() == (1, 1)
    assert serialize_algebra(af.algebra, subspace=af.subspace) == text


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_every_kind_roundtrips_byte_identically(field):
    pmi, pp = p_mod_i(field), pair_padded(field)
    cases = [(pmi, None), (pmi, p_mod_i_small(pmi)),
             (m_n_transpose(2, field), None), (pp, None),
             (pp, padded_subpair(pp)), (triple_2xyz(field), None),
             (jordan_sym2(field), None)]
    for obj, subspace in cases:
        text = serialize_algebra(obj, subspace)
        af = parse_algebra(text)
        assert serialize_algebra(af.algebra, subspace) == text


# -- parse and validation failures ---------------------------------------------


def _malformed_documents():
    """(field named in the error, document) for files of the right outline
    whose values have the wrong JSON types."""
    def doc(obj, subspace=None):
        return json.loads(serialize_algebra(obj, subspace=subspace))

    pp, pmi = pair_padded(), p_mod_i()
    out = []
    for sp in ([1, 2], {"plus": [1]}):
        d = doc(pp, padded_subpair(pp))
        d["subpair"] = sp
        out.append(("subpair", d))
    for sa in ([1, 2], 5):
        d = doc(pmi, p_mod_i_small(pmi))
        d["subalgebra"] = sa
        out.append(("subalgebra", d))
    for table in (3, [5], [["a", 1, []]], [[True, 1, []]]):
        d = doc(sl2())
        d["table"] = table
        out.append(("table", d))
    d = doc(pair_rect(1, 2))
    d["table"]["plus"].append(5)
    out.append(("table plus", d))
    d = doc(jordan_sym2())
    d["table"] = 3
    out.append(("table", d))
    for grading in ("Z", {"group": "Z", "degrees": ["x", 0, 0]},
                    {"group": {"Zn": 0}, "degrees": [0, 0, 0]}):
        d = doc(sl2())
        d["grading"] = grading
        out.append(("grading", d))
    for scalar in ([1], 1):
        d = doc(sl2())
        d["table"][0][2][0][1] = scalar
        out.append(("table cell", d))
    # each table lists the index tuples its kind stores: i < j for lie,
    # i <= j for jordan_algebra, every one for the other kinds
    for i, j in ((1, 0), (1, 1)):
        d = doc(sl2())
        d["table"][0][:2] = [i, j]
        out.append(("lie table", d))
    d = doc(jordan_sym2())
    d["table"][1][:2] = [1, 0]
    out.append(("table", d))
    # an index out of range in a table of each kind, at every position
    tables = [("lie table", sl2(), None, 2),
              ("table", m_n_transpose(2), None, 2),
              ("table", jordan_sym2(), None, 2),
              ("table", triple_2xyz(), None, 3),
              ("table plus", pair_rect(1, 2), "plus", 3),
              ("table minus", pair_rect(1, 2), "minus", 3)]
    for field, obj, part, arity in tables:
        for pos, index in itertools.product(range(arity), (-1, 9)):
            d = doc(obj)
            entries = d["table"][part] if part else d["table"]
            entries[0][pos] = index
            out.append((field, d))
    return out


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_algebra("not json at all {")
    with pytest.raises(ParseError):
        parse_algebra("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"format": "algebra-file", "version": 2}))
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(
            {"format": "algebra-file", "version": 1, "kind": "sandwich"}))
    # each a ParseError naming the field, not a TypeError or AttributeError
    for field, doc in _malformed_documents():
        with pytest.raises(ParseError, match=field):
            parse_algebra(json.dumps(doc))


def test_cli_validate_exits_2_on_malformed_values(tmp_path, capsys):
    for k, (_field, doc) in enumerate(_malformed_documents()):
        bad = tmp_path / ("bad%d.json" % k)
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert "error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_a_kind_that_is_not_a_string_is_invalid_input(tmp_path, capsys,
                                                      kind):
    # an unhashable kind is a ParseError and exit 2, not a TypeError
    doc = json.loads(serialize_algebra(sl2()))
    doc["kind"] = kind
    with pytest.raises(ParseError, match="kind"):
        parse_algebra(json.dumps(doc))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "analyze"):
        assert main([command, str(bad)]) == 2
        assert "error: ParseError" in capsys.readouterr().err


def test_open_marks_are_rejected(tmp_path, capsys):
    # sl2 marking span(e, f), whose [e, f] = h is outside, and
    # pair_rect(2, 2) marking span(e11, e22) + span(f12), whose
    # {e11, f12, e22} = e12 is outside
    a = sl2()
    pair = pair_rect(2, 2)
    files = [(a, span(QQ, 3, [a.basis_vector(0), a.basis_vector(1)])),
             (pair, SubPair(span(QQ, 4, [(1, 0, 0, 0), (0, 0, 0, 1)]),
                            span(QQ, 4, [(0, 1, 0, 0)])))]
    for k, (obj, mark) in enumerate(files):
        text = serialize_algebra(obj, mark)
        with pytest.raises(ValidationError):
            parse_algebra(text)
        bad = tmp_path / ("open%d.json" % k)
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        assert "error: ValidationError" in capsys.readouterr().err


def test_parse_rejects_bad_scalars():
    doc = json.loads(serialize_algebra(sl2()))
    doc["scalars"] = {"Fp": 6}
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))
    doc2 = json.loads(serialize_algebra(sl2()))
    for entry in doc2["table"]:
        entry[2][0][1] = "1/0"
        break
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc2))


def test_parse_rejects_out_of_range_indices():
    doc = json.loads(serialize_algebra(sl2()))
    doc["table"][0][2][0][0] = 17
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_degree_mismatch():
    doc = json.loads(serialize_algebra(sl2()))
    doc["grading"]["degrees"] = [1, -1]
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))
    doc["grading"] = {"group": "trivial", "degrees": [0, 0, 1]}
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


def test_parse_runs_axiom_validation():
    doc = json.loads(serialize_algebra(sl2()))
    # flip the sign of [e, h] only; the (e, f, h) Jacobi cycle then sums
    # to -4h (flipping [e, f] alone would just rescale a basis vector)
    for entry in doc["table"]:
        if entry[0] == 0 and entry[1] == 2:
            for pair in entry[2]:
                pair[1] = pair[1].lstrip("-") if pair[1].startswith("-") \
                    else "-" + pair[1]
    with pytest.raises(JacobiViolation):
        parse_algebra(json.dumps(doc))


def test_at_most_one_marked_subobject():
    doc = json.loads(serialize_algebra(p_mod_i(),
                                       subspace=p_mod_i_small(p_mod_i())))
    doc["subpair"] = {"plus": [], "minus": []}
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


# -- command line ---------------------------------------------------------------


@pytest.fixture
def pmi_file(tmp_path):
    a = p_mod_i()
    path = tmp_path / "pmi.json"
    dump_path(str(path), a, subspace=p_mod_i_small(a))
    return str(path)


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    dump_path(str(path), sl2())
    return str(path)


def test_cli_validate(sl2_file, capsys):
    assert main(["validate", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "kind: lie" in out and "dim: 3" in out


def test_cli_validate_rejects_corrupt_files(tmp_path, capsys):
    doc = json.loads(serialize_algebra(sl2()))
    doc["table"][0][2][0][1] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nope.json"]) == 2


def test_cli_analyze_text_and_json(sl2_file, capsys):
    assert main(["analyze", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "semiprime: True (killing-criterion)" in out
    assert main(["analyze", "--format", "json", sl2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semiprime"] is True and doc["dim"] == 3


def test_cli_analyze_says_what_refused_an_undecided_answer(tmp_path, capsys):
    # --format json has no methods, so only the text names the refusal
    for name, make, line in (
            ("heis3", heis3, "socle dim: undecided (the envelope of "
                             "dimension 3 is over the budget)"),
            ("sl3", lambda: sln_e11(3), "prime: None (the centroid of "
                                        "dimension 8 is over the budget)")):
        path = tmp_path / (name + ".json")
        dump_path(str(path), make())
        assert main(["analyze", "--budget", "1", str(path)]) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_cli_qmax(sl2_file, capsys):
    assert main(["qmax", "--format", "json", sl2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3
    assert doc["embedding_rank"] == 3


def test_cli_check_quotient_exit_codes(pmi_file, capsys):
    assert main(["check-quotient", "--graded", "--weak", pmi_file]) == 0
    capsys.readouterr()
    assert main(["check-quotient", "--graded", pmi_file]) == 1
    out = capsys.readouterr().out
    assert "witness: x3" in out


# sympy (factoring a centroid of dimension > 2 over Q) is imported where
# it is used, and gradlie never uses numpy; a fresh process doing work
# over Q must load neither, nor one running the mod-p scans.
_HEAVY = {"numpy", "sympy"}

_RUN_CLI_THEN_REPORT = """
import runpy, sys
try:
    runpy.run_module("gradlie", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("exit", code, "loaded", sorted(set(sys.modules) & %r))
""" % (_HEAVY,)


def _fresh_python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_gradlie_loads_neither_numpy_nor_sympy():
    last = _fresh_python(
        "-c", "import sys, gradlie; "
        "print('loaded', sorted(set(sys.modules) & %r))" % (_HEAVY,))
    assert last == "loaded []"


def test_principal_ideal_scan_loads_neither_numpy_nor_sympy():
    last = _fresh_python(
        "-c", "import sys; from gradlie import GF, gallery; "
        "from gradlie.enumeration import distinct_principal_ideals; "
        "n = len(distinct_principal_ideals(gallery.sl2sum(GF(5)))); "
        "print(n, 'loaded', sorted(set(sys.modules) & %r))" % (_HEAVY,))
    assert last == "3 loaded []"


def test_cli_check_quotient_over_q_loads_neither_numpy_nor_sympy(pmi_file):
    weak = _fresh_python("-c", _RUN_CLI_THEN_REPORT, "check-quotient",
                         "--graded", "--weak", pmi_file)
    assert weak == "exit 0 loaded []"
    strict = _fresh_python("-c", _RUN_CLI_THEN_REPORT, "check-quotient",
                           "--graded", pmi_file)
    assert strict == "exit 1 loaded []"


def test_cli_analyze_over_f5_loads_no_numpy(tmp_path):
    # analyze runs both F_p scans, the absolute-zero-divisor one included
    path = tmp_path / "sl2sum5.json"
    dump_path(str(path), sl2sum(F5))
    last = _fresh_python("-c", _RUN_CLI_THEN_REPORT, "analyze", str(path))
    assert last == "exit 0 loaded []"


# each command imports the layers it runs (gradlie.cli), so a fresh
# process loads no other layer, and no dataclasses (with its inspect)
_RUN_CLI_THEN_LIST_LAYERS = """
import runpy, sys
try:
    runpy.run_module("gradlie", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("exit", code, "loaded", sorted(
    m for m in sys.modules if m.startswith("gradlie.") or m == "dataclasses"))
"""


def _cli_layers(*argv):
    """(exit code, the gradlie modules and dataclasses loaded) of one
    command in a fresh process."""
    words = _fresh_python("-c", _RUN_CLI_THEN_LIST_LAYERS, *argv).split()
    assert words[0] == "exit" and words[2] == "loaded"
    return int(words[1]), set(ast.literal_eval(" ".join(words[3:])))


def test_import_gradlie_loads_no_submodule():
    last = _fresh_python(
        "-c", "import sys, gradlie; print(sorted(m for m in sys.modules "
        "if m.startswith('gradlie.')))")
    assert last == "[]"


def test_cli_analyze_of_a_lie_file_loads_only_the_lie_layers(sl2_file):
    code, loaded = _cli_layers("analyze", sl2_file)
    assert code == 0 and "gradlie.analysis" in loaded
    assert loaded.isdisjoint({"gradlie.jordan", "gradlie.assoc",
                              "gradlie.derivations", "gradlie.gallery",
                              "dataclasses"})


def test_cli_quotient_commands_load_no_jordan_layer(sl2_file, pmi_file):
    for argv in (("qmax", sl2_file), ("check-quotient", "--graded",
                                      pmi_file)):
        code, loaded = _cli_layers(*argv)
        assert code in (0, 1) and "gradlie.derivations" in loaded
        assert loaded.isdisjoint({"gradlie.jordan", "gradlie.assoc",
                                  "gradlie.gallery"})


def test_cli_validate_and_tkk_of_a_pair_file_load_no_lie_lattice(tmp_path):
    path = tmp_path / "padded.json"
    pair = pair_padded()
    dump_path(str(path), pair, padded_subpair(pair))
    for command in ("validate", "tkk"):
        code, loaded = _cli_layers(command, str(path))
        assert code == 0 and "gradlie.jordan" in loaded
        assert loaded.isdisjoint({"gradlie.analysis", "gradlie.derivations"})


def _importtime(*args):
    """The modules that python -X importtime lists for one process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def test_importtime_lists_the_layers_loaded_on_demand(tmp_path):
    # serialize loads gradlie.jordan for a pair file, and the package
    # loads it for an exported name of that layer
    path = tmp_path / "padded.json"
    dump_path(str(path), pair_padded())
    timed = _importtime("-m", "gradlie", "validate", str(path))
    assert "gradlie.jordan" in timed and "gradlie.serialize" in timed
    assert "gradlie.jordan" in _importtime(
        "-c", "import gradlie; gradlie.JordanPair")


def test_the_lazy_package_resolves_every_exported_name():
    # each name of __all__ is the object its module defines, through a
    # star import and through an attribute read, and dir() lists it
    last = _fresh_python("-c", """
import sys, gradlie
star = {}
exec("from gradlie import *", star)
homes = [m for k, m in list(sys.modules.items()) if k.startswith("gradlie.")]
names = sorted(n for n in star if n != "__builtins__")
print(names == sorted(gradlie.__all__),
      all(any(getattr(m, n, None) is getattr(gradlie, n) is star[n]
              for m in homes) for n in gradlie.__all__),
      set(gradlie.__all__) <= set(dir(gradlie)), len(gradlie.__all__))
""")
    assert last == "True True True 53"


def test_structure_report_over_q_loads_no_sympy(tmp_path):
    # sl2 and sl3 have one dimensional centroids and sl2sum splits at a
    # basis vector into two pieces with one dimensional centroids, so no
    # centroid is factored, neither for primeness nor for the minimal
    # ideals.  The dense basis change has upper unitriangular all-ones
    # blocks, one per degree; its last row in each block stays inside one
    # summand of sl2sum.  A basis in which every vector meets both
    # summands (gallery.sl2sum_swap) is split by factoring its centroid
    # of dimension 2, which needs no sympy either (the test below).
    paths = []
    for alg in (sl2(), sl2sum(), sln_e11(3)):
        n = alg.dim
        rows = [tuple(int(alg.degrees[c] == alg.degrees[r] and c >= r)
                      for c in range(n)) for r in range(n)]
        for name, a in (("gallery", alg), ("dense", change_basis(alg, rows))):
            path = tmp_path / ("%s_%d.json" % (name, n))
            dump_path(str(path), a)
            paths.append(str(path))
    last = _fresh_python(
        "-c", "import sys; from gradlie.analysis import minimal_ideals, "
        "structure_report; from gradlie.serialize import load_path; "
        "algs = [load_path(p).algebra for p in sys.argv[1:]]; "
        "print([structure_report(a).prime for a in algs], "
        "[[m.dim for m in minimal_ideals(a)] for a in algs[2:4]], "
        "'loaded', sorted(set(sys.modules) & %r))" % (_HEAVY,), *paths)
    assert last == ("[True, True, False, False, True, True] "
                    "[[3, 3], [3, 3]] loaded []")


def test_two_dimensional_centroids_factor_without_sympy():
    # no basis vector of sl2sum_swap or sl2_sqrt2 generates a proper
    # ideal, so primeness and the minimal ideals come from their centroids
    # Q x Q and Q(sqrt 2), of dimension 2: a quadratic minimal polynomial
    # splits, or not, by its discriminant
    last = _fresh_python(
        "-c", "import sys; from gradlie import gallery; "
        "from gradlie.analysis import _minimal_ideals, is_prime, "
        "minimal_ideals, structure_report; "
        "algs = [gallery.sl2sum_swap(), gallery.sl2_sqrt2()]; "
        "print([structure_report(a).prime for a in algs], "
        "[is_prime(a, graded=True) for a in algs], "
        "[[m.dim for m in minimal_ideals(a)] for a in algs], "
        "[[m.dim for m in _minimal_ideals(a, True, None)] for a in algs], "
        "'loaded', sorted(set(sys.modules) & %r))" % (_HEAVY,))
    assert last == ("[False, True] [True, True] [[3, 3], [6]] [[6], [6]] "
                    "loaded []")


def test_cli_tkk_emits_a_lie_file(tmp_path, capsys):
    path = tmp_path / "rect.json"
    dump_path(str(path), pair_rect(1, 2))
    assert main(["tkk", str(path)]) == 0
    af = parse_algebra(capsys.readouterr().out)
    assert af.kind == "lie"
    assert af.algebra.dim == 8


def test_cli_mquotients(tmp_path, capsys):
    pp = pair_padded(F5)
    bad = tmp_path / "padded.json"
    dump_path(str(bad), pp, subspace=padded_subpair(pp))
    assert main(["mquotients", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    ref = tmp_path / "ref.json"
    pf = pair_rect(1, 2)
    from gradlie.jordan import full_subpair
    dump_path(str(ref), pf, subspace=full_subpair(pf))
    assert main(["mquotients", str(ref)]) == 0


def test_cli_jmax(tmp_path, capsys):
    path = tmp_path / "sym2.json"
    dump_path(str(path), jordan_sym2())
    assert main(["jmax", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "true"


@pytest.mark.parametrize("p", [5, 7])
def test_cli_analyze_zero_pair_with_unequal_sides_over_fp(tmp_path, capsys, p):
    # every product vanishes, so the pair is degenerate over every field;
    # jmax refuses it at the nondegeneracy precondition
    path = tmp_path / "pair_zero_2_3.json"
    dump_path(str(path), pair_zero(2, 3, GF(p)))
    assert main(["analyze", str(path)]) == 0
    assert "strongly nondegenerate: False" in capsys.readouterr().out
    assert main(["analyze", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strongly_nondegenerate"] is False
    assert doc["semiprime"] is False
    assert main(["jmax", str(path)]) == 2
    assert "NotStronglyNondegenerate" in capsys.readouterr().err


def test_cli_gallery_is_deterministic(capsys):
    assert main(["gallery", "sl2"]) == 0
    first = capsys.readouterr().out
    assert main(["gallery", "sl2"]) == 0
    assert capsys.readouterr().out == first
    af = parse_algebra(first)
    assert af.algebra == sl2()


def test_cli_gallery_variants(capsys):
    assert main(["gallery", "p_mod_i"]) == 0
    af = parse_algebra(capsys.readouterr().out)
    assert af.subspace is not None and af.subspace.dim == 6
    assert main(["gallery", "--scalars", "5", "heis3"]) == 0
    af5 = parse_algebra(capsys.readouterr().out)
    assert af5.algebra.field.p == 5
    assert main(["gallery", "sln_e11(3)"]) == 0
    assert parse_algebra(capsys.readouterr().out).algebra.dim == 8
    assert main(["gallery", "pair_rect(1,2)"]) == 0
    assert parse_algebra(capsys.readouterr().out).kind == "jordan_pair"
    # the padded pair ships with its live subpair marked so mquotients
    # can run straight off the generated file
    assert main(["gallery", "pair_padded"]) == 0
    padded = parse_algebra(capsys.readouterr().out)
    assert padded.subspace is not None and padded.subspace.dims() == (1, 1)


def test_cli_gallery_rejects_unknown_and_oversized(capsys):
    assert main(["gallery", "so_unknown"]) == 2
    capsys.readouterr()
    assert main(["gallery", "sln_e11(9)"]) == 2
    capsys.readouterr()
    assert main(["gallery", "--scalars", "f5", "sl2"]) == 2


def test_cli_gallery_rejects_scalars_that_are_not_ascii_digits(capsys):
    # '²'.isdigit() holds, but int('²') raises: the spec is invalid input
    assert main(["gallery", "--scalars", "²", "sl2"]) == 2
    assert "scalars must be Q or a prime" in capsys.readouterr().err


def test_cli_budget_flag_surfaces_dimension_errors(tmp_path, capsys):
    h5 = tmp_path / "h5.json"
    dump_path(str(h5), heis3(F5))
    assert main(["analyze", "--budget", "1", str(h5)]) == 2
    assert "error" in capsys.readouterr().err


def test_budget_env_is_honored(tmp_path, capsys, monkeypatch):
    h5 = tmp_path / "h5.json"
    dump_path(str(h5), heis3(F5))
    monkeypatch.setenv("GRADLIE_BUDGET", "1")
    assert main(["analyze", str(h5)]) == 2
    monkeypatch.setenv("GRADLIE_BUDGET", "1000000")
    assert main(["analyze", str(h5)]) == 0


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_malformed_budget_is_invalid_input(tmp_path, capsys, monkeypatch,
                                           value):
    # from either source: exit 2 with an error line naming the source,
    # not a traceback
    path = tmp_path / "pmi5.json"
    a = p_mod_i(F5)
    dump_path(str(path), a, subspace=p_mod_i_small(a))
    monkeypatch.setenv("GRADLIE_BUDGET", value)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GradlieError: GRADLIE_BUDGET ")
    monkeypatch.delenv("GRADLIE_BUDGET")
    assert main(["analyze", "--budget=" + value, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GradlieError: --budget ")


@pytest.mark.parametrize("command, build, mark", [
    ("check-quotient", p_mod_i, p_mod_i_small),
    ("mquotients", lambda: pair_padded(F5), padded_subpair),
])
def test_each_command_embeds_its_mark_once(tmp_path, capsys, monkeypatch,
                                           command, build, mark):
    # the embedding that loading the file builds to check the mark is the
    # one the command decides on
    obj = build()
    path = tmp_path / "marked.json"
    dump_path(str(path), obj, subspace=mark(obj))
    calls = []
    for cls, name in ((GradedLieAlgebra, "restrict"),
                      (PairEmbedding, "__init__")):
        def counted(*args, _inner=getattr(cls, name), _name=name, **kw):
            calls.append(_name)
            return _inner(*args, **kw)
        monkeypatch.setattr(cls, name, counted)
    assert main([command, str(path)]) in (0, 1)
    capsys.readouterr()
    assert calls == (["restrict"] if command == "check-quotient"
                     else ["__init__"])


@pytest.mark.parametrize("build, walks, nondegenerate, semiprime", [
    (lambda: pair_rect(1, 2, F5), 1, True, True),
    (lambda: pair_padded(F5), 2, False, False),
])
def test_analyze_of_a_pair_walks_its_divisors_once_when_it_can(
        tmp_path, capsys, monkeypatch, build, walks, nondegenerate,
        semiprime):
    # a pair without absolute zero divisors is semiprime, so the walk
    # that decides strong nondegeneracy also decides semiprimeness
    path = tmp_path / "pair.json"
    dump_path(str(path), build())
    calls = []

    def counted(pair, budget, _inner=J._divisor_candidates):
        calls.append(budget)
        return _inner(pair, budget)

    monkeypatch.setattr(J, "_divisor_candidates", counted)
    assert main(["analyze", "--format", "json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strongly_nondegenerate"] is nondegenerate
    assert report["semiprime"] is semiprime
    assert len(calls) == walks
