"""The library holds what its commands call: every module-level function
and public method in src/gradlie has a caller in src/gradlie or demos/,
is exported in gradlie.__all__, or is named in ALLOWED with the reason it
stays.  The examples in gallery.py are inputs that tests, demos, perfbench
and tools build, so each of its module-level functions and names needs a
reference anywhere in src, demos, tests, perfbench or tools instead.  A
caller is a reference by name (a call, an attribute read, a function
passed as a value) outside the definition's own body.  Names are matched
without types, so a method counts as called when any definition of the
same name is referenced; SHARED therefore lists the names defined more
than once, each definition with the caller that keeps it, and a name that
joins or leaves that set fails until it has been checked by hand."""

import ast
from collections import Counter
from pathlib import Path

import gradlie

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradlie"

ALLOWED = {
    "distinct_principal_pair_ideals": "bound by perfbench/tracer.py",
    "rref": "bound by perfbench/tracer.py; the tests' echelon oracle",
    "GradedLieAlgebra.is_subalgebra": "called by perfbench/tests",
    "AxiomaticReport.passed": "read by perfbench/questions.py",
    "__getattr__": "called by the import system for a name not yet loaded "
                   "(PEP 562)",
    "__dir__": "called by dir(gradlie) (PEP 562)",
}


# name: {definition: the caller, module and function, that keeps it}
SHARED = {
    "add": {"GradingGroup.add": "lie.py GradedLieAlgebra.__init__",
            "Subspace.add": "analysis.py _scan_step"},
    "basis_vector": {
        "AssocAlgebra.basis_vector": "assoc.py check_central_quotients",
        "GradedLieAlgebra.basis_vector": "derivations.py maximal_quotients"},
    "dim": {"AssocAlgebra.dim": "assoc.py check_central_quotients",
            "DerivationSpace.dim": "derivations.py check_axiomatic",
            "JordanPair.dim": "jordan.py _killers",
            "InnerDerivationSpace.dim": "jordan.py _exchange_matrix",
            "JordanTriple.dim": "cli.py cmd_jmax",
            "JordanAlgebra.dim": "cli.py cmd_jmax",
            "GradedLieAlgebra.dim": "lie.py GradedLieAlgebra.zero_space",
            "Subspace.dim": "cli.py cmd_qmax"},
    "dims": {"JordanPair.dims": "cli.py cmd_validate",
             "SubPair.dims": "cli.py cmd_validate"},
    "intersect": {"SubPair.intersect": "jordan.py _certificate",
                  "Subspace.intersect": "derivations.py is_quotient"},
    "is_zero": {"SubPair.is_zero": "jordan.py _certificate",
                "Subspace.is_zero": "analysis.py _last_derived_term"},
    "reduce": {"Subspace.reduce": "lie.py GradedLieAlgebra.quotient_by_ideal",
               "Field.reduce": "tables.py bilinear"},
    "triple": {"JordanPair.triple": "jordan.py JordanPair.d_matrix",
               "JordanTriple.triple":
                   "jordan.py maximal_jordan_algebra_quotients"},
    "vec": {"AssocAlgebra.vec": "assoc.py AssocAlgebra.star",
            "GradedLieAlgebra.vec": "derivations.py envelope"},
    "zero": {"JordanPair.zero": "jordan.py pair_ideal_generated",
             "GradingGroup.zero": "assoc.py AssocAlgebra.__init__",
             "Subspace.zero": "analysis.py _components"},
}


def _references(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions and the
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield "%s.%s" % (node.name, sub.name), sub.name, sub


def _parse(*dirs):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def test_every_library_function_has_a_caller():
    trees = _parse("src/gradlie", "demos")
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    uncalled = []
    for path, tree in trees.items():
        if path.parent != SRC or path.name == "gallery.py":
            continue
        for qualified, name, node in _definitions(tree):
            outside = refs[name] - _references(node)[name]
            if (outside == 0 and name not in gradlie.__all__
                    and qualified not in ALLOWED):
                uncalled.append("%s: %s" % (path.name, qualified))
    assert uncalled == []


def test_every_gallery_name_is_used():
    trees = _parse("src", "demos", "tests", "perfbench", "tools")
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unused = []
    for node in trees[SRC / "gallery.py"].body:
        names = ([node.name] if isinstance(node, ast.FunctionDef) else
                 [t.id for t in getattr(node, "targets", ())
                  if isinstance(t, ast.Name)])
        unused += [name for name in names
                   if refs[name] == _references(node)[name]]
    assert unused == []


def test_allowed_names_still_exist():
    names = {qualified for path in SRC.glob("*.py")
             for qualified, _, _ in _definitions(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= names


def test_names_defined_twice_are_checked_by_hand():
    defined = {}
    for path in SRC.glob("*.py"):
        for qualified, name, _ in _definitions(
                ast.parse(path.read_text(encoding="utf-8"))):
            defined.setdefault(name, set()).add(qualified)
    assert {name: qualified for name, qualified in defined.items()
            if len(qualified) > 1} == {name: set(callers) for name, callers
                                       in SHARED.items()}


def _package_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "gradlie"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "gradlie" for alias in node.names)


_COMMAND = "each command imports the layers it runs, no others"
_KIND = "a file loads the layers of its kind only"
_PAIRS = ("pairs, triples and their TKK algebras are built and checked "
          "without the Lie ideal lattice")

# (module, function, imported module): why the import waits for the call
DEFERRED = {
    ("enumeration.py", "find_absolute_zero_divisor", "analysis"):
        "breaks a cycle: analysis imports enumeration at module level",
    ("cli.py", "cmd_analyze", "analysis"): _COMMAND,
    ("cli.py", "cmd_analyze", "jordan"): _COMMAND,
    ("cli.py", "cmd_qmax", "derivations"): _COMMAND,
    ("cli.py", "cmd_check_quotient", "derivations"): _COMMAND,
    ("cli.py", "cmd_tkk", "jordan"): _COMMAND,
    ("cli.py", "cmd_mquotients", "jordan"): _COMMAND,
    ("cli.py", "cmd_jmax", "jordan"): _COMMAND,
    ("cli.py", "_gallery_object", None): _COMMAND,
    ("serialize.py", "serialize_algebra", "jordan"): _KIND,
    ("serialize.py", "parse_algebra", "jordan"): _KIND,
    ("serialize.py", "parse_algebra", "derivations"): _KIND,
    ("jordan.py", "_divisor_candidates", "analysis"): _PAIRS,
    ("jordan.py", "associated_pair", "analysis"): _PAIRS,
    ("jordan.py", "is_pair_of_quotients", "derivations"): _PAIRS,
    ("jordan.py", "tkk_embedding", "derivations"): _PAIRS,
    ("jordan.py", "maximal_pair_quotients", "derivations"): _PAIRS,
}


def test_package_imports_sit_at_module_level():
    # an import of the package inside a function hides a dependency of
    # its module, so each one kept is listed in DEFERRED with its reason
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if _package_import(node):
                        found.add((path.name, func.name, node.module))
    assert found == set(DEFERRED)
