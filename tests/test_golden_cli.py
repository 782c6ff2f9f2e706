"""Golden gate for the command line: recorded JSON output and exit codes.

Every gallery file below is written with ``gradlie gallery`` over Q and
over F5, and each command runs in-process through ``cli.main`` with
``--format json``.  Exit code and stdout must match the files under
``tests/golden/`` byte for byte, so a refactor that changes a verdict, a
witness, a basis or the canonical JSON shows up here.

Every command runs on every gallery file, over both fields.

Regenerate the golden files after an intended output change with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import os
import re

import pytest

from gradlie import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

LIE = ("sl2", "sl2sum", "heis3", "p_mod_i", "sln_e11(3)")
PAIRS = ("pair_field", "pair_padded", "pair_rect(1,2)", "pair_zero")
FIELDS = ("Q", "5")


def _commands(name):
    if name in LIE:
        cmds = ["validate", "analyze", "qmax", "qmax --graded"]
    else:
        cmds = ["validate", "tkk", "jmax"]
    if name == "p_mod_i":
        cmds += ["check-quotient", "check-quotient --graded",
                 "check-quotient --weak", "check-quotient --graded --weak"]
    if name == "pair_padded":
        cmds.append("mquotients")
    return cmds


def _slug(name, field):
    return "%s@%s" % (re.sub(r"[^a-z0-9]+", "_", name).strip("_"), field)


CASES = [(name, field, cmd)
         for field in FIELDS for name in LIE + PAIRS
         for cmd in ["gallery"] + _commands(name)]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _gallery_text(name, field):
    return _run(["gallery", name, "--scalars", field])


def _answer(name, field, cmd, path):
    if cmd == "gallery":
        return _gallery_text(name, field)
    return _run(cmd.split() + [path, "--format", "json"])


def _golden_path(name, field, cmd):
    return os.path.join(GOLDEN, _slug(name, field),
                        cmd.replace(" --", "--") + ".out")


def _exits():
    with open(os.path.join(GOLDEN, "exits.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def gallery_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("gallery")
    paths = {}
    for field in FIELDS:
        for name in LIE + PAIRS:
            path = root / (_slug(name, field) + ".json")
            path.write_text(_gallery_text(name, field)[1])
            paths[(name, field)] = str(path)
    return paths


@pytest.mark.parametrize("name,field,cmd", CASES,
                         ids=["%s %s" % (_slug(n, f), c) for n, f, c in CASES])
def test_cli_output_matches_golden(gallery_files, name, field, cmd):
    code, text = _answer(name, field, cmd, gallery_files[(name, field)])
    with open(_golden_path(name, field, cmd)) as fh:
        want = fh.read()
    assert code == _exits()["%s %s" % (_slug(name, field), cmd)]
    assert text == want


def regenerate():
    """Rewrite every golden file from the current code."""
    exits = {}
    for name, field, cmd in CASES:
        os.makedirs(os.path.join(GOLDEN, _slug(name, field)), exist_ok=True)
        path = os.path.join(GOLDEN, _slug(name, field), "gallery.out")
        if cmd == "gallery":
            code, text = _gallery_text(name, field)
        else:
            code, text = _answer(name, field, cmd, path)
        with open(_golden_path(name, field, cmd), "w") as fh:
            fh.write(text)
        exits["%s %s" % (_slug(name, field), cmd)] = code
    with open(os.path.join(GOLDEN, "exits.json"), "w") as fh:
        json.dump(exits, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
