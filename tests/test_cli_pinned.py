"""Pinned command-line output for the file kinds the golden gate leaves out.

test_golden_cli runs every command on the Lie and pair files of the
gallery.  This gate pins, over Q and over F5, ``analyze`` of an
associative algebra with involution, a Jordan triple and a Jordan
algebra, and ``jmax`` of the triple and the algebra, whose maximal
quotients run through the exchange automorphism of the double pair.
Each file is written from its gallery function, each command runs
in-process through ``cli.main`` with ``--format json``, and exit code and
stdout must match the files under ``tests/golden/pinned/`` byte for byte.

Regenerate the pinned files after an intended output change with
``PYTHONPATH=src python tests/test_cli_pinned.py``.
"""

import contextlib
import io
import json
import os

import pytest

from gradlie import cli, gallery
from gradlie.scalars import GF, QQ
from gradlie.serialize import serialize_algebra

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "pinned")

MAKERS = {
    "m_n_transpose_2": lambda f: gallery.m_n_transpose(2, f),
    "triple_2xyz": gallery.triple_2xyz,
    "jordan_sym2": gallery.jordan_sym2,
}
FIELDS = {"Q": QQ, "5": GF(5)}
COMMANDS = {
    "m_n_transpose_2": ("analyze",),
    "triple_2xyz": ("analyze", "jmax"),
    "jordan_sym2": ("analyze", "jmax"),
}

CASES = [(name, field, cmd) for field in FIELDS for name in MAKERS
         for cmd in COMMANDS[name]]


def _key(name, field, cmd):
    return "%s@%s %s" % (name, field, cmd)


def _answer(name, field, cmd, directory):
    path = os.path.join(directory, "%s@%s.json" % (name, field))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_algebra(MAKERS[name](FIELDS[field])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([cmd, path, "--format", "json"])
    return code, out.getvalue()


def _pinned_path(name, field, cmd):
    return os.path.join(PINNED, "%s@%s" % (name, field), cmd + ".out")


@pytest.mark.parametrize("name,field,cmd", CASES,
                         ids=[_key(*case) for case in CASES])
def test_cli_output_matches_pinned(tmp_path, name, field, cmd):
    code, text = _answer(name, field, cmd, str(tmp_path))
    with open(_pinned_path(name, field, cmd)) as fh:
        want = fh.read()
    with open(os.path.join(PINNED, "exits.json")) as fh:
        assert code == json.load(fh)[_key(name, field, cmd)]
    assert text == want


def regenerate():
    """Rewrite every pinned file from the current code."""
    import tempfile
    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, field, cmd in CASES:
            code, text = _answer(name, field, cmd, tmp)
            os.makedirs(os.path.dirname(_pinned_path(name, field, cmd)),
                        exist_ok=True)
            with open(_pinned_path(name, field, cmd), "w") as fh:
                fh.write(text)
            exits[_key(name, field, cmd)] = code
    with open(os.path.join(PINNED, "exits.json"), "w") as fh:
        json.dump(exits, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
