"""Mutated scenario documents against the exit-code promise of the CLI.

Every verb, on any document, ends with exit code 0 (all checks pass),
1 (some check fails) or 2 (the input is wrong), and an exit 2 writes
exactly one ``foliavg: error:`` line and no traceback.  Hypothesis mutates
the bundled documents: it deletes a key, adds one, or puts a value of the
wrong type or a hostile expression somewhere in the tree.
"""

import contextlib
import copy
import io
import json
import tempfile
from datetime import timedelta
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from foliavg.cli import main
from foliavg.scenarios import bundled_names

DOCUMENTS = {
    name: json.loads(resources.files("foliavg").joinpath("data", f"{name}.json").read_text())
    for name in bundled_names()
}

VERBS = (
    ["check", "--witness", "--format", "json"],
    ["average"],
    ["dirac", "--format", "json"],
)

HOSTILE = (
    "(q + p + cos(th))^60",
    "cos(th)^40",
    "1/0",
    "q^-1",
    "q^(1/2)",
    "sin(th/2)",
    "sin(q)",
    "cos(1/2*th)",
    "q*th",
    "th",
    "pi",
    "zz",
    "q +* p",
    "(" * 400 + "q" + ")" * 400,
    "2^2^2^2",
    "q^3/0",
    "",
    " ",
    "1e9",
    "1" * 5000,
    "2^20000",
    "2^300000000",
)

WRONG_TYPES = (None, True, 0, -1, 2.5, 10**40, [], {}, ["q"], {"q": "p"}, "q")

NEW_KEYS = ("extra", "", "q", "x1", "th", "q^p", "p^q", "x1^x2", "frame", "projection", "angle")


def _paths(node, prefix=()):
    """Every path into the tree, the empty path (the root) included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    paths = list(_paths(doc))
    op = draw(st.sampled_from(("delete", "add", "replace", "replace")))
    if op == "add":
        containers = [p for p in paths if isinstance(_at(doc, p), (dict, list))]
        target = _at(doc, draw(st.sampled_from(containers)))
        value = draw(st.sampled_from(HOSTILE + WRONG_TYPES))
        if isinstance(target, dict):
            target[draw(st.sampled_from(NEW_KEYS))] = value
        else:
            target.append(value)
        return doc
    path = draw(st.sampled_from(paths[1:]))
    parent, last = _at(doc, path[:-1]), path[-1]
    if op == "delete":
        del parent[last]
    else:
        parent[last] = draw(st.sampled_from(HOSTILE + WRONG_TYPES))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(mutated_documents())
def test_every_verb_ends_with_a_promised_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        for verb in VERBS:
            code, err = _run([verb[0], str(path), *verb[1:]])
            assert code in (0, 1, 2), (verb, code, err)
            if code == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("foliavg: error: "), err
