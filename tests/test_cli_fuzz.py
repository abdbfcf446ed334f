"""Mutation fuzzing of the CLI's input contract.

Each example takes one subcommand with its fixture from ``tests/fixtures/``,
mutates the fixture's JSON (a leaf swapped for a value of another type, a key
dropped, a list element duplicated or appended) and draws the subcommand's
numeric flag, in range or not.  Whatever the input, ``main`` must return an
exit code in {0, 1, 2} without raising, an exit of 1 must be an
``input error:``, and an exit of 0 or 2 must give the same bytes when run
again.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from condexp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# (subcommand, fixture, flag, flag values); --m and --depth stay at 12 or
# below, where a run takes well under a second
FLAG_FRACTIONS = st.sampled_from(["0", "1/4", "1", "-1/2", "2", "x", "1/0"])
FLAG_COUNTS = st.integers(min_value=-3, max_value=12).map(str)
CASES = [
    ("g-atom", "saturated.json", None, None),
    ("condexp-set", "rich_F01.json", None, None),
    ("condexp-set", "saturated.json", None, None),
    ("condexp-set", "mixed_block.json", None, None),
    ("convexify", "rich_F01.json", "--alpha", FLAG_FRACTIONS),
    ("convexify", "point_block.json", "--alpha", FLAG_FRACTIONS),
    ("rademacher", "saturated.json", "--m", FLAG_COUNTS),
    ("uhc-audit", "saturated.json", "--depth", FLAG_COUNTS),
    ("derive-info", "saturated_game.json", None, None),
    ("coarser-check", "mp_game.json", None, None),
    ("solve", "mp_game.json", "--max-iters", st.integers(min_value=-3, max_value=50).map(str)),
    ("purify", "mp_purify.json", "--samples", st.integers(min_value=-3, max_value=4).map(str)),
    ("audit-equivalence", "mp_audit.json", None, None),
]
DOCS = {name: json.loads((FIXTURES / name).read_text()) for _, name, _, _ in CASES}
LEAVES = st.sampled_from([0, 1, -1, 7, 0.5, "1/2", "-3", "x", "", True, None, [], {}])


def nodes(doc, path=()):
    """Every (path, value) in the document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        for k, item in enumerate(doc):
            yield from nodes(item, path + (k,))


def mutate(doc, data):
    """``doc`` after one mutation drawn from ``data``, made in place below the root."""
    path, node = data.draw(st.sampled_from(list(nodes(doc))))
    kind = data.draw(st.sampled_from(["swap", "drop", "duplicate", "extend"]))
    if kind == "swap" and not path:
        return data.draw(LEAVES)
    if kind == "swap":
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(LEAVES)
    elif kind == "drop" and isinstance(node, dict) and node:
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "duplicate" and isinstance(node, list) and node:
        k = data.draw(st.integers(min_value=0, max_value=len(node) - 1))
        node.insert(k, copy.deepcopy(node[k]))
    elif kind == "extend" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else data.draw(LEAVES))
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_inputs_keep_the_exit_contract(data):
    command, fixture, flag, values = data.draw(st.sampled_from(CASES))
    doc = copy.deepcopy(DOCS[fixture])
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        doc = mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fixture
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if flag is not None:
            argv += [flag, data.draw(values)]
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err.startswith("input error: "), (argv, err)
            assert out == ""
        else:
            assert run(argv) == (code, out, err)
