"""``serialize.report_text`` against ``json.dumps(tree, indent=2, sort_keys=True)``.

Every CLI report is written by ``report_text``; the golden digests of
``test_report_digests.py`` pin the reports the CLI makes, and these tests
pin the encoder on every kind of JSON tree, including values no report holds
today (floats, non-string keys, objects ``json`` refuses).
"""

import enum
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condexp.serialize import report_text


def reference(tree):
    return json.dumps(tree, indent=2, sort_keys=True)


SPECIAL_CHARS = ['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", "é", " ", "\ud800", "😀"]
texts = st.text(
    st.characters(exclude_categories=()) | st.sampled_from(SPECIAL_CHARS), max_size=6
)
ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200) | st.sampled_from(
    [2**64 - 1, 2**64, 2**64 + 1, -(2**64), 10**40]
)
floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308]
)
leaves = st.none() | st.booleans() | ints | floats | texts
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=40,
)


class TestReportText:
    @settings(max_examples=400, deadline=None)
    @given(trees)
    @example({})
    @example([])
    @example(())
    @example({"a": {}, "b": [], "c": (), "d": [[], {}], "e": [True, 1, False, 0, None]})
    @example({"\x00": 'q"\\', "é": "😀", " ": ["\x1f", "\x7f"]})
    @example([2**64, -(2**64) - 1, True, 1, 1.0, math.nan, math.inf, -math.inf, -0.0, 1e-300])
    def test_equals_indented_sorted_json(self, tree):
        assert report_text(tree) == reference(tree)

    @given(
        st.dictionaries(ints, leaves, max_size=4)
        | st.dictionaries(floats.filter(lambda x: x == x), leaves, max_size=4)
        | st.dictionaries(st.booleans(), leaves, max_size=2)
    )
    def test_non_string_keys_take_json_at_their_depth(self, inner):
        tree = {"outer": [inner, {"deeper": inner}]}
        assert report_text(tree) == reference(tree)

    def test_subclasses_take_json(self):
        class Level(enum.IntEnum):
            HIGH = 7

        class Label(str):
            pass

        tree = {"level": Level.HIGH, "label": Label("x\n"), "rows": [Level.HIGH, {Label("k"): 1}]}
        assert report_text(tree) == reference(tree)

    @pytest.mark.parametrize("bad", [object(), {1: "a", "b": 2}, b"bytes", {1, 2}])
    def test_refuses_what_json_refuses(self, bad):
        tree = {"a": [1, {"b": bad}]}
        with pytest.raises(TypeError) as want:
            reference(tree)
        with pytest.raises(TypeError) as got:
            report_text(tree)
        assert str(got.value) == str(want.value)
