"""Report encoding: to_json against the standard library's json."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.reports import to_json

# Quotes, backslashes, control characters, DEL and non-ASCII (BMP and astral)
# are drawn often, next to arbitrary text.
TEXT = st.text(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \ud83d\U0001d70f') | st.characters())
INTEGERS = st.integers() | st.integers(min_value=2**64, max_value=2**400) | st.integers(max_value=-(2**64))
SCALARS = TEXT | INTEGERS | st.booleans() | st.none()


def containers(children):
    lists = st.lists(children, max_size=5)
    return lists | lists.map(tuple) | st.dictionaries(TEXT, children, max_size=5)


TREES = st.recursive(SCALARS, containers, max_leaves=30)


def wrapped(tree, shapes, key):
    """tree inside one container per shape, outermost last."""
    for shape in shapes:
        tree = {key: tree} if shape == "dict" else [tree] if shape == "list" else (tree, key)
    return tree


@settings(max_examples=150, deadline=None)
@given(TREES)
def test_to_json_matches_json_dumps(tree):
    assert to_json(tree) == json.dumps(tree, indent=2) + "\n"


@settings(max_examples=75, deadline=None)
@given(TREES, st.lists(st.sampled_from(("dict", "list", "tuple")), min_size=4, max_size=7), TEXT)
def test_to_json_matches_json_dumps_four_levels_down(tree, shapes, key):
    doc = wrapped(tree, shapes, key)
    assert to_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_to_json_empty_and_scalar_documents():
    for doc in ({}, [], (), "", 0, -1, 2**64, True, False, None, {"": {}}, [[], {}, ()]):
        assert to_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_to_json_rejects_other_types():
    for bad in (1.5, object()):
        with pytest.raises(TypeError):
            to_json({"payload": [1, {"x": bad}]})
