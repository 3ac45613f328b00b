"""Report encoding: to_json against the standard library's json, and hits read back."""

import gc
import json
from collections import OrderedDict
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.cli import main
from tauprimes.reports import hit_to_dict, hits_from_dicts, to_json
from tauprimes.search import Verdict, census_by_residue, search_prime_tau

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


def dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def test_to_json_reuses_dict_shapes_at_every_depth():
    # Each (keys, indent) pair gets its text once per call; the same keys at
    # another depth, or in another order, must get their own.
    hit = {"p": 2, "k": 1, "value": "-1472", "class23": {"tag": "NonResidue", "witness": None}}
    reordered = {"k": 3, "class23": {"witness": [1, -2], "tag": "PrincipalForm"}, "value": "x", "p": 5}
    doc = {
        "hits": [dict(hit, p=p) for p in range(50)] + [reordered, hit],
        "deeper": [[dict(hit, k=k), reordered] for k in range(5)],
        "same": {"hits": [hit, hit], "p": hit, "k": [[[hit]]]},
    }
    assert to_json(doc) == dumps(doc)


class Small(IntEnum):
    ONE = 1
    BIG = 2**70


class Name(str, Enum):
    A = "aé"


class Text(str):
    pass


def test_to_json_subclasses_and_bools():
    # Only exact str and int are written in a container's loop; these take
    # json's own route, which writes an IntEnum as its number.
    doc = {
        "enum": Small.BIG,
        "enums": [Small.ONE, Small.BIG, Name.A],
        "bools": [True, False, None, 0, 1],
        "flags": {"t": True, "f": False, "n": None},
        Text("sub\n"): Text('quoted "text"'),
        "nested": OrderedDict([("b", Text("x")), ("a", [Small.ONE, True])]),
        "tuple": (Name.A, False, Text("")),
    }
    assert to_json(doc) == dumps(doc)


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--pmax", "3000", "--kmax", "12", "--vmax", "1e100"),
        ("congruence-table", "--pmax", "300"),
        ("bounds", "--N", "1e1000"),
    ],
    ids=["search", "congruence-table", "bounds"],
)
def test_to_json_on_real_documents(capsys, tmp_path, argv):
    # The CLI prints to_json of its report; json must write the parsed report
    # back to the same bytes.  A census of the search's hits rides along.
    docs = [run_cli(capsys, *argv)]
    if argv[0] == "search":
        path = tmp_path / "hits.json"
        path.write_text(docs[0])
        docs.append(run_cli(capsys, "census", "--from", str(path), "--cap", "1e40"))
    for out in docs:
        assert out == dumps(json.loads(out))


@pytest.mark.parametrize("key", [1, None, (1, 2), 1.5, True])
def test_to_json_rejects_non_str_keys(key):
    for doc in ({key: 1}, {"a": [{"b": 1, key: 2}]}):
        with pytest.raises(TypeError):
            to_json(doc)


def test_to_json_leaves_no_cycles():
    # With the cyclic collector off, anything a call leaves in a reference
    # cycle stays until gc.collect() finds it.
    hit = {"p": 2, "k": 1, "value": "-1472", "class23": {"tag": "PrincipalForm", "witness": [1, 2]}, "ok": True}
    doc = {"command": "search", "payload": {"count": 1000, "hits": [dict(hit, p=p) for p in range(1000)]}}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        text = to_json(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == dumps(doc)


@pytest.fixture(scope="module")
def report300(table2k):
    """The hits of search --pmax 300 --kmax 1 --vmax 1e27, as hit_to_dict writes them."""
    return [hit_to_dict(h) for h in search_prime_tau(300, 1, 10**27, table=table2k)]


@pytest.mark.parametrize(
    "value, verdicts",
    [
        (0, {Verdict.ZERO}),
        (2, {Verdict.PLUS_MINUS_TWO}),
        (-2, {Verdict.PLUS_MINUS_TWO}),
        (-1472, {Verdict.COMPOSITE}),
        (4, {Verdict.COMPOSITE}),
        # An odd value admits either real verdict: a Composite claim is kept.
        (7, {Verdict.PROBABLE_PRIME, Verdict.COMPOSITE}),
        (-9, {Verdict.PROBABLE_PRIME, Verdict.COMPOSITE}),
        (1, {Verdict.PROBABLE_PRIME, Verdict.COMPOSITE}),
    ],
)
def test_hit_verdict_must_fit_the_value(report300, value, verdicts):
    # The p = 2 hit claims this value and, in turn, each verdict.  verdicts is
    # what the value alone admits, but the value itself is not trusted either:
    # tau(2^2) = -1472 is Composite, so only that pair is taken, and every
    # other value is refused by name whatever verdict it claims.
    real = next(d for d in report300 if d["p"] == 2)
    for verdict in Verdict:
        doc = {**real, "value": str(value), "residue23": value % 23, "verdict": verdict.value}
        if value == -1472 and verdict in verdicts:
            assert [hit_to_dict(h) for h in hits_from_dicts([doc])] == [doc]
        else:
            field = "verdict" if value == -1472 else "value"
            with pytest.raises(ValueError, match=f"^hit field '{field}' is '.*', but p=2, k=1 gives "):
                hits_from_dicts([doc])


@pytest.mark.parametrize("claim", [v.value for v in Verdict])
def test_hits_from_dicts_rebuilds_each_hit(report300, claim):
    # Each hit in turn claims this verdict.  Every verdict is decided afresh,
    # but a Composite claimed for an odd value is kept: it can only lower the
    # count.  Lehmer's tau(251^2) is the one odd probable prime here, so its
    # relabelling is the one accepted, and the total drops by one.
    for i, d in enumerate(report300):
        forged = [*report300[:i], {**d, "verdict": claim}, *report300[i + 1 :]]
        if claim == d["verdict"] or (d["p"] == 251 and claim == "Composite"):
            hits = hits_from_dicts(forged)
            assert [hit_to_dict(h) for h in hits] == forged
            assert census_by_residue(hits, 10**27).total == (claim == d["verdict"])
        else:
            with pytest.raises(ValueError, match=f"^hit field 'verdict' is '{claim}', but p={d['p']}, k=1 gives "):
                hits_from_dicts(forged)
