"""Differential tests of the layout rules over generated layouts, and a
mutation fuzz of the layout document parser."""

import json

import numpy as np
from hypothesis import given, strategies as st

from relattn.layout import LayoutError, LayoutSpec, parse_spec, to_json
from relattn.masks import build_mcam
from relattn.rotary import position_array

from oracles import mcam_oracle, positions_oracle
from strategies import layout_specs


@given(layout_specs())
def test_positions_match_oracle(spec):
    assert [tuple(p) for p in position_array(spec).tolist()] == positions_oracle(spec)


@given(layout_specs())
def test_mcam_levels_match_oracle(spec):
    np.testing.assert_array_equal(build_mcam(spec).levels, mcam_oracle(spec))


@given(layout_specs())
def test_json_round_trip(spec):
    assert parse_spec(to_json(spec)) == spec


# values of every JSON type, including the ones no field accepts
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw) -> str:
    """The :func:`to_json` document of a valid layout with characters
    deleted, inserted or replaced, or with one field dropped or retyped."""
    text = to_json(draw(layout_specs()))
    how = draw(st.sampled_from(["delete", "insert", "replace", "drop", "retype"]))
    if how in ("drop", "retype"):
        doc = json.loads(text)
        node = draw(st.sampled_from([doc] + doc["entities"]))
        key = draw(st.sampled_from(sorted(node)))
        if how == "drop":
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
        return json.dumps(doc)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text) - (how != "insert")))
        char = draw(st.sampled_from('[]{}",:-.e0123456789 ') | st.characters())
        keep = at + (how != "insert")
        text = text[:at] + ("" if how == "delete" else char) + text[keep:]
    return text


@given(mutated_documents())
def test_mutated_documents_raise_only_layout_errors(text):
    try:
        spec = parse_spec(text)
    except LayoutError:
        return
    assert isinstance(spec, LayoutSpec)
