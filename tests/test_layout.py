import json

import pytest
from hypothesis import given, strategies as st

from relattn.layout import (
    Entity,
    LayoutError,
    LayoutInvariantError,
    LayoutSchemaError,
    LayoutSpec,
    LayoutSyntaxError,
    parse_spec,
    to_json,
)
from relattn.reference import branch_index_per_token, text_level_of

DOC = json.dumps(
    {
        "T": 2,
        "H": 4,
        "W": 4,
        "text_len": 12,
        "entities": [
            {"kind": "background", "span": [0, 2]},
            {"kind": "face", "group": 0, "span": [3, 5]},
            {"kind": "attribute", "group": 0, "span": [6, 8]},
        ],
    }
)


def test_parse_counts_tokens():
    spec = parse_spec(DOC)
    assert spec.n_entities == 3
    assert spec.n_tokens == (2 + 3) * 16 == 80
    assert spec.n_bgobj == 1
    assert spec.n_groups == 1
    assert spec.groups == ((1, 2),)


def test_two_faces_in_one_group_rejected():
    doc = json.loads(DOC)
    doc["entities"].append({"kind": "face", "group": 0})
    with pytest.raises(LayoutInvariantError) as exc:
        parse_spec(json.dumps(doc))
    assert "entities[3]" in exc.value.path


def test_four_attributes_rejected():
    doc = json.loads(DOC)
    doc["entities"] += [{"kind": "attribute", "group": 0} for _ in range(3)]
    with pytest.raises(LayoutInvariantError, match="at most 3 attributes"):
        parse_spec(json.dumps(doc))


def test_three_attributes_accepted():
    doc = json.loads(DOC)
    doc["entities"] += [{"kind": "attribute", "group": 0} for _ in range(2)]
    assert parse_spec(json.dumps(doc)).n_entities == 5


def test_syntax_error():
    with pytest.raises(LayoutSyntaxError):
        parse_spec("{not json")
    with pytest.raises(LayoutSyntaxError):  # deeper than the decoder's recursion limit
        parse_spec("[" * 100000 + "]" * 100000)
    with pytest.raises(LayoutSyntaxError):  # longer than Python's integer parsing limit
        parse_spec('{"T": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize(
    "mutate, path_frag",
    [
        (lambda d: d.pop("T"), "$.T"),
        (lambda d: d.update(T="2"), "$.T"),
        (lambda d: d.update(extra=1), "$.extra"),
        (lambda d: d["entities"][0].update(colour="red"), "colour"),
        (lambda d: d["entities"][0].update(kind="person"), "kind"),
        (lambda d: d["entities"][0].update(span=[1]), "span"),
        (lambda d: d.update(entities={}), "$.entities"),
    ],
)
def test_schema_violations_name_the_path(mutate, path_frag):
    doc = json.loads(DOC)
    mutate(doc)
    with pytest.raises(LayoutSchemaError) as exc:
        parse_spec(json.dumps(doc))
    assert path_frag in exc.value.path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["entities"][1].update(span=[0, 1]),  # overlaps background span
        lambda d: d["entities"][0].update(span=[10, 14]),  # past text_len
        lambda d: d["entities"][0].update(group=1),  # group on background
        lambda d: d["entities"][1].pop("group"),  # face without group
        lambda d: d["entities"].insert(1, {"kind": "attribute", "group": 0}),  # attr before face
        lambda d: d["entities"].append({"kind": "object"}),  # object after groups
        lambda d: d.update(T=0),
    ],
)
def test_invariant_violations(mutate):
    doc = json.loads(DOC)
    mutate(doc)
    with pytest.raises(LayoutInvariantError):
        parse_spec(json.dumps(doc))


def test_empty_span_is_allowed_and_never_overlaps():
    doc = json.loads(DOC)
    doc["entities"][0]["span"] = [3, 3]  # empty, inside the face span
    spec = parse_spec(json.dumps(doc))
    assert spec.entities[0].span == (3, 3)


def test_branch_of():
    spec = parse_spec(DOC)
    labels = spec.branch_labels
    assert labels[1] == labels[2] == "group0"  # face and attribute
    assert labels[0] == "entity0"  # background
    assert labels[0] != labels[1]
    video = branch_index_per_token(spec)[: spec.n_video_tokens]
    assert (video == -1).all()


def test_bg_and_obj_get_distinct_branches():
    spec = LayoutSpec(
        T=1, H=2, W=2, entities=(Entity("background"), Entity("object")), text_len=0
    )
    a, b = spec.branch_labels
    assert a != b


def test_text_levels():
    spec = parse_spec(DOC)
    face = spec.entity_range(1)[0]
    bg = spec.entity_range(0)[0]
    assert text_level_of(spec, face, 6) == 1  # own group's attribute span
    assert text_level_of(spec, face, 3) == 1  # own span
    assert text_level_of(spec, face, 0) == 0  # background span: not a group
    assert text_level_of(spec, bg, 0) == 1
    assert text_level_of(spec, bg, 3) == 0
    for t in range(spec.text_len):
        assert text_level_of(spec, 0, t) == 0  # video row
    with pytest.raises(IndexError):
        text_level_of(spec, 0, 12)
    for flat in (-1, spec.n_tokens):
        with pytest.raises(IndexError):
            text_level_of(spec, flat, 0)


def test_cross_group_level_is_minus_one():
    spec = LayoutSpec(
        T=1,
        H=2,
        W=2,
        entities=(
            Entity("face", group=0, span=(0, 2)),
            Entity("face", group=1, span=(3, 5)),
            Entity("attribute", group=1, span=(6, 7)),
        ),
        text_len=8,
    )
    face0 = spec.entity_range(0)[0]
    attr1 = spec.entity_range(2)[0]
    assert text_level_of(spec, face0, 3) == -1
    assert text_level_of(spec, attr1, 0) == -1
    assert text_level_of(spec, attr1, 3) == 1
    assert text_level_of(spec, face0, 6) == -1  # group 1's attribute span


def test_plus_and_minus_sets_disjoint():
    spec = parse_spec(DOC)
    for flat in range(spec.n_tokens):
        levels = [text_level_of(spec, flat, t) for t in range(spec.text_len)]
        assert set(levels) <= {-1, 0, 1}


def test_json_round_trip():
    spec = parse_spec(DOC)
    again = parse_spec(to_json(spec))
    assert again == spec


layout_params = st.tuples(
    st.integers(1, 3),  # T
    st.integers(1, 4),  # H
    st.integers(1, 4),  # W
    st.integers(0, 1),  # bg
    st.integers(0, 3),  # objs
    st.lists(st.integers(0, 3), max_size=3),  # groups
)


@given(layout_params)
def test_bijection_property(params):
    from relattn.corpus import make_spec

    T, H, W, bg, objs, groups = params
    spec = make_spec(T, H, W, bg=bg, objs=objs, groups=tuple(groups))
    labels = set(branch_index_per_token(spec).tolist())
    assert len(labels) == 1 + spec.n_bgobj + spec.n_groups
