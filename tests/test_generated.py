"""Differential tests of the layout rules over generated layouts."""

import numpy as np
from hypothesis import given

from relattn.layout import parse_spec, to_json
from relattn.masks import build_mcam
from relattn.rotary import assign_positions

from oracles import mcam_oracle, positions_oracle
from strategies import layout_specs


@given(layout_specs())
def test_positions_match_oracle(spec):
    assert [(p.i, p.j, p.k) for p in assign_positions(spec)] == positions_oracle(spec)


@given(layout_specs())
def test_mcam_levels_match_oracle(spec):
    np.testing.assert_array_equal(build_mcam(spec).levels, mcam_oracle(spec))


@given(layout_specs())
def test_json_round_trip(spec):
    assert parse_spec(to_json(spec)) == spec
