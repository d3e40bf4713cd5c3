"""The connective table and the operator-variant table against the
renderer and the registry they replaced (reference_syntax): the same text
for every formula in both alphabets, the same profiles with their axiom
and rule dicts in the same order, and the same message for a name that no
profile has."""

from hypothesis import example, given, settings, strategies as st

from mtlfi.formula import render
from mtlfi.profiles import UnknownProfile, load_profile, profile_names

import reference_syntax as reference
from test_formula import formulas


@given(formulas)
@settings(max_examples=500, deadline=None)
def test_render_matches_the_oracle(f):
    assert render(f) == reference.render(f)
    assert render(f, unicode=True) == reference.render(f, unicode=True)


def _fields(p):
    return (p.name, p.base, p.mode, p.mp_allowed, p.uses_circ, p.uses_bullet,
            list(p.axioms.items()), list(p.rules.items()))


def test_registry_matches_the_oracle():
    assert profile_names() == sorted(reference._REGISTRY)
    for name, old in reference._REGISTRY.items():
        assert _fields(load_profile(name)) == _fields(old), name


@given(st.text(max_size=12))
@example("nope")
@example("MTL-o-xx")
@example("G-b-min<<=")
@example("-leq")
@settings(max_examples=200, deadline=None)
def test_unknown_profile_message_matches_the_oracle(name):
    try:
        profile = load_profile(name)
    except UnknownProfile as exc:
        assert str(exc) == reference.unknown_profile_message(name)
    else:
        assert profile.name in reference._REGISTRY
