"""The connective table and the operator-variant table against the
renderer, the tokenizer and the registry they replaced (reference_syntax):
the same text for every formula in both alphabets, the same tokens, tree
or syntax error for every text, the same profiles with their axiom and
rule dicts in the same order, and the same message for a name that no
profile has."""

import string

from hypothesis import example, given, settings, strategies as st

from mtlfi.formula import (MAX_DEPTH, FormulaSyntaxError, _TOKEN, parse,
                           render)
from mtlfi.profiles import UnknownProfile, load_profile, profile_names

import reference_syntax as reference
from test_formula import formulas


@given(formulas)
@settings(max_examples=500, deadline=None)
def test_render_matches_the_oracle(f):
    assert render(f) == reference.render(f)
    assert render(f, unicode=True) == reference.render(f, unicode=True)


# the ASCII symbols, letters, digits and underscore, whitespace (Unicode
# whitespace too), and stray characters: pieces of symbols, a backslash on
# its own, and non-ASCII letters and digits no token may take
_PIECES = st.one_of(
    st.sampled_from(["~", "O", "#", "D", "&", "/\\", "\\/", "->", "<->",
                     "0", "1", "(", ")"]),
    st.sampled_from(string.ascii_letters + string.digits + "_"),
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\xa0\u2003"),
    st.sampled_from(["<", "-", "/", "\\", "²", "é"]))


def _outcome(parse_text, text):
    try:
        return parse_text(text)
    except FormulaSyntaxError as exc:
        return exc.message, exc.offset, exc.expected


@given(st.lists(_PIECES, max_size=30).map("".join))
@example("p <-> q -> r")
@example("p <- > q")
@example("<<->->")
@example("p /\\/ q \\/\\ r")
@example("p² -> é")
@example("p" + " & p" * MAX_DEPTH)
@example("~" * (MAX_DEPTH + 5) + "p")
@settings(max_examples=2000, deadline=None)
def test_tokens_and_parse_match_the_hand_written_tokenizer(text):
    assert _TOKEN.findall(text) == reference._TOKEN.findall(text)
    assert _outcome(parse, text) == _outcome(reference.parse, text)


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
