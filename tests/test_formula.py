import pickle
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi.formula import (MAX_DEPTH, And, Bullet, Circ, Const, Delta,
                           FormulaSyntaxError, Fuse, Iff, Imp, Not, ONE, Or,
                           Var, ZERO, match_schema, normalize, parse, power,
                           render, schema, substitute, subformulas,
                           to_bullet_language, to_circ_language, variables)

p, q, r = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_negated_contradiction_with_marker(self):
        f = parse("~(p /\\ ~p /\\ O p)")
        assert f == Not(And(And(p, Not(p)), Circ(p)))

    def test_one_is_a_constant(self):
        assert parse("1") == ONE
        assert normalize(parse("1")) == Imp(ZERO, ZERO)

    def test_arrows_are_right_associative(self):
        assert parse("p -> q -> r") == Imp(p, Imp(q, r))
        assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))

    def test_mixing_arrows_needs_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p -> q <-> r")
        assert parse("p -> (q <-> r)") == Imp(p, Iff(q, r))

    def test_precedence_ladder(self):
        # unary > & > /\ > \/ > arrows
        assert parse("O p & q") == Fuse(Circ(p), q)
        assert parse("p & q /\\ r") == And(Fuse(p, q), r)
        assert parse("p /\\ q \\/ r") == Or(And(p, q), r)
        assert parse("p \\/ q -> r") == Imp(Or(p, q), r)
        assert parse("~p & q") == Fuse(Not(p), q)

    def test_unary_stack(self):
        assert parse("~~p") == Not(Not(p))
        assert parse("O ~p") == Circ(Not(p))
        assert parse("D # p") == Delta(Bullet(p))

    def test_variable_names(self):
        assert parse("x_1") == Var("x_1")
        assert parse("ab2c") == Var("ab2c")

    def test_each_name_is_one_leaf_per_text(self):
        f = parse("(p -> q) & (q -> p)")
        assert f.left.left is f.right.right
        assert f.left.right is f.right.left
        # texts parsed separately share nothing, yet compare and hash equal
        g = parse("(p -> q) & (q -> p)")
        assert g.left.left is not f.left.left
        assert g == f and hash(g) == hash(f)
        assert render(g) == render(f) == "(p -> q) & (q -> p)"

    def test_error_carries_offset_and_expectations(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p -> ")
        assert exc.value.offset == 5
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p ? q")
        assert exc.value.offset == 2
        assert exc.value.expected

    @pytest.mark.parametrize("text", ["p -> ", "p ? q", "p q", "(p"])
    def test_error_survives_a_pickle_round_trip(self, text):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        back = pickle.loads(pickle.dumps(exc.value))
        assert type(back) is FormulaSyntaxError
        assert (back.message, back.offset, back.expected, str(back)) == \
            (exc.value.message, exc.value.offset, exc.value.expected,
             str(exc.value))

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p q")


def deep_texts(depth):
    """Formula texts exactly depth levels deep, one per shape: a left fold
    of &, a right-associative arrow chain, a prefix stack and parenthesised
    left-nested arrows."""
    return {"fold": "p" + " & p" * (depth - 1),
            "arrows": " -> ".join(["p"] * depth),
            "prefixes": "~" * (depth - 1) + "p",
            "parens": "(" * (depth - 1) + "p" + " -> p)" * (depth - 1)}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", ["fold", "arrows", "prefixes", "parens"])
    def test_a_formula_at_the_limit_is_walked_without_recursion_errors(
            self, shape):
        text = deep_texts(MAX_DEPTH)[shape]
        f = parse(text)
        assert parse(render(f)) == f
        assert variables(normalize(f)) == {"p"}
        assert render(normalize(f), unicode=True)

    @pytest.mark.parametrize("shape, offset", [
        # the last two atoms of the arrow chain are both too deep
        ("fold", 0), ("arrows", -len("p -> p")), ("prefixes", MAX_DEPTH),
        ("parens", MAX_DEPTH)])
    def test_one_level_more_is_a_syntax_error_at_the_deepest_atom(
            self, shape, offset):
        text = deep_texts(MAX_DEPTH + 1)[shape]
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.message == f"formula deeper than {MAX_DEPTH} levels"
        assert exc.value.offset == offset % len(text)
        assert text[exc.value.offset] == "p"

    def test_parentheses_alone_add_no_depth(self):
        assert parse("(" * 3000 + "p" + ")" * 3000) == Var("p")
        assert parse("~(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1)) \
            == parse("~" * (MAX_DEPTH - 1) + "p")

    def test_a_long_shallow_formula_is_accepted(self):
        # far more tokens than MAX_DEPTH, so its depth is measured
        def balanced(names):
            if len(names) == 1:
                return names[0]
            half = len(names) // 2
            return f"({balanced(names[:half])} /\\ {balanced(names[half:])})"

        names = [f"p{i}" for i in range(1024)]
        assert variables(parse(balanced(names))) == set(names)


# --- random ASTs ------------------------------------------------------------

_names = st.sampled_from(["p", "q", "r", "s1"])
_leaves = st.one_of(_names.map(Var), st.just(ZERO), st.just(ONE))


def _branch(kids):
    binary = st.tuples(kids, kids)
    return st.one_of(
        kids.map(Not), kids.map(Circ), kids.map(Bullet), kids.map(Delta),
        binary.map(lambda t: And(*t)), binary.map(lambda t: Or(*t)),
        binary.map(lambda t: Fuse(*t)), binary.map(lambda t: Imp(*t)),
        binary.map(lambda t: Iff(*t)))


formulas = st.recursive(_leaves, _branch, max_leaves=20)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_parse_render_roundtrip(f):
    assert parse(render(f)) == f


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_render_is_canonical(f):
    text = render(f)
    assert render(parse(text)) == text


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(f):
    n = normalize(f)
    assert normalize(n) == n


_CORE = (Var, Const, And, Fuse, Imp, Circ, Bullet, Delta)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_normalize_uses_core_connectives_only(f):
    n = normalize(f)
    for node in subformulas(n):
        assert isinstance(node, _CORE)
        if isinstance(node, Const):
            assert node.value == 0


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_normalize_introduces_no_new_markers(f):
    before = {type(n) for n in subformulas(f)}
    after = {type(n) for n in subformulas(normalize(f))}
    for marker in (Circ, Bullet, Delta, Var):
        if marker in after:
            assert marker in before


def test_normalize_examples():
    assert normalize(Or(p, q)) == And(Imp(Imp(p, q), q), Imp(Imp(q, p), p))
    assert normalize(Not(p)) == Imp(p, ZERO)
    assert normalize(p) == p
    assert normalize(Iff(p, q)) == And(Imp(p, q), Imp(q, p))


# --- schemas ----------------------------------------------------------------

class TestSchema:
    def test_marker_schema_match(self):
        s = schema("O x -> (x \\/ ~x)", {"x"})
        target = parse("O (p & q) -> ((p & q) \\/ ~(p & q))")
        binding = match_schema(s, target)
        assert binding == {"x": parse("p & q")}
        assert substitute(s, binding) == target

    def test_inconsistent_binding_is_rejected(self):
        s = schema("x -> x", {"x"})
        assert match_schema(s, parse("p -> q")) is None

    def test_repeated_metavariable(self):
        s = schema("x & y -> x", {"x", "y"})
        binding = match_schema(s, parse("p & p -> p"))
        assert binding == {"x": p, "y": p}

    def test_non_metavariable_must_match_literally(self):
        s = schema("x -> p", {"x"})
        assert match_schema(s, parse("q -> p")) == {"x": q}
        assert match_schema(s, parse("q -> r")) is None

    def test_shared_binding_is_extended_in_place(self):
        s = schema("x -> y", {"x", "y"})
        binding = {"x": p}
        assert match_schema(s, parse("p -> q"), binding) is binding
        assert binding == {"x": p, "y": q}
        assert match_schema(s, parse("q -> q"), {"x": p}) is None

    def test_default_metavars_are_all_variables(self):
        s = schema("f -> g")
        assert s.metavars == frozenset({"f", "g"})


@given(formulas, formulas)
@settings(max_examples=200, deadline=None)
def test_match_substitute_roundtrip(body, filler):
    s = schema(render(Imp(Var("hole"), body)), {"hole"})
    instance = substitute(s, {"hole": filler})
    binding = match_schema(s, instance)
    assert binding is not None
    assert substitute(s, binding) == instance


# --- powers and translations -------------------------------------------------

def test_power():
    assert power(p, 0) == ONE
    assert power(p, 1) == p
    assert power(p, 3) == Fuse(Fuse(p, p), p)
    em = Or(p, Not(p))
    assert power(em, 2) == Fuse(em, em)
    with pytest.raises(ValueError):
        power(p, -1)


def test_language_translations():
    f = parse("O p -> (q /\\ O O r)")
    t = to_bullet_language(f)
    assert t == parse("~# p -> (q /\\ ~# ~# r)")
    g = parse("# p \\/ ~# q")
    assert to_circ_language(g) == parse("~O p \\/ ~~O q")


def test_variables_and_subformulas():
    f = parse("p & q -> O p")
    assert variables(f) == {"p", "q"}
    assert parse("p & q") in list(subformulas(f))


# --- slotted nodes -----------------------------------------------------------

@given(formulas)
@settings(max_examples=200, deadline=None)
def test_slotted_nodes_stay_plain_values(f):
    for node in subformulas(parse(render(f))):
        assert not hasattr(node, "__dict__")
        # a frozen dataclass hashes the tuple of its fields
        assert hash(node) == hash(tuple(getattr(node, fld.name)
                                        for fld in fields(node)))
        name = fields(node)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, getattr(node, name))
        # refused as well, though as a TypeError on Python 3.10-3.13: the
        # frozen __setattr__ of a slotted dataclass names the class that
        # dataclass() replaced
        with pytest.raises((FrozenInstanceError, TypeError)):
            node.extra = 1
    back = pickle.loads(pickle.dumps(f))
    assert type(back) is type(f)
    for g in (back, parse(render(f))):
        assert g == f and hash(g) == hash(f) and {g: 1}[f] == 1
        assert normalize(g) == normalize(f)
    s = schema("x -> y", {"x", "y"})
    assert match_schema(s, Imp(back, f)) == {"x": f, "y": f}
    assert match_schema(schema("x -> x", {"x"}), Imp(back, Not(f))) is None


def test_equality_tells_node_types_apart():
    assert And(p, q) != Or(p, q) and And(p, q) != Fuse(p, q)
    assert Not(p) != Circ(p) and Bullet(p) != Delta(p)
    assert Var("p") != Const(0) and Const(0) == ZERO != ONE
    assert len({And(p, q), Or(p, q), Imp(p, q), Iff(p, q), And(p, q)}) == 4
    assert pickle.loads(pickle.dumps(ZERO)) == ZERO
