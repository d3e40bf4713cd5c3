"""The parser against the one it replaced.

_tokenize and _Parser below are the character-by-character tokenizer and
six-level recursive-descent parser that formula.parse used before its
regex tokenizer and operator-precedence loop.  On ASCII text the two must
build the same tree or raise the same error: type, message, offset and
expected tokens.  The old tokenizer also took any Unicode lowercase letter
or digit into a variable name, which the grammar does not allow; the new
parser rejects those, tested apart from the oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi.formula import (And, Bullet, Circ, Delta, Formula,
                           FormulaSyntaxError, Fuse, Iff, Imp, Not, ONE, Or,
                           Var, ZERO, parse, render)

from test_formula import formulas


_TWO_CHAR = {"/\\": "AND", "\\/": "OR", "->": "IMP", "<->": "IFF"}
_ONE_CHAR = {"~": "NOT", "O": "CIRC", "#": "BULLET", "D": "DELTA",
             "&": "FUSE", "(": "LPAR", ")": "RPAR", "0": "ZERO", "1": "ONE"}


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("IFF", "<->", i))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append((_TWO_CHAR[two], two, i))
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append((_ONE_CHAR[c], c, i))
            i += 1
            continue
        if c.islower() and c.isalpha():
            j = i + 1
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            tokens.append(("VAR", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i,
                                 ("variable", "0", "1", "~", "O", "#", "D", "("))
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"unexpected token {tok[1] or 'end of input'!r}",
                                     tok[2], (kind,))
        return self.advance()

    def parse(self) -> Formula:
        f = self.parse_arrow()
        tok = self.peek()
        if tok[0] != "EOF":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], ("EOF",))
        return f

    def parse_arrow(self) -> Formula:
        # -> and <-> share one level, right associative, no mixing.
        parts = [self.parse_or()]
        ops = []
        while self.peek()[0] in ("IMP", "IFF"):
            ops.append(self.advance())
            parts.append(self.parse_or())
        if not ops:
            return parts[0]
        kinds = {op[0] for op in ops}
        if len(kinds) > 1:
            bad = ops[1]
            raise FormulaSyntaxError(
                "mixing -> and <-> requires parentheses", bad[2], ("(",))
        ctor = Imp if ops[0][0] == "IMP" else Iff
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = ctor(part, out)
        return out

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek()[0] == "OR":
            self.advance()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_fuse()
        while self.peek()[0] == "AND":
            self.advance()
            f = And(f, self.parse_fuse())
        return f

    def parse_fuse(self) -> Formula:
        f = self.parse_unary()
        while self.peek()[0] == "FUSE":
            self.advance()
            f = Fuse(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if tok[0] == "CIRC":
            self.advance()
            return Circ(self.parse_unary())
        if tok[0] == "BULLET":
            self.advance()
            return Bullet(self.parse_unary())
        if tok[0] == "DELTA":
            self.advance()
            return Delta(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok[0] == "VAR":
            self.advance()
            return Var(tok[1])
        if tok[0] == "ZERO":
            self.advance()
            return ZERO
        if tok[0] == "ONE":
            self.advance()
            return ONE
        if tok[0] == "LPAR":
            self.advance()
            f = self.parse_arrow()
            self.expect("RPAR")
            return f
        raise FormulaSyntaxError(
            f"unexpected token {tok[1] or 'end of input'!r}", tok[2],
            ("variable", "0", "1", "~", "O", "#", "D", "("))


def _outcome(fn, text):
    try:
        return fn(text)
    except FormulaSyntaxError as exc:
        return (type(exc), exc.message, exc.offset, exc.expected)


def _same(text):
    assert _outcome(parse, text) == _outcome(lambda t: _Parser(t).parse(), text)


# every token, the characters either tokenizer could split a token at, and
# stray ASCII characters no token starts with
_PIECES = ["p", "q", "x_1", "ab2", "0", "1", "~", "O", "#", "D", "&", "/\\",
           "\\/", "->", "<->", "(", ")", " ", "\t", "\n", "\x1c", "<", "-",
           "/", "\\", ">", "?", "P", "_", "9", "{", "`", "!"]
_ASCII = st.characters(min_codepoint=0, max_codepoint=127)


@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
@settings(max_examples=1500, deadline=None)
def test_token_soup_matches_the_old_parser(text):
    _same(text)


@given(st.text(_ASCII, max_size=20))
@settings(max_examples=500, deadline=None)
def test_ascii_text_matches_the_old_parser(text):
    _same(text)


@given(formulas, st.data())
@settings(max_examples=500, deadline=None)
def test_edited_renderings_match_the_old_parser(f, data):
    # a valid text with at most one piece cut out and one piece put in
    text = render(f)
    cut = data.draw(st.integers(0, len(text)))
    length = data.draw(st.integers(0, 3))
    insert = data.draw(st.sampled_from([""] + _PIECES))
    _same(text[:cut] + insert + text[cut + length:])


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_renderings_parse_to_the_old_trees(f):
    text = render(f)
    assert parse(text) == _Parser(text).parse() == f


@pytest.mark.parametrize("text", [
    "p -> q <-> r", "p <-> q -> r -> s", "(p -> q <-> r", "p -> q <-> )",
    "p -> q <-> r )", "p ? q", "p q ?", "((p)", "p & & q", "", "   ",
    "01", "~", "O(p)", "p->->q", "<-->", "p /\\/ q", "p \\/\\ q",
])
def test_edge_cases_match_the_old_parser(text):
    _same(text)


@pytest.mark.parametrize("text, offset, char", [
    ("é", 0, "é"), ("pß", 1, "ß"), ("p² -> p²", 1, "²"), ("x١", 1, "١"),
    ("p -> Σ", 5, "Σ"), ("q & pé", 5, "é"),
])
def test_non_ascii_names_are_rejected(text, offset, char):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.offset) == \
        (f"unexpected character {char!r}", offset)
