r"""Propositional formulas for residuated fuzzy logics with consistency markers.

The language has variables, the constants 0 and 1, the unary connectives
~ (negation), O (consistency), # (inconsistency) and D (top projection),
and the binary connectives & (strong conjunction), /\ (lattice conjunction),
\/ (lattice disjunction), -> (implication) and <-> (equivalence).

ASCII grammar, tightest to loosest: unary {~, O, #, D}; & ; /\ ; \/ ;
-> and <-> (right associative, same level, mixing requires parentheses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "Formula", "Var", "Const", "Not", "Circ", "Bullet", "Delta",
    "And", "Fuse", "Or", "Imp", "Iff", "ZERO", "ONE",
    "FormulaSyntaxError", "parse", "render", "normalize", "variables",
    "subformulas", "power", "Schema", "schema", "match_schema", "substitute",
    "to_bullet_language", "to_circ_language",
]


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return render(self)


@dataclass(frozen=True, repr=False, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, repr=False, slots=True)
class Const(Formula):
    value: int  # 0 or 1


@dataclass(frozen=True, repr=False, slots=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Circ(Formula):
    """Consistency marker O."""
    arg: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Bullet(Formula):
    """Inconsistency marker #."""
    arg: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Delta(Formula):
    """Top projection D."""
    arg: Formula


@dataclass(frozen=True, repr=False, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Fuse(Formula):
    """Strong (monoidal) conjunction &."""
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


ZERO = Const(0)
ONE = Const(1)

_UNARY = (Not, Circ, Bullet, Delta)
_BINARY = (And, Fuse, Or, Imp, Iff)


# ---------------------------------------------------------------------------
# Parsing

class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.message = message
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected one of: " + ", ".join(expected) + ")"
        super().__init__(detail)

    def __reduce__(self):
        # Exception pickles as type(*self.args), and args holds only the
        # formatted detail
        return type(self), (self.message, self.offset, self.expected)


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


def parse(text: str) -> Formula:
    """Parse ASCII text into a formula tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Rendering

_LEVEL_ARROW, _LEVEL_OR, _LEVEL_AND, _LEVEL_FUSE, _LEVEL_UNARY, _LEVEL_ATOM = range(6)

_ASCII = {"not": "~", "circ": "O", "bullet": "#", "delta": "D",
          "and": "/\\", "fuse": "&", "or": "\\/", "imp": "->", "iff": "<->",
          "zero": "0", "one": "1"}
_UNICODE = {"not": "¬", "circ": "○", "bullet": "•",
            "delta": "Δ", "and": "∧", "fuse": "&", "or": "∨",
            "imp": "→", "iff": "↔", "zero": "0̄", "one": "1̄"}


def render(f: Formula, unicode: bool = False) -> str:
    """Render a formula with minimal parentheses; parse(render(f)) == f."""
    sym = _UNICODE if unicode else _ASCII

    def go(node: Formula, level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return sym["one"] if node.value else sym["zero"]
        if isinstance(node, _UNARY):
            name = {Not: "not", Circ: "circ", Bullet: "bullet", Delta: "delta"}[type(node)]
            inner = go(node.arg, _LEVEL_UNARY)
            if name == "not":
                body = sym["not"] + inner
            else:
                body = sym[name] + " " + inner
            return "(" + body + ")" if level > _LEVEL_UNARY else body
        if isinstance(node, (Imp, Iff)):
            name = "imp" if isinstance(node, Imp) else "iff"
            left = go(node.left, _LEVEL_OR)
            # Right associative chains of the same arrow stay unparenthesized;
            # a different arrow on the right must be bracketed.
            if type(node.right) is type(node):
                right = go(node.right, _LEVEL_ARROW)
            else:
                right = go(node.right, _LEVEL_OR)
            body = f"{left} {sym[name]} {right}"
            return "(" + body + ")" if level > _LEVEL_ARROW else body
        name, lvl = {Or: ("or", _LEVEL_OR), And: ("and", _LEVEL_AND),
                     Fuse: ("fuse", _LEVEL_FUSE)}[type(node)]
        left = go(node.left, lvl)
        right = go(node.right, lvl + 1)
        body = f"{left} {sym[name]} {right}"
        return "(" + body + ")" if level > lvl else body

    return go(f, _LEVEL_ARROW)


# ---------------------------------------------------------------------------
# Structure helpers

def variables(f: Formula) -> frozenset:
    """Names of the variables occurring in f."""
    out = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, _UNARY):
            walk(node.arg)
        elif isinstance(node, _BINARY):
            walk(node.left)
            walk(node.right)

    walk(f)
    return frozenset(out)


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula nodes, root first."""
    yield f
    if isinstance(f, _UNARY):
        yield from subformulas(f.arg)
    elif isinstance(f, _BINARY):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def normalize(f: Formula) -> Formula:
    """Rewrite to the core connectives {variables, 0, /\\, &, ->, O, #, D}.

    1 becomes 0 -> 0, ~a becomes a -> 0, a \\/ b becomes
    ((a -> b) -> b) /\\ ((b -> a) -> a) and a <-> b becomes
    (a -> b) /\\ (b -> a).  Idempotent and semantics preserving.
    """
    if isinstance(f, Var) or f is ZERO or (isinstance(f, Const) and f.value == 0):
        return f
    if isinstance(f, Const):
        return Imp(ZERO, ZERO)
    if isinstance(f, Not):
        return Imp(normalize(f.arg), ZERO)
    if isinstance(f, Circ):
        return Circ(normalize(f.arg))
    if isinstance(f, Bullet):
        return Bullet(normalize(f.arg))
    if isinstance(f, Delta):
        return Delta(normalize(f.arg))
    if isinstance(f, Or):
        a, b = normalize(f.left), normalize(f.right)
        return And(Imp(Imp(a, b), b), Imp(Imp(b, a), a))
    if isinstance(f, Iff):
        a, b = normalize(f.left), normalize(f.right)
        return And(Imp(a, b), Imp(b, a))
    ctor = type(f)
    return ctor(normalize(f.left), normalize(f.right))


def power(f: Formula, n: int) -> Formula:
    """n-fold strong conjunction of f; the empty power is the constant 1."""
    if n < 0:
        raise ValueError("power exponent must be a natural number")
    if n == 0:
        return ONE
    out = f
    for _ in range(n - 1):
        out = Fuse(out, f)
    return out


# ---------------------------------------------------------------------------
# Schemas

@dataclass(frozen=True)
class Schema:
    """A formula read with some of its variables acting as metavariables."""

    formula: Formula
    metavars: frozenset

    def __repr__(self) -> str:
        return f"Schema({render(self.formula)}, metavars={sorted(self.metavars)})"


def schema(text: str, metavars: Optional[set] = None) -> Schema:
    """Parse text as a schema; by default every variable is a metavariable."""
    f = parse(text)
    if metavars is None:
        metavars = variables(f)
    return Schema(f, frozenset(metavars))


def match_schema(s: Schema, f: Formula,
                 binding: Optional[dict] = None) -> Optional[dict]:
    """Match f against s; returns the unique binding or None.

    A successful binding b satisfies substitute(s, b) == f.  A binding
    passed in constrains the match and is extended in place, also when the
    match fails, so that several schemas can share one.
    """
    if binding is None:
        binding = {}

    def walk(pat: Formula, tgt: Formula) -> bool:
        if isinstance(pat, Var) and pat.name in s.metavars:
            if pat.name in binding:
                return binding[pat.name] == tgt
            binding[pat.name] = tgt
            return True
        if type(pat) is not type(tgt):
            return False
        if isinstance(pat, Var):
            return pat.name == tgt.name
        if isinstance(pat, Const):
            return pat.value == tgt.value
        if isinstance(pat, _UNARY):
            return walk(pat.arg, tgt.arg)
        return walk(pat.left, tgt.left) and walk(pat.right, tgt.right)

    return binding if walk(s.formula, f) else None


def substitute(s: Schema, binding: dict) -> Formula:
    """Replace each metavariable of s by its bound formula."""

    def walk(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name in s.metavars:
            try:
                return binding[node.name]
            except KeyError:
                raise KeyError(f"metavariable {node.name!r} is unbound") from None
        if isinstance(node, (Var, Const)):
            return node
        if isinstance(node, _UNARY):
            return type(node)(walk(node.arg))
        return type(node)(walk(node.left), walk(node.right))

    return walk(s.formula)


# ---------------------------------------------------------------------------
# Translations between the consistency and inconsistency languages

def to_bullet_language(f: Formula) -> Formula:
    """Replace every O a by ~# a."""
    if isinstance(f, Circ):
        return Not(Bullet(to_bullet_language(f.arg)))
    if isinstance(f, (Var, Const)):
        return f
    if isinstance(f, _UNARY):
        return type(f)(to_bullet_language(f.arg))
    return type(f)(to_bullet_language(f.left), to_bullet_language(f.right))


def to_circ_language(f: Formula) -> Formula:
    """Replace every # a by ~O a."""
    if isinstance(f, Bullet):
        return Not(Circ(to_circ_language(f.arg)))
    if isinstance(f, (Var, Const)):
        return f
    if isinstance(f, _UNARY):
        return type(f)(to_circ_language(f.arg))
    return type(f)(to_circ_language(f.left), to_circ_language(f.right))
