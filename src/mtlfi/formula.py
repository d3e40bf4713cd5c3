r"""Propositional formulas for residuated fuzzy logics with consistency markers.

The language has variables, the constants 0 and 1, the unary connectives
~ (negation), O (consistency), # (inconsistency) and D (top projection),
and the binary connectives & (strong conjunction), /\ (lattice conjunction),
\/ (lattice disjunction), -> (implication) and <-> (equivalence).

ASCII grammar, tightest to loosest: unary {~, O, #, D}; & ; /\ ; \/ ;
-> and <-> (right associative, same level, mixing requires parentheses).
Variables are [a-z][a-z0-9_]*.  parse builds the tree in one loop, without
recursion, and rejects a formula more than MAX_DEPTH levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from . import InputError

__all__ = [
    "Formula", "Var", "Const", "Not", "Circ", "Bullet", "Delta",
    "And", "Fuse", "Or", "Imp", "Iff", "ZERO", "ONE",
    "FormulaSyntaxError", "MAX_DEPTH", "parse", "render", "normalize",
    "variables", "depth", "subformulas", "power", "Schema", "schema",
    "match_schema", "substitute", "to_bullet_language", "to_circ_language",
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

class FormulaSyntaxError(InputError, ValueError):
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


# Every token; \S catches any other non-space character for the error path.
# \s is Unicode whitespace, the characters str.isspace accepts.
_TOKEN = re.compile(r"[()]|[a-z][a-z0-9_]*|<?->|/\\|\\/|[~O#D&01]|\S")
_CONST = {"0": ZERO, "1": ONE}
# the stack entry each operand-opening token pushes: None for "(", and for
# a prefix (binding power, constructor, no left operand, unused)
_PREFIX = {"~": (4, Not, None, 0), "O": (4, Circ, None, 0),
           "#": (4, Bullet, None, 0), "D": (4, Delta, None, 0), "(": None}
# infix token -> (binding power, constructor); the arrows share the loosest
# level, fold to the right, and are folded only where their group ends
_INFIX = {"&": (3, Fuse), "/\\": (2, And), "\\/": (1, Or),
          "->": (0, Imp), "<->": (0, Iff)}
_KNOWN = {*_CONST, *_PREFIX, *_INFIX, ")"}
_ATOM_EXPECTED = ("variable", "0", "1", "~", "O", "#", "D", "(")

# The most nodes on any root-to-leaf path of a parsed formula.  Rendering,
# normalising, evaluating, compiling and comparing recurse once or twice per
# level; this keeps them inside Python's default recursion limit of 1000.
MAX_DEPTH = 300


def parse(text: str) -> Formula:
    """Parse ASCII text into a formula tree.

    One operator-precedence loop over the tokens: every prefix and infix
    connective waits on one stack until a looser connective, or the end of
    its group, reduces it.  Each name gets one Var, shared by all its
    occurrences in the text.  A text with more tokens than MAX_DEPTH is also
    measured, since only such a text can be deeper than that.
    """
    toks = _TOKEN.findall(text)
    toks.append("")                         # end of input
    stack = []      # None for an open "(", else (power, constructor, left, i)
    atoms = dict(_CONST)    # and one Var per name, shared by its occurrences
    i = 0
    while True:
        # an operand: prefixes and open groups, then an atom
        tok = toks[i]
        while tok in _PREFIX:
            stack.append(_PREFIX[tok])
            i += 1
            tok = toks[i]
        node = atoms.get(tok)
        if node is None:
            if not "a" <= tok[:1] <= "z":
                raise _syntax_error(
                    text, toks, i,
                    f"unexpected token {tok or 'end of input'!r}",
                    _ATOM_EXPECTED)
            node = atoms[tok] = Var(tok)
        i += 1
        while True:
            # an infix token, or the end of the innermost group
            tok = toks[i]
            infix = _INFIX.get(tok)
            floor = (infix[0] or 1) if infix else 1   # arrows wait
            while stack:
                top = stack[-1]
                if top is None or top[0] < floor:
                    break
                del stack[-1]
                node = top[1](node) if top[2] is None else top[1](top[2], node)
            if infix:
                stack.append((infix[0], infix[1], node, i))
                i += 1
                break
            if stack and stack[-1] is not None:
                node = _fold_arrows(text, toks, stack, node)
            if stack:
                if tok != ")":
                    raise _syntax_error(
                        text, toks, i,
                        f"unexpected token {tok or 'end of input'!r}",
                        ("RPAR",))
                del stack[-1]
                i += 1
                continue
            if tok:
                raise _syntax_error(text, toks, i, f"trailing input {tok!r}",
                                    ("EOF",))
            if len(toks) > MAX_DEPTH + 1:
                _check_depth(text, node)
            return node


def _fold_arrows(text, toks, stack, node):
    """Fold the arrows that end the innermost group, to the right."""
    ops = []
    while stack and stack[-1] is not None:
        _, ctor, left, i = stack.pop()
        node = ctor(left, node)
        ops.append((ctor, i))
    if len(ops) > 1 and any(ctor is not ops[0][0] for ctor, _ in ops):
        # reported at the group's second arrow, as the text reads
        raise _syntax_error(text, toks, ops[-2][1],
                            "mixing -> and <-> requires parentheses", ("(",))
    return node


def _syntax_error(text, toks, i, message, expected):
    """The error at token i, unless the text has a character that starts no
    token: that one is reported instead, wherever it is."""
    offsets = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    for j, tok in enumerate(toks):
        if tok and tok not in _KNOWN and not "a" <= tok[0] <= "z":
            return FormulaSyntaxError(f"unexpected character {tok!r}",
                                      offsets[j], _ATOM_EXPECTED)
    return FormulaSyntaxError(message, offsets[i], expected)


def _check_depth(text, root):
    """Raise at the first atom, in text order, deeper than MAX_DEPTH."""
    stack, atoms = [(root, 1)], 0
    while stack:
        node, depth = stack.pop()
        if type(node) in _BINARY:
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        elif type(node) in _UNARY:
            stack.append((node.arg, depth + 1))
        elif depth <= MAX_DEPTH:
            atoms += 1
        else:
            offsets = [m.start() for m in _TOKEN.finditer(text)
                       if m[0] in _CONST or "a" <= m[0][0] <= "z"]
            raise FormulaSyntaxError(
                f"formula deeper than {MAX_DEPTH} levels", offsets[atoms])


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

def variables(*formulas: Formula) -> frozenset:
    """Names of the variables occurring in any of the formulas."""
    out = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Var:
            out.add(node.name)
        elif t in _BINARY:
            stack.append(node.left)
            stack.append(node.right)
        elif t is not Const:
            stack.append(node.arg)
    return frozenset(out)


def depth(f: Formula) -> int:
    """The most nodes on any root-to-leaf path of f."""
    deepest, stack = 0, [(f, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if type(node) in _BINARY:
            stack += ((node.left, level + 1), (node.right, level + 1))
        elif type(node) in _UNARY:
            stack.append((node.arg, level + 1))
    return deepest


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
