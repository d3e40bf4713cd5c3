r"""Propositional formulas for residuated fuzzy logics with consistency markers.

The language has variables, the constants 0 and 1, the unary connectives
~ (negation), O (consistency), # (inconsistency) and D (top projection),
and the binary connectives & (strong conjunction), /\ (lattice conjunction),
\/ (lattice disjunction), -> (implication) and <-> (equivalence).

ASCII grammar, tightest to loosest: unary {~, O, #, D}; & ; /\ ; \/ ;
-> and <-> (right associative, same level, mixing requires parentheses).
Variables are [a-z][a-z0-9_]* (_VARIABLE).  One table, _SYNTAX, declares
each connective's ASCII and Unicode symbols and binding power, and each
constant's symbols: parse's tokenizer and token tables are built from it,
and render reads it.  parse builds the tree in one loop, without recursion,
and rejects a formula more than MAX_DEPTH levels deep.
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

_LEAVES = (Var, Const)
_UNARY = (Not, Circ, Bullet, Delta)
_BINARY = (And, Fuse, Or, Imp, Iff)

# Each connective, tightest first, and each constant: (ASCII symbol,
# Unicode symbol, binding power).  The arrows share the loosest power; a
# constant, an atom, has none.
_SYNTAX = {
    Not: ("~", "¬", 4), Circ: ("O", "○", 4), Bullet: ("#", "•", 4),
    Delta: ("D", "Δ", 4), Fuse: ("&", "&", 3), And: ("/\\", "∧", 2),
    Or: ("\\/", "∨", 1), Imp: ("->", "→", 0), Iff: ("<->", "↔", 0),
    ZERO: ("0", "0̄", None), ONE: ("1", "1̄", None),
}


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


# A variable's name: a lowercase ASCII letter, then lowercase ASCII letters,
# digits and underscores.
_VARIABLE = "[a-z][a-z0-9_]*"
# Every token: a parenthesis, a variable, a symbol of _SYNTAX (the longer
# symbols, longest first, then one class of the single characters), or \S,
# any other non-space character, for the error path.  \s is Unicode
# whitespace, the characters str.isspace accepts.
_SYMBOLS = sorted((sym for sym, _, _ in _SYNTAX.values()), key=len,
                  reverse=True)
_TOKEN = re.compile("|".join(
    ["[()]", _VARIABLE, *(re.escape(s) for s in _SYMBOLS if len(s) > 1),
     "[" + "".join(re.escape(s) for s in _SYMBOLS if len(s) == 1) + "]",
     r"\S"]))
_CONST = {_SYNTAX[c][0]: c for c in (ZERO, ONE)}
# the stack entry each operand-opening token pushes: None for "(", and for
# a prefix (binding power, constructor, no left operand, unused)
_PREFIX = {sym: (power, t, None, 0)
           for t, (sym, _, power) in _SYNTAX.items() if t in _UNARY}
_PREFIX["("] = None
# infix token -> (binding power, constructor); the arrows share the loosest
# level, fold to the right, and are folded only where their group ends
_INFIX = {sym: (power, t)
          for t, (sym, _, power) in _SYNTAX.items() if t in _BINARY}
_KNOWN = {*_CONST, *_PREFIX, *_INFIX, ")"}
# every atom parse has read, by its token: the constants and one Var per
# distinct name, shared by every text; and every connective node parse has
# built on atoms alone, by _node's key, shared by every text too (at most
# 5 a**2 + 4 a nodes for a atoms, and no atom's id is ever reused)
_ATOMS = dict(_CONST)
_ON_ATOMS = {}
_ATOM_EXPECTED = ("variable", *_CONST, *_PREFIX)

# The most nodes on any root-to-leaf path of a parsed formula.  Rendering,
# normalising, evaluating, compiling and comparing recurse once or twice per
# level; this keeps them inside Python's default recursion limit of 1000.
MAX_DEPTH = 300


def parse(text: str) -> Formula:
    """Parse ASCII text into a formula tree.

    One operator-precedence loop over the tokens: every prefix and infix
    connective waits on one stack until a looser connective, or the end of
    its group, reduces it.  Each name has one Var, shared by all its
    occurrences in every text, and within one text equal subformulas are
    one node (_node); a connective on atoms alone is one node in every
    text.  A text with more tokens than MAX_DEPTH is also measured, since
    only such a text can be deeper than that.
    """
    toks = _TOKEN.findall(text)
    toks.append("")                         # end of input
    stack = []      # None for an open "(", else (power, constructor, left, i)
    nodes = {}      # the text's connective nodes, by _node's key
    i = 0
    while True:
        # an operand: prefixes and open groups, then an atom
        tok = toks[i]
        while tok in _PREFIX:
            stack.append(_PREFIX[tok])
            i += 1
            tok = toks[i]
        node = _ATOMS.get(tok)
        if node is None:
            if not "a" <= tok[:1] <= "z":
                raise _syntax_error(
                    text, toks, i,
                    f"unexpected token {tok or 'end of input'!r}",
                    _ATOM_EXPECTED)
            node = _ATOMS[tok] = Var(tok)
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
                node = _node(nodes, top[1], top[2], node)
            if infix:
                stack.append((infix[0], infix[1], node, i))
                i += 1
                break
            if stack and stack[-1] is not None:
                node = _fold_arrows(text, toks, stack, nodes, node)
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


def _node(nodes, ctor, left, arg):
    """The text's one node for ctor over left (None for a prefix) and arg
    (_shared), which is every text's one node when its children are
    atoms."""
    if type(arg) in _LEAVES and (left is None or type(left) in _LEAVES):
        nodes = _ON_ATOMS
    return _shared(nodes, ctor, left, arg)


def _fold_arrows(text, toks, stack, nodes, node):
    """Fold the arrows that end the innermost group, to the right."""
    ops = []
    while stack and stack[-1] is not None:
        _, ctor, left, i = stack.pop()
        node = _node(nodes, ctor, left, node)
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
    atoms = 0
    for node, level in _walk(root):
        if type(node) in _LEAVES:
            if level > MAX_DEPTH:
                offsets = [m.start() for m in _TOKEN.finditer(text)
                           if m[0] in _CONST or "a" <= m[0][0] <= "z"]
                raise FormulaSyntaxError(
                    f"formula deeper than {MAX_DEPTH} levels", offsets[atoms])
            atoms += 1


# ---------------------------------------------------------------------------
# Rendering

def render(f: Formula, unicode: bool = False) -> str:
    """Render a formula with minimal parentheses; parse(render(f)) == f."""
    alphabet = 1 if unicode else 0

    def go(node: Formula, floor: int) -> str:
        # floor: the least binding power node may have without parentheses
        t = type(node)
        if t is Var:
            return node.name
        if t is Const:
            return _SYNTAX[node][alphabet]
        sym, power = _SYNTAX[t][alphabet], _SYNTAX[t][2]
        if t in _UNARY:
            body = sym + ("" if t is Not else " ") + go(node.arg, power)
        elif power:
            # left associative: a right operand of the same power is bracketed
            body = f"{go(node.left, power)} {sym} {go(node.right, power + 1)}"
        else:
            # Right associative chains of the same arrow stay unparenthesized;
            # a different arrow on the right must be bracketed.
            right = go(node.right, 0 if type(node.right) is t else 1)
            body = f"{go(node.left, 1)} {sym} {right}"
        return "(" + body + ")" if floor > power else body

    return go(f, 0)


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


def _walk(f: Formula) -> Iterator[tuple]:
    """Every node occurrence of f with its level, the root's being 1, in
    text order: each node before its subformulas, left before right."""
    stack = [(f, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        if type(node) in _BINARY:
            stack += ((node.right, level + 1), (node.left, level + 1))
        elif type(node) in _UNARY:
            stack.append((node.arg, level + 1))


def depth(f: Formula) -> int:
    """The most nodes on any root-to-leaf path of f."""
    return max(level for _, level in _walk(f))


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula nodes, root first, in text order."""
    return (node for node, _ in _walk(f))


def normalize(f: Formula, nodes: Optional[dict] = None) -> Formula:
    """Rewrite to the core connectives {variables, 0, /\\, &, ->, O, #, D}.

    1 becomes 0 -> 0, ~a becomes a -> 0, a \\/ b becomes
    ((a -> b) -> b) /\\ ((b -> a) -> a) and a <-> b becomes
    (a -> b) /\\ (b -> a).  Idempotent and semantics preserving.

    The result is a DAG: every node is taken from the dict nodes, one per
    node type and children by identity (a fresh dict by default).  Results
    normalized through one dict share every equal subformula as one
    object, so == between them stops at identity instead of walking the
    tree that the rewrite of \\/ doubles at every level.
    """
    return _normal(f, {} if nodes is None else nodes, {})


def _normal(f: Formula, nodes: dict, memo: dict) -> Formula:
    """normalize's rewrite of f, each distinct input node (by identity)
    once per call."""
    key = id(f)
    out = memo.get(key)
    if out is not None:
        return out
    t = type(f)
    if t is Var:
        out = nodes.setdefault((Var, f.name), f)
    elif t is Const:
        out = _shared(nodes, Imp, ZERO, ZERO) if f.value else ZERO
    elif t is Not:
        out = _shared(nodes, Imp, _normal(f.arg, nodes, memo), ZERO)
    elif t in _UNARY:
        out = _shared(nodes, t, None, _normal(f.arg, nodes, memo))
    else:
        a, b = _normal(f.left, nodes, memo), _normal(f.right, nodes, memo)
        if t is Or:
            a, b = (_shared(nodes, Imp, _shared(nodes, Imp, a, b), b),
                    _shared(nodes, Imp, _shared(nodes, Imp, b, a), a))
        elif t is Iff:
            a, b = _shared(nodes, Imp, a, b), _shared(nodes, Imp, b, a)
        out = _shared(nodes, And if t is Or or t is Iff else t, a, b)
    memo[key] = out
    return out


def _shared(nodes: dict, ctor, left, arg) -> Formula:
    """nodes' one node for ctor over left (None for a prefix) and arg, keyed
    by the children's ids: they are shared bottom-up already, and nodes
    keeps each alive, so no id is reused and no recursive hash runs."""
    key = (ctor, id(left), id(arg))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = ctor(arg) if left is None else ctor(left, arg)
    return node


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

    def swap(node: Formula) -> Formula:
        if type(node) is Var and node.name in s.metavars:
            try:
                return binding[node.name]
            except KeyError:
                raise KeyError(f"metavariable {node.name!r} is unbound") from None
        return node

    return _rebuild(s.formula, swap)


def _rebuild(f: Formula, swap) -> Formula:
    """f rebuilt bottom-up: each node, over its rebuilt children, replaced
    by swap(node)."""
    t = type(f)
    if t in _UNARY:
        f = t(_rebuild(f.arg, swap))
    elif t in _BINARY:
        f = t(_rebuild(f.left, swap), _rebuild(f.right, swap))
    return swap(f)


# ---------------------------------------------------------------------------
# Translations between the consistency and inconsistency languages

def to_bullet_language(f: Formula) -> Formula:
    """Replace every O a by ~# a."""
    return _rebuild(f, lambda n: Not(Bullet(n.arg)) if type(n) is Circ
                    else n)


def to_circ_language(f: Formula) -> Formula:
    """Replace every # a by ~O a."""
    return _rebuild(f, lambda n: Not(Circ(n.arg)) if type(n) is Bullet
                    else n)
