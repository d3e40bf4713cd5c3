"""The renderer, the tokenizer and the profile registry that
formula._SYNTAX and profiles._VARIANTS replaced, kept as their
differential oracles.

render is formula.render as it was, with a symbol dict per alphabet and
one level constant per binding power.  _TOKEN is formula._TOKEN as it
was, every connective symbol and the variable rule written out by hand,
and parse is formula.parse reading it.  _build_registry is the registry
as it was built, one _add call per operator variant, into this module's
_REGISTRY (with _degree_twin as it was), and unknown_profile_message is the message load_profile gave
for a name it does not know, each variant listed by hand.  Each must give
the same text, the same tokens and formula or error, and the same
profiles with their axiom and rule dicts in the same order.
"""

import re
from unittest import mock

from mtlfi import formula
from mtlfi.formula import (And, Bullet, Circ, Const, Delta, Formula, Fuse,
                           Iff, Imp, Not, Or, Var, _UNARY)
from mtlfi.profiles import (BASES, BL_EXTENSIONS, LogicProfile, _DELTA_AXIOMS,
                            _MTL_AXIOMS, _RULES, _ax)


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


_REGISTRY: dict = {}


def _add(profile: LogicProfile):
    _REGISTRY[profile.name] = profile


def _degree_twin(p: LogicProfile) -> LogicProfile:
    rules = {"Adj": _RULES["Adj"], "MPr": _RULES["MPr"]}
    for rid, rule in p.rules.items():
        restricted = rule.restricted()
        rules[restricted.rid] = restricted
    return LogicProfile(p.name + "<=", p.base, dict(p.axioms), rules,
                        mode="degree", mp_allowed=False,
                        uses_circ=p.uses_circ, uses_bullet=p.uses_bullet)


def _build_registry():
    for base, extras in BASES.items():
        base_axioms = dict(_ax(*_MTL_AXIOMS)) | _ax(*extras)
        _add(LogicProfile(base, base, base_axioms, {}))

        circ = base_axioms | _ax("OA1", "OA2", "OA3")
        circ_rules = {"Cong": _RULES["Cong"], "Coh": _RULES["Coh"]}
        _add(LogicProfile(f"{base}-o", base, circ, dict(circ_rules),
                          uses_circ=True))
        _add(LogicProfile(f"{base}-o-nn", base, dict(circ),
                          circ_rules | {"DNE": _RULES["DNE"]}, uses_circ=True))
        _add(LogicProfile(f"{base}-o-nn+", base,
                          base_axioms | _ax("B1", "B2", "B3", "B4"),
                          {"DNE": _RULES["DNE"], "ONec": _RULES["ONec"]},
                          uses_circ=True))
        _add(LogicProfile(f"{base}-o-c", base, circ | _ax("c"),
                          dict(circ_rules), uses_circ=True))
        _add(LogicProfile(f"{base}-o-min", base, circ | _ax("OA4"),
                          dict(circ_rules), uses_circ=True))
        max_axioms = dict(circ)
        if base in BL_EXTENSIONS:
            max_axioms |= _ax("maxBL")
        _add(LogicProfile(f"{base}-o-max", base, max_axioms,
                          circ_rules | {"DNEO": _RULES["DNEO"]},
                          uses_circ=True))
        _add(LogicProfile(f"{base}-o-dat", base, circ | _ax("OEM"),
                          dict(circ_rules), uses_circ=True))

        bullet = base_axioms | _ax("bA1", "bA2", "bA3")
        bullet_rules = {"CongB": _RULES["CongB"], "CohB": _RULES["CohB"]}
        _add(LogicProfile(f"{base}-b", base, bullet, dict(bullet_rules),
                          uses_bullet=True))
        _add(LogicProfile(f"{base}-b-nn", base, dict(bullet),
                          bullet_rules | {"DNE": _RULES["DNE"]},
                          uses_bullet=True))
        _add(LogicProfile(f"{base}-b-c", base, bullet | _ax("bc"),
                          dict(bullet_rules), uses_bullet=True))
        _add(LogicProfile(f"{base}-b-max", base, bullet | _ax("bA4"),
                          dict(bullet_rules), uses_bullet=True))
        _add(LogicProfile(f"{base}-b-min", base, dict(bullet),
                          bullet_rules | {"DNEB": _RULES["DNEB"]},
                          uses_bullet=True))

    _add(LogicProfile("MTLD", "MTL", _ax(*_MTL_AXIOMS) | _ax(*_DELTA_AXIOMS),
                      {"DNec": _RULES["DNec"]}))

    for profile in list(_REGISTRY.values()):
        _add(_degree_twin(profile))


_build_registry()


# Every token; \S catches any other non-space character for the error path.
# \s is Unicode whitespace, the characters str.isspace accepts.
_TOKEN = re.compile(r"[()]|[a-z][a-z0-9_]*|<?->|/\\|\\/|[~O#D&01]|\S")


def parse(text: str) -> Formula:
    """formula.parse with the tokenizer above, which its error path and its
    depth check read too."""
    with mock.patch.object(formula, "_TOKEN", _TOKEN):
        return formula.parse(text)


def unknown_profile_message(name: str) -> str:
    """load_profile's message for a name that no profile has."""
    return (
        f"unknown profile {name!r}; a name is a base ({', '.join(BASES)})"
        " with an optional suffix -o, -o-nn, -o-nn+, -o-c, -o-min, -o-max,"
        " -o-dat, -b, -b-nn, -b-c, -b-min or -b-max, or MTLD; a final <="
        " (or -leq) names its degree-preserving companion")
