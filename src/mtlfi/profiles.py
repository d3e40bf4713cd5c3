"""Built-in Hilbert-style axiom systems.

The registry covers the core residuated system and its usual named
extensions, the top-projection expansion, the consistency-operator systems
(base, double-negation, crisp, minimal, maximal and excluded-middle-bounded
variants), their inconsistency-operator duals, and a degree-preserving
companion for every truth-preserving profile (suffix "<=").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import InputError
from .formula import Or, Schema, Var, schema

__all__ = [
    "Rule", "LogicProfile", "UnknownProfile", "load_profile", "profile_names",
    "REGISTERED_THEOREMS", "BASES", "BL_EXTENSIONS",
]


class UnknownProfile(InputError, KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's quoted key


@dataclass(frozen=True)
class Rule:
    """An inference rule; premises flagged True demand established theorems.

    vee_var names the side-disjunct metavariable of a disjunctive rule form;
    such rules also accept the plain instance with the side disjunct dropped.
    """

    rid: str
    premises: tuple          # of (Schema, requires_theorem)
    conclusion: Schema
    vee_var: Optional[str] = None

    def restricted(self) -> "Rule":
        prems = tuple((s, True) for s, _ in self.premises)
        return Rule(self.rid + "-r", prems, self.conclusion, self.vee_var)

    def stripped(self) -> Optional["Rule"]:
        """The plain instance of a disjunctive form, or None."""
        if self.vee_var is None:
            return None

        def strip(s: Schema) -> Optional[Schema]:
            f = s.formula
            if isinstance(f, Or) and isinstance(f.right, Var) \
                    and f.right.name == self.vee_var:
                return Schema(f.left, s.metavars - {self.vee_var})
            return None

        prems = []
        for s, thm in self.premises:
            reduced = strip(s)
            if reduced is None:
                return None
            prems.append((reduced, thm))
        concl = strip(self.conclusion)
        if concl is None:
            return None
        return Rule(self.rid, tuple(prems), concl, None)


@dataclass
class LogicProfile:
    name: str
    base: str
    axioms: dict
    rules: dict
    mode: str = "truth"          # truth | degree
    mp_allowed: bool = True
    uses_circ: bool = False
    uses_bullet: bool = False

    def __repr__(self) -> str:
        return (f"LogicProfile({self.name}: {len(self.axioms)} axioms, "
                f"{len(self.rules)} rules, mode={self.mode})")


# ---------------------------------------------------------------------------
# Axiom schemas (metavariables f, g, h; side disjunct d)

_MTL_AXIOMS = {
    "A1": "(f -> g) -> ((g -> h) -> (f -> h))",
    "A2": "f & g -> f",
    "A3": "f & g -> g & f",
    "A4": "f /\\ g -> f",
    "A5": "f /\\ g -> g /\\ f",
    "A6": "f & (f -> g) -> f /\\ g",
    "A7a": "(f -> (g -> h)) -> (f & g -> h)",
    "A7b": "(f & g -> h) -> (f -> (g -> h))",
    "A8": "((f -> g) -> h) -> (((g -> f) -> h) -> h)",
    "A9": "0 -> f",
}

_EXTENSION_AXIOMS = {
    "Inv": "~~f -> f",
    "C": "~f \\/ ((f -> f & g) -> g)",
    "Con": "f -> f & f",
    "Div": "f /\\ g -> f & (f -> g)",
    "PC": "f /\\ ~f -> 0",
    "WNM": "(f & g -> 0) \\/ (f /\\ g -> f & g)",
}

_DELTA_AXIOMS = {
    "D1": "D f \\/ ~D f",
    "D2": "D (f \\/ g) -> (D f \\/ D g)",
    "D3": "D f -> f",
    "D4": "D f -> D D f",
    "D5": "D (f -> g) -> (D f -> D g)",
}

_CIRC_AXIOMS = {
    "OA1": "~(f /\\ ~f /\\ O f)",
    "OA2": "O 1",
    "OA3": "O 0",
}

_CIRC_EXTRA = {
    "c": "O f \\/ ~O f",
    "OA4": "f \\/ ~f \\/ ~O f",
    "maxBL": "(~~f -> f) \\/ O f",
    "OEM": "O f -> (f \\/ ~f)",
    "B1": "~O f \\/ f \\/ ~f",
    "B2": "O (f <-> g) -> (O f <-> O g)",
    "B3": "O (f \\/ g) -> (O f \\/ g)",
    "B4": "O 0",
}

_BULLET_AXIOMS = {
    "bA1": "~(f /\\ ~f) \\/ # f",
    "bA2": "~# 1",
    "bA3": "~# 0",
}

_BULLET_EXTRA = {
    "bc": "# f \\/ ~# f",
    "bA4": "f \\/ ~f \\/ # f",
}

_ALL_AXIOM_TEXT = {}
for _d in (_MTL_AXIOMS, _EXTENSION_AXIOMS, _DELTA_AXIOMS, _CIRC_AXIOMS,
           _CIRC_EXTRA, _BULLET_AXIOMS, _BULLET_EXTRA):
    _ALL_AXIOM_TEXT.update(_d)

_AXIOMS = {key: schema(text) for key, text in _ALL_AXIOM_TEXT.items()}


def _ax(*keys) -> dict:
    return {k: _AXIOMS[k] for k in keys}


# ---------------------------------------------------------------------------
# Rules

def _rule(rid, premises, conclusion, vee=None):
    prems = tuple((schema(p) if isinstance(p, str) else p,
                   bool(thm)) for p, thm in premises)
    return Rule(rid, prems, schema(conclusion), vee)


_RULES = {
    "Cong": _rule("Cong", [("(f <-> g) \\/ d", False)],
                  "(O f <-> O g) \\/ d", vee="d"),
    "Coh": _rule("Coh", [("(~~f /\\ (f -> g)) \\/ d", False)],
                 "(O f -> O g) \\/ d", vee="d"),
    "DNE": _rule("DNE", [("~~f", False)], "f"),
    "ONec": _rule("ONec", [("f", False)], "O f"),
    "DNEO": _rule("DNEO", [("~~f \\/ d", False)], "O f \\/ d", vee="d"),
    "CongB": _rule("CongB", [("(f <-> g) \\/ d", False)],
                   "(# f <-> # g) \\/ d", vee="d"),
    "CohB": _rule("CohB", [("(~~f /\\ (f -> g)) \\/ d", False)],
                  "(# g -> # f) \\/ d", vee="d"),
    "DNEB": _rule("DNEB", [("~~f \\/ d", False)], "~# f \\/ d", vee="d"),
    "DNec": _rule("DNec", [("f", False)], "D f"),
    "Adj": _rule("Adj", [("f", False), ("g", False)], "f /\\ g"),
    "MPr": _rule("MPr", [("f", False), ("f -> g", True)], "g"),
}


# ---------------------------------------------------------------------------
# Registered theorem store for restricted-rule side conditions

_THEOREM_TEXT = {
    "imp-id": "f -> f",
    "iff-id": "f <-> f",
    "weaken": "f -> (g -> f)",
    "dni": "f -> ~~f",
    "contrapose": "(f -> g) -> (~g -> ~f)",
    "demorgan-and": "~(f /\\ g) <-> (~f \\/ ~g)",
    "demorgan-intro": "(~f \\/ ~g) -> ~(f /\\ g)",
    "demorgan-intro-or": "((~f \\/ ~g) \\/ h) -> (~(f /\\ g) \\/ h)",
    "or-mono": "(f -> g) -> ((f \\/ h) -> (g \\/ h))",
    "dne-under-or": "((h \\/ f) \\/ d) -> ((h \\/ ~~f) \\/ d)",
    "or-perm": "((f \\/ g) \\/ h) -> ((h \\/ g) \\/ f)",
    "or-weaken": "f -> (f \\/ g)",
}

REGISTERED_THEOREMS = {name: schema(text) for name, text in _THEOREM_TEXT.items()}


# ---------------------------------------------------------------------------
# Registry

BASES = {
    "MTL": (),
    "SMTL": ("PC",),
    "IMTL": ("Inv",),
    "WNM": ("WNM",),
    "NM": ("Inv", "WNM"),
    "BL": ("Div",),
    "SBL": ("Div", "PC"),
    "Luk": ("Div", "Inv"),
    "Prod": ("Div", "C"),
    "G": ("Con",),
}

BL_EXTENSIONS = frozenset({"BL", "SBL", "Luk", "Prod", "G"})

# Each operator variant, by suffix: the axioms it adds to its base's, and
# its rules.  A -o variant is in the consistency language, a -b variant in
# the inconsistency language.  Over an extension of BL the maximal variant
# -o-max also has the axiom maxBL.
_VARIANTS = {
    "-o": ("OA1 OA2 OA3", "Cong Coh"),
    "-o-nn": ("OA1 OA2 OA3", "Cong Coh DNE"),
    "-o-nn+": ("B1 B2 B3 B4", "DNE ONec"),
    "-o-c": ("OA1 OA2 OA3 c", "Cong Coh"),
    "-o-min": ("OA1 OA2 OA3 OA4", "Cong Coh"),
    "-o-max": ("OA1 OA2 OA3", "Cong Coh DNEO"),
    "-o-dat": ("OA1 OA2 OA3 OEM", "Cong Coh"),
    "-b": ("bA1 bA2 bA3", "CongB CohB"),
    "-b-nn": ("bA1 bA2 bA3", "CongB CohB DNE"),
    "-b-c": ("bA1 bA2 bA3 bc", "CongB CohB"),
    "-b-min": ("bA1 bA2 bA3", "CongB CohB DNEB"),
    "-b-max": ("bA1 bA2 bA3 bA4", "CongB CohB"),
}


def _truth_profiles():
    """Each base, each of its operator variants, and MTLD."""
    for base, extras in BASES.items():
        base_axioms = _ax(*_MTL_AXIOMS, *extras)
        yield LogicProfile(base, base, base_axioms, {})
        for suffix, (axioms, rules) in _VARIANTS.items():
            axioms = axioms.split()
            if suffix == "-o-max" and base in BL_EXTENSIONS:
                axioms.append("maxBL")
            yield LogicProfile(base + suffix, base, base_axioms | _ax(*axioms),
                               {rid: _RULES[rid] for rid in rules.split()},
                               uses_circ=suffix.startswith("-o"),
                               uses_bullet=suffix.startswith("-b"))
    yield LogicProfile("MTLD", "MTL", _ax(*_MTL_AXIOMS, *_DELTA_AXIOMS),
                       {"DNec": _RULES["DNec"]})


def _degree_twin(p: LogicProfile) -> LogicProfile:
    rules = {"Adj": _RULES["Adj"], "MPr": _RULES["MPr"]}
    for rid, rule in p.rules.items():
        restricted = rule.restricted()
        rules[restricted.rid] = restricted
    return LogicProfile(p.name + "<=", p.base, dict(p.axioms), rules,
                        mode="degree", mp_allowed=False,
                        uses_circ=p.uses_circ, uses_bullet=p.uses_bullet)


_REGISTRY = {p.name: p for p in _truth_profiles()}
_REGISTRY |= {t.name: t for t in map(_degree_twin, _REGISTRY.values())}


def profile_names() -> list:
    return sorted(_REGISTRY)


def load_profile(name: str) -> LogicProfile:
    """Look up a built-in profile; '-leq' is accepted for the '<=' suffix."""
    key = name.strip()
    if key.endswith("-leq"):
        key = key[:-4] + "<="
    try:
        return _REGISTRY[key]
    except KeyError:
        *suffixes, last = _VARIANTS
        raise UnknownProfile(
            f"unknown profile {name!r}; a name is a base ({', '.join(BASES)})"
            f" with an optional suffix {', '.join(suffixes)} or {last}, or"
            " MTLD; a final <= (or -leq) names its degree-preserving"
            " companion") from None
