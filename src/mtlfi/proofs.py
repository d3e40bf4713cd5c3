"""Bundled proof scripts and the chain pairings they are checked against.

Each fixture holds a derivation in the numbered script format, whose header
line `proof <name> in <profile>` names its profile, and the finite models on
which every line is confirmed semantically.  The mutants are deliberately
broken copies used as negative controls; each one records the line where
verification must stop.
"""

from __future__ import annotations

from .chain import GODEL, LUKASIEWICZ, FiniteChain, builtin_chains
from .operators import dual, op_from_spec
from .semantics import ChainModel

__all__ = ["FIXTURES", "MUTANTS", "fixture_chains", "fixture_models"]


FIXTURES = {
    "chain-imp": {
        "pairings": [("L3", None), ("G3", None), ("NM6", None)],
        "text": """
proof chain-imp in MTL
1. p -> q | premise 1
2. q -> r | premise 2
3. (p -> q) -> ((q -> r) -> (p -> r)) | axiom A1
4. (q -> r) -> (p -> r) | mp 1 3
5. p -> r | mp 2 4
""",
    },
    "derive-weaken": {
        "pairings": [("L3", None), ("G3", None), ("W15", None)],
        "text": """
proof derive-weaken in MTL
1. p & q -> p | axiom A2
2. (p & q -> p) -> (p -> (q -> p)) | axiom A7b
3. p -> (q -> p) | mp 1 2
""",
    },
    "and-right": {
        "pairings": [("L5", None), ("G5", None)],
        "text": """
proof and-right in MTL
1. p /\\ q -> q /\\ p | axiom A5
2. q /\\ p -> q | axiom A4
3. (p /\\ q -> q /\\ p) -> ((q /\\ p -> q) -> (p /\\ q -> q)) | axiom A1
4. (q /\\ p -> q) -> (p /\\ q -> q) | mp 1 3
5. p /\\ q -> q | mp 2 4
""",
    },
    "fuse-right": {
        "pairings": [("L5", None), ("NM6", None)],
        "text": """
proof fuse-right in MTL
1. p & q -> q & p | axiom A3
2. q & p -> q | axiom A2
3. (p & q -> q & p) -> ((q & p -> q) -> (p & q -> q)) | axiom A1
4. (q & p -> q) -> (p & q -> q) | mp 1 3
5. p & q -> q | mp 2 4
""",
    },
    "explosion": {
        "pairings": [("L3", None), ("G3", None), ("B2", None)],
        "text": """
proof explosion in MTL
1. p | premise 1
2. ~p | premise 2
3. 0 | mp 1 2
4. 0 -> q | axiom A9
5. q | mp 3 4
""",
    },
    "b1-to-a1": {
        "pairings": [("L3", "min"), ("L5", "min"), ("NM6", "min"), ("B2", "min")],
        "text": """
proof b1-to-a1 in MTL-o-nn+
1. ~O p \\/ p \\/ ~p | axiom B1
2. ((~O p \\/ p) \\/ ~p) -> ((~O p \\/ ~~p) \\/ ~p) | thm dne-under-or
3. (~O p \\/ ~~p) \\/ ~p | mp 1 2
4. ((~O p \\/ ~~p) \\/ ~p) -> ((~p \\/ ~~p) \\/ ~O p) | thm or-perm
5. (~p \\/ ~~p) \\/ ~O p | mp 3 4
6. ((~p \\/ ~~p) \\/ ~O p) -> (~(p /\\ ~p) \\/ ~O p) | thm demorgan-intro-or
7. ~(p /\\ ~p) \\/ ~O p | mp 5 6
8. (~(p /\\ ~p) \\/ ~O p) -> ~((p /\\ ~p) /\\ O p) | thm demorgan-intro
9. ~(p /\\ ~p /\\ O p) | mp 7 8
""",
    },
    "cong-admissible": {
        "pairings": [("L3", "min"), ("L5", "min"), ("NM6", "min")],
        "text": """
proof cong-admissible in MTL-o-nn+
1. (p <-> q) \\/ r | premise 1
2. O ((p <-> q) \\/ r) | rule ONec 1
3. O ((p <-> q) \\/ r) -> (O (p <-> q) \\/ r) | axiom B3
4. O (p <-> q) \\/ r | mp 2 3
5. O (p <-> q) -> (O p <-> O q) | axiom B2
6. (O (p <-> q) -> (O p <-> O q)) -> ((O (p <-> q) \\/ r) -> ((O p <-> O q) \\/ r)) | thm or-mono
7. (O (p <-> q) \\/ r) -> ((O p <-> O q) \\/ r) | mp 5 6
8. (O p <-> O q) \\/ r | mp 4 7
""",
    },
    "cong-use": {
        "pairings": [("L3", "min"), ("G3", "max"), ("L3G3", "max")],
        "text": """
proof cong-use in MTL-o
1. (p <-> q) \\/ r | premise 1
2. (O p <-> O q) \\/ r | rule Cong 1
""",
    },
    "cong-plain": {
        "pairings": [("L3", "min"), ("L3G3", "min")],
        "text": """
proof cong-plain in MTL-o
1. p <-> q | premise 1
2. O p <-> O q | rule Cong 1
""",
    },
    "coh-use": {
        "pairings": [("L3", "min"), ("G3", "max"), ("L3G3", "max")],
        "text": """
proof coh-use in MTL-o
1. (~~p /\\ (p -> q)) \\/ r | premise 1
2. (O p -> O q) \\/ r | rule Coh 1
""",
    },
    "degree-adj": {
        "pairings": [("L3", None), ("G3", None), ("NM6", None)],
        "text": """
proof degree-adj in MTL<=
1. p | premise 1
2. q | premise 2
3. p /\\ q | rule Adj 1 2
4. p /\\ q -> p | axiom A4
5. p | rule MPr 3 4
""",
    },
    "degree-cong": {
        "pairings": [("L3", "min"), ("G3", "max")],
        "text": """
proof degree-cong in MTL-o<=
1. p <-> p | thm iff-id
2. O p <-> O p | rule Cong-r 1
""",
    },
    "delta-nec": {
        "pairings": [("L3", None), ("G3", None), ("NM6", None)],
        "text": """
proof delta-nec in MTLD
1. p | premise 1
2. D p | rule DNec 1
3. D p -> p | axiom D3
4. p | mp 2 3
""",
    },
    "min-axiom": {
        "pairings": [("L3", "min"), ("G3", "min"), ("L3G3", "min")],
        "text": """
proof min-axiom in MTL-o-min
1. p & q \\/ ~(p & q) \\/ ~O (p & q) | axiom OA4
""",
    },
    "max-bl-axiom": {
        "pairings": [("L3", "max"), ("G3", "max"), ("L3G3", "max")],
        "text": """
proof max-bl-axiom in BL-o-max
1. (~~p -> p) \\/ O p | axiom maxBL
""",
    },
    "dat-axiom": {
        "pairings": [("L3", "min"), ("G3", "min"), ("L3G3", "min")],
        "text": """
proof dat-axiom in MTL-o-dat
1. O (p \\/ q) -> (p \\/ q \\/ ~(p \\/ q)) | axiom OEM
""",
    },
    "bullet-axioms": {
        "pairings": [("L3", "dual-min"), ("G3", "dual-max"), ("L3G3", "dual-max")],
        "text": """
proof bullet-axioms in MTL-b
1. ~(p /\\ ~p) \\/ # p | axiom bA1
2. ~# 1 | axiom bA2
3. ~# 0 | axiom bA3
""",
    },
    "bullet-cong": {
        "pairings": [("L3", "dual-min"), ("L3G3", "dual-min")],
        "text": """
proof bullet-cong in MTL-b
1. (p <-> q) \\/ r | premise 1
2. (# p <-> # q) \\/ r | rule CongB 1
""",
    },
    "bullet-coh": {
        "pairings": [("L3", "dual-min"), ("G3", "dual-max")],
        "text": """
proof bullet-coh in MTL-b
1. (~~p /\\ (p -> q)) \\/ r | premise 1
2. (# q -> # p) \\/ r | rule CohB 1
""",
    },
    "bullet-min-rule": {
        "pairings": [("L3", "dual-max"), ("G3", "dual-max"), ("L3G3", "dual-max")],
        "text": """
proof bullet-min-rule in MTL-b-min
1. ~~p \\/ r | premise 1
2. ~# p \\/ r | rule DNEB 1
""",
    },
    "wnm-axiom": {
        "pairings": [("NM6", None), ("W15", None)],
        "text": """
proof wnm-axiom in WNM
1. (p & q -> 0) \\/ (p /\\ q -> p & q) | axiom WNM
""",
    },
    "inv-axiom": {
        "pairings": [("L3", None), ("L5", None), ("NM6", None)],
        "text": """
proof inv-axiom in IMTL
1. ~~(p -> q) -> (p -> q) | axiom Inv
""",
    },
    "prod-cancel": {
        "pairings": [("B2", None)],
        "text": """
proof prod-cancel in Prod
1. ~p \\/ ((p -> p & q) -> q) | axiom C
""",
    },
    "g-contraction": {
        "pairings": [("G3", None), ("G5", None), ("B2", None)],
        "text": """
proof g-contraction in G
1. (p \\/ q) -> (p \\/ q) & (p \\/ q) | axiom Con
""",
    },
}


MUTANTS = [
    {
        "name": "mut-chain-imp",
        "expected_line": 4,
        "text": """
proof mut-chain-imp in MTL
1. p -> q | premise 1
2. q -> r | premise 2
3. (p -> q) -> ((q -> r) -> (p -> r)) | axiom A1
4. (q -> r) -> (p -> r) | mp 2 3
5. p -> r | mp 2 4
""",
    },
    {
        "name": "mut-weaken",
        "expected_line": 2,
        "text": """
proof mut-weaken in MTL
1. p & q -> p | axiom A2
2. (p & q -> p) -> (p -> (q -> p)) | axiom A7a
3. p -> (q -> p) | mp 1 2
""",
    },
    {
        "name": "mut-b1-to-a1",
        "expected_line": 3,
        "text": """
proof mut-b1-to-a1 in MTL-o-nn+
1. ~O p \\/ p \\/ ~p | axiom B1
2. ((~O p \\/ p) \\/ ~p) -> ((~O p \\/ ~~p) \\/ ~p) | thm dne-under-or
3. (~O p \\/ ~~q) \\/ ~p | mp 1 2
4. ((~O p \\/ ~~p) \\/ ~p) -> ((~p \\/ ~~p) \\/ ~O p) | thm or-perm
5. (~p \\/ ~~p) \\/ ~O p | mp 3 4
""",
    },
    {
        "name": "mut-degree-cong",
        "expected_line": 2,
        "text": """
proof mut-degree-cong in MTL-o<=
1. p <-> p | premise 1
2. O p <-> O p | rule Cong-r 1
""",
    },
    {
        "name": "mut-cong-admissible",
        "expected_line": 3,
        "text": """
proof mut-cong-admissible in MTL-o-nn+
1. (p <-> q) \\/ r | premise 1
2. O ((p <-> q) \\/ r) | rule ONec 1
3. O ((p <-> q) \\/ r) -> (O (p <-> q) \\/ r) | axiom B2
4. O (p <-> q) \\/ r | mp 2 3
""",
    },
]


def fixture_chains() -> dict:
    """Built-in chains plus the five-element two-component sum used in
    several pairings."""
    chains = builtin_chains()
    chains["L3G3"] = FiniteChain.ordinal_sum(
        [(LUKASIEWICZ, 3), (GODEL, 3)], name="L3G3")
    return chains


def _op_for(chain, spec):
    """(consistency, inconsistency) operators of a pairing: an operator name
    of op_from_spec, or dual-<name> for the dual of one."""
    if spec is None:
        return None, None
    if spec.startswith("dual-"):
        return None, dual(op_from_spec(chain, spec[len("dual-"):]))
    return op_from_spec(chain, spec), None


def fixture_models(name: str, chains: dict = None) -> list:
    """Instantiate the models a fixture is confirmed against."""
    if chains is None:
        chains = fixture_chains()
    models = []
    for chain_name, op_spec in FIXTURES[name]["pairings"]:
        chain = chains[chain_name]
        cop, bop = _op_for(chain, op_spec)
        models.append(ChainModel(chain_name, chain, cop, bop))
    return models
