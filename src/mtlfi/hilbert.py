"""Verification of Hilbert-style derivations against the built-in profiles.

Lines are matched modulo rewriting to the core connectives, so a script may
freely write ~a for a -> 0 or 1 for ~0.  Premise dependencies are computed,
never declared: axiom and registered-theorem lines carry no dependencies,
a premise line depends on itself, and detachment or rule lines inherit the
union of their references.  Rule premises that demand established theorems
only accept referenced lines with empty dependency sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .formula import Formula, Imp, Schema, match_schema, normalize, parse
from .profiles import (LogicProfile, REGISTERED_THEOREMS, Rule, load_profile)
from .semantics import (ChainModel, OperatorNotBound, degree_consequence,
                        finite_scan, truth_consequence)

import itertools

__all__ = [
    "ProofLine", "ProofScript", "VerificationResult", "parse_proof",
    "verify_proof", "HilbertError", "ProofSyntaxError", "ChainProfileMismatch",
    "validate_pairing",
    "SoundnessReport", "soundness_bridge", "axiom_holds_on", "rule_sound_on",
]


class HilbertError(Exception):
    pass


class ProofSyntaxError(HilbertError, ValueError):
    """A malformed proof script."""


class ChainProfileMismatch(HilbertError):
    pass


@dataclass(frozen=True)
class ProofLine:
    number: int
    formula: Formula
    justification: tuple


@dataclass
class ProofScript:
    name: str
    profile_name: str
    lines: list


@dataclass
class VerificationResult:
    ok: bool
    line: Optional[int] = None
    reason: Optional[str] = None
    deps: dict = field(default_factory=dict)
    premises: dict = field(default_factory=dict)
    script: Optional[ProofScript] = None
    profile: Optional[LogicProfile] = None

    def __repr__(self) -> str:
        if self.ok:
            return "VerificationResult(ok)"
        return f"VerificationResult(invalid line {self.line}: {self.reason})"


# ---------------------------------------------------------------------------
# Script parsing

def parse_proof(text: str) -> ProofScript:
    """Parse the numbered proof format.

    Header 'proof <name> in <profile>', then lines
    'n. <formula> | axiom <id> | premise <k> | mp <i> <j> |
    rule <id> <refs...> | thm <name>'.
    """
    name = ""
    profile_name = ""
    lines = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        if raw.startswith("proof "):
            rest = raw[len("proof "):]
            name, _, profile_name = rest.partition(" in ")
            name, profile_name = name.strip(), profile_name.strip()
            continue
        head, dot, rest = raw.partition(".")
        if not dot or not head.strip().isdecimal():
            raise ProofSyntaxError(f"malformed proof line: {raw!r}")
        number = int(head)
        body, bar, just_text = rest.partition("|")
        if not bar:
            raise ProofSyntaxError(f"line {number} lacks a justification")
        formula = parse(body.strip())
        tokens = just_text.split()
        if not tokens:
            raise ProofSyntaxError(f"line {number} has an empty justification")
        kind = tokens[0]
        # the line numbers a premise, mp or rule justification refers to
        numeric = all(t.isdecimal() for t in tokens[2 if kind == "rule" else 1:])
        if kind == "axiom" and len(tokens) == 2:
            just = ("axiom", tokens[1])
        elif kind == "premise" and len(tokens) == 2 and numeric:
            just = ("premise", int(tokens[1]))
        elif kind == "mp" and len(tokens) == 3 and numeric:
            just = ("mp", int(tokens[1]), int(tokens[2]))
        elif kind == "rule" and len(tokens) >= 3 and numeric:
            just = ("rule", tokens[1], tuple(int(t) for t in tokens[2:]))
        elif kind == "thm" and len(tokens) == 2:
            just = ("thm", tokens[1])
        else:
            raise ProofSyntaxError(f"line {number}: bad justification "
                                   f"{just_text.strip()!r}")
        lines.append(ProofLine(number, formula, just))
    if not profile_name:
        raise ProofSyntaxError("proof file must start with 'proof <name> in <profile>'")
    return ProofScript(name, profile_name, lines)


# ---------------------------------------------------------------------------
# Matching helpers (all modulo normalization)

def _norm_schema(s: Schema) -> Schema:
    return Schema(normalize(s.formula), s.metavars)


def _match_rule(rule: Rule, ref_norms: Sequence[Formula],
                concl: Formula) -> Optional[dict]:
    binding: dict = {}
    for (s, _), ref in zip(rule.premises, ref_norms):
        if match_schema(_norm_schema(s), ref, binding) is None:
            return None
    return match_schema(_norm_schema(rule.conclusion), concl, binding)


# ---------------------------------------------------------------------------
# Verification

def verify_proof(script: ProofScript, profile: Optional[LogicProfile] = None,
                 theorems: Optional[dict] = None) -> VerificationResult:
    """Check every line; reports the first invalid line with its reason."""
    if profile is None:
        profile = load_profile(script.profile_name)
    store = dict(REGISTERED_THEOREMS)
    if theorems:
        store.update(theorems)

    norm_axioms = {aid: _norm_schema(s) for aid, s in profile.axioms.items()}
    norm_thms = {tid: _norm_schema(s) for tid, s in store.items()}

    norms: dict = {}
    deps: dict = {}
    premises: dict = {}

    def fail(line, reason):
        return VerificationResult(False, line.number, reason,
                                  script=script, profile=profile)

    last_number = 0
    for line in script.lines:
        if line.number <= last_number:
            return fail(line, f"line numbers must increase ({line.number} "
                              f"after {last_number})")
        last_number = line.number
        current = normalize(line.formula)
        just = line.justification
        kind = just[0]
        if kind == "axiom":
            ax = norm_axioms.get(just[1])
            if ax is None:
                return fail(line, f"UnknownAxiom: {just[1]!r} is not in {profile.name}")
            if match_schema(ax, current) is None:
                return fail(line, f"SchemaMismatch: not an instance of axiom {just[1]}")
            d = frozenset()
        elif kind == "premise":
            k = just[1]
            if k in premises and premises[k] != current:
                return fail(line, f"PremiseConflict: premise {k} already introduced "
                                  f"with a different formula")
            premises[k] = current
            d = frozenset([k])
        elif kind == "mp":
            if not profile.mp_allowed:
                return fail(line, "MpNotAvailable: this profile has no unrestricted "
                                  "detachment; use rule MPr")
            i, j = just[1], just[2]
            if i not in norms or j not in norms or i >= line.number or j >= line.number:
                return fail(line, f"BadReference: mp needs earlier lines, got {i}, {j}")
            if norms[j] != Imp(norms[i], current):
                return fail(line, "MpMismatch: the second reference is not "
                                  "(first reference -> this line)")
            d = deps[i] | deps[j]
        elif kind == "rule":
            rid, refs = just[1], just[2]
            rule = profile.rules.get(rid)
            if rule is None:
                return fail(line, f"UnknownRule: {rid!r} is not in {profile.name}")
            if len(refs) != len(rule.premises):
                return fail(line, f"BadRuleArity: rule {rid} takes "
                                  f"{len(rule.premises)} premises, got {len(refs)}")
            for r in refs:
                if r not in norms or r >= line.number:
                    return fail(line, f"BadReference: rule {rid} cites line {r}")
            ref_norms = [norms[r] for r in refs]
            binding = _match_rule(rule, ref_norms, current)
            if binding is None:
                stripped = rule.stripped()
                if stripped is not None:
                    binding = _match_rule(stripped, ref_norms, current)
            if binding is None:
                return fail(line, f"SchemaMismatch: lines do not instantiate rule {rid}")
            for (s, needs_theorem), r in zip(rule.premises, refs):
                if needs_theorem and deps[r]:
                    return fail(line, f"RestrictedRuleOnHypothesis: rule {rid} "
                                      f"needs line {r} to be premise-free")
            d = frozenset().union(*[deps[r] for r in refs]) if refs else frozenset()
        elif kind == "thm":
            thm = norm_thms.get(just[1])
            if thm is None:
                return fail(line, f"UnknownTheorem: {just[1]!r} is not registered")
            if match_schema(thm, current) is None:
                return fail(line, f"SchemaMismatch: not an instance of "
                                  f"theorem {just[1]}")
            d = frozenset()
        else:
            return fail(line, f"unknown justification kind {kind!r}")
        norms[line.number] = current
        deps[line.number] = d

    return VerificationResult(True, deps=deps, premises=premises,
                              script=script, profile=profile)


# ---------------------------------------------------------------------------
# Semantic side: axiom/rule checks and the line-by-line bridge

def axiom_holds_on(s: Schema, model: ChainModel) -> Optional[tuple]:
    """Exhaustively evaluate a schema with its metavariables ranging over a
    finite chain; returns a falsifying assignment or None."""
    return _exhaustive_witness(model, [], s.formula, sorted(s.metavars))


def rule_sound_on(rule: Rule, model: ChainModel) -> Optional[tuple]:
    """Element-wise truth soundness: premise schemas at 1 force the
    conclusion to 1.  Returns a falsifying assignment or None."""
    names = sorted(frozenset().union(rule.conclusion.metavars,
                                     *[s.metavars for s, _ in rule.premises]))
    return _exhaustive_witness(model, [s.formula for s, _ in rule.premises],
                               rule.conclusion.formula, names)


def _exhaustive_witness(model: ChainModel, premises, conclusion,
                        names) -> Optional[tuple]:
    chain = model.chain
    envs = itertools.product(range(chain.size), repeat=len(names))
    env = finite_scan(model, premises, conclusion, "truth", names, envs)[0]
    return None if env is None else tuple(chain.elements[i] for i in env)


def validate_pairing(profile: LogicProfile, model: ChainModel) -> None:
    """Raise ChainProfileMismatch unless the model validates every axiom and
    rule of the profile.  Restricted to finite chains, where the checks are
    exhaustive."""
    if not model.chain.is_finite:
        raise ValueError("pairing validation is decided on finite chains")
    if profile.uses_circ and model.consistency is None:
        raise ChainProfileMismatch(f"{profile.name} needs a consistency operator")
    if profile.uses_bullet and model.inconsistency is None:
        raise ChainProfileMismatch(f"{profile.name} needs an inconsistency operator")
    try:
        for aid, s in profile.axioms.items():
            witness = axiom_holds_on(s, model)
            if witness is not None:
                raise ChainProfileMismatch(
                    f"axiom {aid} of {profile.name} fails on {model.name} "
                    f"at {witness}")
        for rid, rule in profile.rules.items():
            witness = rule_sound_on(rule, model)
            if witness is not None:
                raise ChainProfileMismatch(
                    f"rule {rid} of {profile.name} is unsound on {model.name} "
                    f"at {witness}")
    except OperatorNotBound as exc:
        raise ChainProfileMismatch(str(exc)) from None


@dataclass
class SoundnessReport:
    ok: bool
    entries: list                      # (line number, model name, verdict)
    detail: Optional[str] = None


def soundness_bridge(result: VerificationResult, models: Sequence[ChainModel],
                     grid_denominator: int = 60) -> SoundnessReport:
    """Confirm each verified line semantically: its recorded premises must
    entail it on every supplied model, in the profile's own mode."""
    if not result.ok:
        raise ValueError("soundness_bridge needs a verified proof")
    profile = result.profile
    entries = []
    for model in models:
        validate_pairing(profile, model)
        for line in result.script.lines:
            prems = [result.premises[k] for k in sorted(result.deps[line.number])]
            if profile.mode == "degree":
                res = degree_consequence([model], prems, line.formula,
                                         grid_denominator)
            else:
                res = truth_consequence([model], prems, line.formula,
                                        grid_denominator)
            entries.append((line.number, model.name, res.verdict))
    ok = all(v == "holds" for _, _, v in entries)
    detail = None
    if not ok:
        bad = [e for e in entries if e[2] != "holds"][0]
        detail = f"line {bad[0]} is not supported on {bad[1]} ({bad[2]})"
    return SoundnessReport(ok, entries, detail)
