import itertools
import time

import pytest

from mtlfi.formula import to_bullet_language, to_circ_language
from mtlfi.hilbert import (ChainProfileMismatch, ProofSyntaxError,
                           SoundnessReport, axiom_holds_on, parse_proof,
                           rule_sound_on, soundness_bridge, validate_pairing,
                           verify_proof)
from mtlfi.operators import dual, enumerate_ops, max_op, min_op
from mtlfi.profiles import (BASES, REGISTERED_THEOREMS, UnknownProfile,
                            load_profile, profile_names)
from mtlfi.proofs import FIXTURES, MUTANTS, fixture_chains, fixture_models
from mtlfi.semantics import ChainModel, OperatorNotBound
from reference_closures import compile_closures


# the whole message, which names every base and every operator variant
UNKNOWN_NOPE = (
    "unknown profile 'nope'; a name is a base (MTL, SMTL, IMTL, WNM, NM, BL,"
    " SBL, Luk, Prod, G) with an optional suffix -o, -o-nn, -o-nn+, -o-c,"
    " -o-min, -o-max, -o-dat, -b, -b-nn, -b-c, -b-min or -b-max, or MTLD; a"
    " final <= (or -leq) names its degree-preserving companion")


class TestRegistry:
    def test_core_profile_contents(self):
        mtl = load_profile("MTL")
        assert len(mtl.axioms) == 10
        assert mtl.mp_allowed and not mtl.rules

    def test_named_extensions_exist(self):
        for name in BASES:
            load_profile(name)
        for name in ("MTLD", "Luk-o", "G-o-nn", "WNM-o-c", "NM-o-min",
                     "BL-o-max", "MTL-o-dat", "MTL-b", "IMTL-b-c",
                     "Prod-b-min", "SBL-b-max", "SMTL-o-nn+"):
            load_profile(name)

    def test_degree_companions(self):
        for name in ("MTL<=", "MTL-o<=", "BL-o-max<=", "MTL-b<="):
            profile = load_profile(name)
            assert profile.mode == "degree"
            assert not profile.mp_allowed
            assert "Adj" in profile.rules and "MPr" in profile.rules
        assert "Cong-r" in load_profile("MTL-o<=").rules
        assert "DNEO-r" in load_profile("MTL-o-max<=").rules

    def test_leq_alias(self):
        assert load_profile("MTL-o-leq") is load_profile("MTL-o<=")

    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile) as info:
            load_profile("nope")
        assert isinstance(info.value, KeyError)
        assert str(info.value) == UNKNOWN_NOPE

    def test_bl_form_of_the_maximal_rule(self):
        assert "maxBL" in load_profile("BL-o-max").axioms
        assert "maxBL" not in load_profile("MTL-o-max").axioms
        assert "DNEO" in load_profile("MTL-o-max").rules

    def test_registry_size(self):
        names = profile_names()
        assert len(names) == len(set(names))
        # ten bases, twelve marker variants each, one projection profile,
        # and a degree twin for everything
        assert len(names) == (10 * 13 + 1) * 2


def _pairings(chains):
    """Profile/model pairs used for semantic validation of the registry."""
    l3, g3, l5, g5 = chains["L3"], chains["G3"], chains["L5"], chains["G5"]
    nm6, b2, l3g3 = chains["NM6"], chains["B2"], chains["L3G3"]
    out = [
        ("MTL", ChainModel("L3", l3)),
        ("MTL", ChainModel("NM6", nm6)),
        ("MTL", ChainModel("L3G3", l3g3)),
        ("SMTL", ChainModel("G5", g5)),
        ("IMTL", ChainModel("NM6", nm6)),
        ("WNM", ChainModel("NM6", nm6)),
        ("NM", ChainModel("NM6", nm6)),
        ("BL", ChainModel("L3G3", l3g3)),
        ("SBL", ChainModel("G3", g3)),
        ("Luk", ChainModel("L5", l5)),
        ("Prod", ChainModel("B2", b2)),
        ("G", ChainModel("G5", g5)),
        ("MTLD", ChainModel("L3", l3)),
        ("MTL-o", ChainModel("L3", l3, min_op(l3))),
        ("MTL-o", ChainModel("L3G3", l3g3, max_op(l3g3))),
        ("MTL-o-nn", ChainModel("L5", l5, min_op(l5))),
        ("MTL-o-nn+", ChainModel("NM6", nm6, min_op(nm6))),
        ("MTL-o-c", ChainModel("L3G3", l3g3, max_op(l3g3))),
        ("MTL-o-min", ChainModel("L3G3", l3g3, min_op(l3g3))),
        ("MTL-o-max", ChainModel("L3G3", l3g3, max_op(l3g3))),
        ("BL-o-max", ChainModel("L3G3", l3g3, max_op(l3g3))),
        ("MTL-o-dat", ChainModel("G3", g3, min_op(g3))),
        ("MTL-b", ChainModel("L3", l3, None, dual(min_op(l3)))),
        ("MTL-b-min", ChainModel("L3G3", l3g3, None, dual(max_op(l3g3)))),
        ("MTL-b-max", ChainModel("L3G3", l3g3, None, dual(min_op(l3g3)))),
        ("MTL-b-c", ChainModel("G3", g3, None, dual(max_op(g3)))),
    ]
    return out


def test_profile_axioms_are_tautologies_on_valid_models(chains):
    for name, model in _pairings(chains):
        profile = load_profile(name)
        for aid, s in profile.axioms.items():
            witness = axiom_holds_on(s, model)
            assert witness is None, f"{name}.{aid} fails on {model.name} at {witness}"


def test_profile_rules_are_element_sound_on_valid_models(chains):
    for name, model in _pairings(chains):
        profile = load_profile(name)
        for rid, rule in profile.rules.items():
            witness = rule_sound_on(rule, model)
            assert witness is None, f"{name}.{rid} unsound on {model.name} at {witness}"


def test_registered_theorems_hold_on_all_finite_chains(chains):
    models = [ChainModel(n, chains[n])
              for n in ("B2", "L3", "G3", "L5", "G5", "NM6", "L3G3", "W15")]
    for tid, s in REGISTERED_THEOREMS.items():
        for model in models:
            witness = axiom_holds_on(s, model)
            assert witness is None, f"{tid} fails on {model.name} at {witness}"


# ---------------------------------------------------------------------------
# axiom_holds_on and rule_sound_on against their loops before the shared
# finite scan, over the per-tuple reference closures

def _reference_axiom_holds_on(s, model):
    chain = model.chain
    names = sorted(s.metavars)
    fn = compile_closures(model, s.formula, names)
    top = chain.size - 1
    for env in itertools.product(range(chain.size), repeat=len(names)):
        if fn(env) != top:
            return tuple(chain.elements[i] for i in env)
    return None


def _reference_rule_sound_on(rule, model):
    chain = model.chain
    names = sorted(frozenset().union(rule.conclusion.metavars,
                                     *[s.metavars for s, _ in rule.premises]))
    prem_fns = [compile_closures(model, s.formula, names)
                for s, _ in rule.premises]
    concl_fn = compile_closures(model, rule.conclusion.formula, names)
    top = chain.size - 1
    for env in itertools.product(range(chain.size), repeat=len(names)):
        if all(fn(env) == top for fn in prem_fns) and concl_fn(env) != top:
            return tuple(chain.elements[i] for i in env)
    return None


def _outcome(check, item, model):
    try:
        return check(item, model)
    except OperatorNotBound as exc:
        return "OperatorNotBound", str(exc)


def _fixture_models():
    """Every finite fixture chain bare, with min/max consistency operators,
    and with the dual inconsistency operators."""
    out = []
    for name, chain in fixture_chains().items():
        if not chain.is_finite:
            continue
        out.append(ChainModel(name, chain))
        out.append(ChainModel(name, chain, max_op(chain), dual(min_op(chain))))
        out.append(ChainModel(name, chain, min_op(chain), dual(max_op(chain))))
    return out


def _distinct(items):
    return list({repr(item): item for item in items}.values())


def test_axiom_and_rule_checks_match_their_loops():
    profiles = [load_profile(name) for name in profile_names()]
    axioms = _distinct(s for p in profiles for s in p.axioms.values())
    rules = _distinct(r for p in profiles for r in p.rules.values())
    assert len(axioms) > 30 and len(rules) > 15
    failures = 0
    for model in _fixture_models():
        for s in axioms:
            ours = _outcome(axiom_holds_on, s, model)
            assert ours == _outcome(_reference_axiom_holds_on, s, model), \
                (s, model.name)
            failures += isinstance(ours, tuple) and ours[0] != "OperatorNotBound"
        for rule in rules:
            ours = _outcome(rule_sound_on, rule, model)
            assert ours == _outcome(_reference_rule_sound_on, rule, model), \
                (rule.rid, model.name)
            failures += isinstance(ours, tuple) and ours[0] != "OperatorNotBound"
    assert failures > 0


class TestVerify:
    def test_all_fixtures_verify(self):
        for name, spec in FIXTURES.items():
            result = verify_proof(parse_proof(spec["text"]))
            assert result.ok, f"{name}: line {result.line}: {result.reason}"

    def test_dependency_tracking(self):
        result = verify_proof(parse_proof(FIXTURES["chain-imp"]["text"]))
        assert result.deps[5] == frozenset({1, 2})
        assert result.deps[3] == frozenset()
        result = verify_proof(parse_proof(FIXTURES["cong-admissible"]["text"]))
        assert result.deps[8] == frozenset({1})
        result = verify_proof(parse_proof(FIXTURES["degree-cong"]["text"]))
        assert result.deps[2] == frozenset()

    def test_mutants_rejected_at_the_intended_line(self):
        for mutant in MUTANTS:
            result = verify_proof(parse_proof(mutant["text"]))
            assert not result.ok
            assert result.line == mutant["expected_line"], mutant["name"]

    def test_mutant_reasons(self):
        by_name = {m["name"]: m for m in MUTANTS}
        r = verify_proof(parse_proof(by_name["mut-weaken"]["text"]))
        assert "SchemaMismatch" in r.reason
        r = verify_proof(parse_proof(by_name["mut-degree-cong"]["text"]))
        assert "RestrictedRuleOnHypothesis" in r.reason
        r = verify_proof(parse_proof(by_name["mut-chain-imp"]["text"]))
        assert "Mp" in r.reason

    def test_defined_connectives_match_modulo_rewriting(self):
        text = """
proof negation-as-implication in MTL
1. p | premise 1
2. p -> 0 | premise 2
3. 0 | mp 1 2
"""
        assert verify_proof(parse_proof(text)).ok

    def test_mp_unavailable_in_degree_profiles(self):
        text = """
proof bad-mp in MTL<=
1. p | premise 1
2. p -> p | thm imp-id
3. p | mp 1 2
"""
        result = verify_proof(parse_proof(text))
        assert not result.ok and result.line == 3
        assert "MpNotAvailable" in result.reason

    def test_bad_rule_arity(self):
        text = """
proof bad-arity in MTL-o
1. (p <-> q) \\/ r | premise 1
2. (p <-> q) \\/ r | premise 2
3. (O p <-> O q) \\/ r | rule Cong 1 2
"""
        result = verify_proof(parse_proof(text))
        assert not result.ok and "BadRuleArity" in result.reason

    def test_forward_reference_rejected(self):
        text = """
proof forward in MTL
1. q | mp 2 3
2. p | premise 1
3. p -> q | premise 2
"""
        result = verify_proof(parse_proof(text))
        assert not result.ok and result.line == 1

    def test_unknown_axiom_and_theorem(self):
        bad_axiom = "proof x in MTL\n1. p -> p | axiom A99\n"
        assert "UnknownAxiom" in verify_proof(parse_proof(bad_axiom)).reason
        bad_thm = "proof x in MTL\n1. p -> p | thm nothere\n"
        assert "UnknownTheorem" in verify_proof(parse_proof(bad_thm)).reason

    @pytest.mark.parametrize("conclusion, ok", [
        ("(O p <-> O q) \\/ r", True),
        ("(O p <-> O s) \\/ r", False),   # g is bound to q by the premise
        ("(O p <-> O q) \\/ s", False),   # d is bound to r by the premise
    ])
    def test_rule_binding_is_shared_by_premise_and_conclusion(self, conclusion, ok):
        text = ("proof shared in MTL-o\n1. (p <-> q) \\/ r | premise 1\n"
                f"2. {conclusion} | rule Cong 1\n")
        result = verify_proof(parse_proof(text))
        assert result.ok is ok
        if not ok:
            assert result.line == 2 and "SchemaMismatch" in result.reason

    def test_a_long_disjunction_is_checked_in_linear_time(self):
        # normalizing a \/ b shares a and b twice, so the tree under a line
        # with 16 disjunctions has millions of nodes; one node table per
        # verification makes the comparisons stop at identity
        big = "p" + " \\/ p" * 16
        text = (f"proof long in MTL\n1. {big} | premise 1\n"
                f"2. ({big}) -> ({big}) | thm imp-id\n3. {big} | mp 1 2\n")
        start = time.perf_counter()
        result = verify_proof(parse_proof(text))
        assert result.ok and result.deps[3] == frozenset({1})
        assert time.perf_counter() - start < 2

    def test_premise_conflict(self):
        text = """
proof conflict in MTL
1. p | premise 1
2. q | premise 1
"""
        result = verify_proof(parse_proof(text))
        assert not result.ok and "PremiseConflict" in result.reason


class TestParseProofErrors:
    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_proof("1. p | premise 1\n")

    def test_missing_justification(self):
        with pytest.raises(ValueError):
            parse_proof("proof x in MTL\n1. p\n")

    def test_bad_line_number(self):
        with pytest.raises(ValueError):
            parse_proof("proof x in MTL\nfirst. p | premise 1\n")

    @pytest.mark.parametrize("text, message", [
        # a second header used to rename the script and change its profile
        ("proof a in MTL\n1. p -> p | thm imp-id\nproof b in G\n",
         "repeated proof file key 'proof'"),
        # and a late one to name it
        ("1. p -> p | thm imp-id\nproof a in MTL\nproof b in G\n",
         "proof file must start with 'proof <name> in <profile>'"),
        ("1. p -> p | thm imp-id\nproof a in MTL\n",
         "proof file must start with 'proof <name> in <profile>'"),
        # a header without a name used to name the script ''
        ("proof  in MTL\n1. p -> p | thm imp-id\n",
         "proof file must start with 'proof <name> in <profile>'"),
    ])
    def test_header_first_and_once(self, text, message):
        with pytest.raises(ProofSyntaxError) as info:
            parse_proof(text)
        assert str(info.value) == message


class TestSoundnessBridge:
    def test_fixtures_confirm_on_their_models(self):
        chains = fixture_chains()
        for name, spec in FIXTURES.items():
            result = verify_proof(parse_proof(spec["text"]))
            report = soundness_bridge(result, fixture_models(name, chains))
            assert isinstance(report, SoundnessReport)
            assert report.ok, f"{name}: {report.detail}"

    def test_wrong_operator_pairing_is_rejected(self, chains):
        l3g3 = chains["L3G3"]
        profile = load_profile("MTL-o-min")
        with pytest.raises(ChainProfileMismatch):
            validate_pairing(profile, ChainModel("L3G3", l3g3, max_op(l3g3)))

    def test_missing_operator_is_rejected(self, chains):
        with pytest.raises(ChainProfileMismatch):
            validate_pairing(load_profile("MTL-o"),
                             ChainModel("L3", chains["L3"]))

    def test_double_negation_rule_needs_the_right_chains(self, chains):
        l3g3 = chains["L3G3"]
        profile = load_profile("MTL-o-nn")
        with pytest.raises(ChainProfileMismatch):
            validate_pairing(profile, ChainModel("L3G3", l3g3, min_op(l3g3)))

    def test_bridge_needs_a_verified_proof(self):
        result = verify_proof(parse_proof(MUTANTS[0]["text"]))
        with pytest.raises(ValueError):
            soundness_bridge(result, [])


class TestDualTranslations:
    """The marker-swap translations preserve validity on dual models."""

    def _holds(self, model, s):
        witness = axiom_holds_on(s, model)
        return witness is None

    def test_circ_axioms_translate_to_bullet_models(self, chains):
        from mtlfi.formula import Schema
        circ_profile = load_profile("MTL-o")
        for name in ("B2", "L3", "G3", "L3G3"):
            chain = chains[name]
            for op in enumerate_ops(chain):
                model = ChainModel(name, chain, op, dual(op))
                for aid, s in circ_profile.axioms.items():
                    translated = Schema(to_bullet_language(s.formula), s.metavars)
                    assert self._holds(model, translated), (name, aid)

    def test_bullet_axioms_translate_to_circ_models(self, chains):
        from mtlfi.formula import Schema
        bullet_profile = load_profile("MTL-b")
        for name in ("B2", "L3", "G3"):
            chain = chains[name]
            for op in enumerate_ops(chain):
                model = ChainModel(name, chain, op, dual(op))
                for aid, s in bullet_profile.axioms.items():
                    translated = Schema(to_circ_language(s.formula), s.metavars)
                    assert self._holds(model, translated), (name, aid)

    def test_min_max_swap_under_duality(self, chains):
        # the dual of the maximal operator validates the minimal bullet
        # system and vice versa
        l3g3 = chains["L3G3"]
        validate_pairing(load_profile("MTL-b-min"),
                         ChainModel("L3G3", l3g3, None, dual(max_op(l3g3))))
        validate_pairing(load_profile("MTL-b-max"),
                         ChainModel("L3G3", l3g3, None, dual(min_op(l3g3))))
        with pytest.raises(ChainProfileMismatch):
            validate_pairing(load_profile("MTL-b-min"),
                             ChainModel("L3G3", l3g3, None, dual(min_op(l3g3))))
