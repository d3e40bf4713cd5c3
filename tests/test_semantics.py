import gc
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi import InputError, semantics
from mtlfi.chain import FiniteChain, GODEL, LUKASIEWICZ
from mtlfi.formula import (MAX_DEPTH, ONE, ZERO, And, Bullet, Circ, Delta,
                           Fuse, Iff, Imp, Not, Or, Var, depth, parse,
                           variables)
from mtlfi.operators import (ConsistencyOp, crisp_op, dual, enumerate_ops,
                             max_op, min_op, op_from_spec, piecewise_op,
                             validate_c)
from mtlfi.semantics import (BadPowerBound, ChainModel, DatAxiomFails,
                             Evaluation,
                             OperatorNotBound, SemanticsError,
                             TooManyVariables, UnboundVariable,
                             UnknownConnective, bridge_check,
                             check_dat_axiom, check_lfi, check_propagation,
                             classical_taut, deduction_power_bound,
                             compile_finite, degree_consequence, evaluate,
                             finite_scan, generate, pdat_search,
                             truth_consequence)
from mtlfi.suite import random_formula
from reference_closures import (closure_scan, compile_closures,
                                compile_standard)


def _weakening(n):
    """p1 -> (p2 -> ... -> (pn -> p1)), an MTL theorem over n variables."""
    f = Var("p1")
    for i in range(n, 0, -1):
        f = Imp(Var(f"p{i}"), f)
    return f


@pytest.fixture()
def lp_crisp(chains):
    lp = chains["LP"]
    return ChainModel("LP", lp, crisp_op(lp, F(3, 4)))


@pytest.fixture()
def ll_identity(chains):
    ll = chains["LL"]
    op = piecewise_op(ll, [(F(1, 2), F(1, 2)), (1, 1)], "linear")
    return ChainModel("LL", ll, op)


class TestEvaluate:
    def test_marker_blocks_fused_pair(self, lp_crisp):
        ev = Evaluation(lp_crisp.chain, {"p": F(5, 6), "q": F(3, 4)},
                        lp_crisp.consistency)
        assert evaluate(ev, parse("(O p /\\ O q) -> O (p & q)")) == 0

    def test_powered_excluded_middle_value(self, ll_identity):
        ev = Evaluation(ll_identity.chain, {"p": F(3, 5)},
                        ll_identity.consistency)
        assert evaluate(ev, parse("O p -> (p \\/ ~p) & (p \\/ ~p)")) == F(9, 10)

    def test_constants(self, chains):
        ev = Evaluation(chains["L3"], {})
        assert evaluate(ev, parse("1")) == 1
        assert evaluate(ev, parse("0")) == 0

    def test_unbound_variable(self, chains):
        with pytest.raises(UnboundVariable, match="^variable p has no value$"):
            evaluate(Evaluation(chains["L3"], {}), parse("p"))

    def test_operator_not_bound(self, chains):
        with pytest.raises(OperatorNotBound):
            evaluate(Evaluation(chains["L3"], {"p": 1}), parse("O p"))
        with pytest.raises(OperatorNotBound):
            evaluate(Evaluation(chains["L3"], {"p": 1}), parse("# p"))

    def test_raw_and_normalized_evaluation_agree(self, chains):
        rng = random.Random(7)
        from mtlfi.formula import normalize
        chain = chains["NM6"]
        for _ in range(100):
            f = random_formula(rng, ["p", "q"], 3)
            assignment = {"p": rng.choice(chain.elements),
                          "q": rng.choice(chain.elements)}
            ev = Evaluation(chain, assignment)
            assert evaluate(ev, f) == evaluate(ev, normalize(f))


class TestTruthConsequence:
    def test_marked_contradiction_axiom_is_valid(self, chains, lp_crisp):
        axiom = parse("~(p /\\ ~p /\\ O p)")
        for model in (ChainModel("L3", chains["L3"], min_op(chains["L3"])),
                      ChainModel("LG", chains["LG"], max_op(chains["LG"]))):
            res = truth_consequence([model], [], axiom)
            assert res.verdict in ("holds", "unknown")
            assert res.verdict == "holds" if model.chain.is_finite else True
        res = truth_consequence([lp_crisp], [], axiom)
        assert res.verdict != "fails"

    def test_truth_mode_is_explosive(self, chains):
        model = ChainModel("L3", chains["L3"])
        res = truth_consequence([model], [parse("p"), parse("~p")], parse("q"))
        assert res.verdict == "holds"

    def test_max_operator_breaks_excluded_middle_bound(self, chains):
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        res = truth_consequence([model], [], parse("O p -> (p \\/ ~p)"))
        assert res.verdict == "fails"
        x = res.assignment["p"]
        # re-verify the countermodel by direct evaluation
        ev = Evaluation(lg, res.assignment, model.consistency)
        assert evaluate(ev, parse("O p -> (p \\/ ~p)")) != 1
        assert model.consistency.value(x) > max(x, lg.negation(x))

    def test_unknown_on_clean_standard_scan(self, ll_identity):
        res = truth_consequence([ll_identity], [], parse("O p -> (p \\/ ~p)"))
        assert res.verdict == "unknown"
        assert res.checked > 0 and res.grid_denominator == 60

    def test_closed_formulas_are_decided_exactly(self, chains):
        model = ChainModel("LL", chains["LL"])
        assert truth_consequence([model], [], parse("1 -> 1")).verdict == "holds"
        assert truth_consequence([model], [], parse("~1")).verdict == "fails"

    def test_multiple_chains_aggregate(self, chains):
        models = [ChainModel("G3", chains["G3"]), ChainModel("L3", chains["L3"])]
        # pseudo-complementation separates the two chains
        res = truth_consequence(models, [], parse("~(p /\\ ~p)"))
        assert res.verdict == "fails" and res.chain_name == "L3"

    def test_empty_model_list_is_rejected(self):
        for check in (truth_consequence, degree_consequence):
            with pytest.raises(SemanticsError, match="at least one model"):
                check([], [parse("p")], parse("p"))


def test_a_result_is_slotted_and_reads_as_before(chains):
    # a benchmark run keeps every result, so a result has no __dict__
    model = ChainModel("L3", chains["L3"])
    res = degree_consequence([model], [parse("p"), parse("q -> p")],
                             parse("p & q"))
    assert not hasattr(res, "__dict__")
    assert res == semantics.ConsequenceResult(
        "fails", "degree", "L3", {"p": F(1, 2), "q": F(0)}, F(1, 2), None, 4)
    assert res.records() == ["verdict=fails", "mode=degree", "chain=L3",
                             "assignment=p=1/2 q=0", "witness_a=1/2",
                             "checked_count=4"]
    both = degree_consequence([model, model], [], parse("p -> p"))
    assert (both.verdict, both.checked) == ("holds", 6)


class TestDegreeConsequence:
    def test_contradiction_does_not_explode_on_involutive_chain(self, chains):
        l3 = chains["L3"]
        model = ChainModel("L3", l3, min_op(l3))
        res = degree_consequence([model], [parse("p"), parse("~p")], parse("q"))
        assert res.verdict == "fails"
        assert res.assignment == {"p": F(1, 2), "q": F(0)}
        assert res.witness == F(1, 2)

    def test_pseudo_complemented_chain_explodes(self, chains):
        model = ChainModel("G3", chains["G3"])
        res = degree_consequence([model], [parse("p"), parse("~p")], parse("q"))
        assert res.verdict == "holds"

    def test_gentle_explosion(self, chains):
        l3 = chains["L3"]
        model = ChainModel("L3", l3, min_op(l3))
        res = degree_consequence([model], [parse("O p"), parse("p"), parse("~p")],
                                 parse("q"))
        assert res.verdict == "holds"

    def test_no_premises_is_theoremhood(self, chains):
        model = ChainModel("L3", chains["L3"])
        t = truth_consequence([model], [], parse("p -> p"))
        d = degree_consequence([model], [], parse("p -> p"))
        assert t.verdict == d.verdict == "holds"


class TestLfi:
    def test_worked_models_pass_all_clauses(self, chains, lp_crisp):
        l3 = chains["L3"]
        report = check_lfi(ChainModel("L3", l3, min_op(l3)))
        assert report.is_lfi is True
        assert report.clauses["i"].assignment["p"] == F(1, 2)
        assert report.clauses["ii"].assignment["p"] == 1
        assert report.clauses["iii"].assignment["p"] == 0
        assert check_lfi(lp_crisp).is_lfi is True

    def test_pseudo_complemented_chain_is_not_paraconsistent(self, chains):
        g3 = chains["G3"]
        report = check_lfi(ChainModel("G3", g3, min_op(g3)))
        assert report.clauses["i"].passed is False
        assert report.is_lfi is False

    def test_boolean_chain_is_explosive(self, chains):
        b2 = chains["B2"]
        report = check_lfi(ChainModel("B2", b2, min_op(b2)))
        assert report.clauses["i"].passed is False

    def test_gentle_explosion_never_fails_for_valid_ops(self, chains):
        for name in ("B2", "L3", "G3", "L3G3"):
            chain = chains[name]
            for op in enumerate_ops(chain):
                report = check_lfi(ChainModel(name, chain, op))
                assert report.clauses["iv"].passed is True


class TestPropagation:
    def test_the_tokens_in_their_order(self):
        # derived from formula._SYNTAX; the CLI's --connective lists them
        assert semantics.CONNECTIVE_TOKENS == ("/\\", "&", "->", "~", "0")

    @pytest.mark.parametrize("token", ["<->", "\\/", "1", "O", "and", ""])
    def test_an_unknown_connective_is_an_input_error(self, chains, token):
        # it used to raise a bare ValueError, an internal error (exit 4)
        # for every caller but argparse
        l3 = chains["L3"]
        with pytest.raises(UnknownConnective) as exc:
            check_propagation(ChainModel("L3", l3, min_op(l3)), token)
        assert isinstance(exc.value, InputError)
        assert isinstance(exc.value, ValueError)
        assert exc.value.exit_code == 3
        assert str(exc.value) == (f"unknown connective {token!r}; known: "
                                  "/\\, &, ->, ~, 0")

    def test_lattice_conjunction_and_implication_always_propagate(self, chains):
        for name in ("L3", "G3", "L3G3"):
            chain = chains[name]
            for op in enumerate_ops(chain):
                model = ChainModel(name, chain, op)
                assert check_propagation(model, "/\\").holds is True
                assert check_propagation(model, "->").holds is True

    def test_strong_conjunction_counterexample(self, lp_crisp):
        res = check_propagation(lp_crisp, "&")
        assert res.holds is False
        assert res.value == 0
        x, y = res.pair
        op = lp_crisp.consistency
        chain = lp_crisp.chain
        lhs = min(op.value(x), op.value(y))
        assert lhs > op.value(chain.tnorm(x, y))

    def test_worked_counterpair_evaluates_to_zero(self, lp_crisp):
        chain, op = lp_crisp.chain, lp_crisp.consistency
        x, y = F(5, 6), F(3, 4)
        assert op.value(x) == op.value(y) == 1
        assert chain.tnorm(x, y) < y
        assert op.value(chain.tnorm(x, y)) == 0

    def test_strong_conjunction_fails_on_a_finite_replica(self):
        # two glued involutive components discretize the standard
        # counterexample; the crisp operator above the joint breaks there too
        from mtlfi.chain import FiniteChain, LUKASIEWICZ
        l3l3 = FiniteChain.ordinal_sum(
            [(LUKASIEWICZ, 3), (LUKASIEWICZ, 3)], name="L3L3")
        op = crisp_op(l3l3, F(3, 4))
        res = check_propagation(ChainModel("L3L3", l3l3, op), "&")
        assert res.holds is False
        assert res.pair == (F(3, 4), F(3, 4))
        assert l3l3.tnorm(F(3, 4), F(3, 4)) == F(1, 2)

    def test_extremal_operators_propagate_strong_conjunction(self, chains):
        for name in ("L3", "G3", "L3G3", "NM6", "LG", "LP", "LL"):
            chain = chains[name]
            for op in (min_op(chain), max_op(chain)):
                model = ChainModel(name, chain, op)
                assert check_propagation(model, "&").holds is True

    def test_negation_and_zero(self, chains, lp_crisp):
        l3 = chains["L3"]
        model = ChainModel("L3", l3, min_op(l3))
        assert check_propagation(model, "~").holds is True
        assert check_propagation(model, "0").holds is True
        assert check_propagation(lp_crisp, "~").holds is True

    def test_unknown_for_general_standard_op_on_clean_scan(self, ll_identity):
        res = check_propagation(ll_identity, "&", grid_denominator=12)
        assert res.holds in (None, False)

    def test_the_upgrade_validates_on_the_query_grid(self, chains,
                                                     monkeypatch):
        # a clean standard-chain scan proves -> and ~ (and lfi clause iv)
        # only for a valid operator, checked on the points just scanned
        grids = []

        def spy(chain, op, *args):
            grids.append(args)
            return validate_c(chain, op, *args)

        monkeypatch.setattr(semantics, "validate_c", spy)
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        assert check_propagation(model, "->", 12).holds is True
        assert check_propagation(model, "~", 7).holds is True
        assert check_lfi(model, 5).clauses["iv"].passed is True
        assert grids == [(12,), (7,), (5,)]

    def test_a_decreasing_operator_does_not_propagate_implication(self,
                                                                  chains):
        # not a valid operator: it drops from 1 to 0 at 3/4
        ll = chains["LL"]
        op = ConsistencyOp(ll, "piecewise", interpolation="step",
                           breakpoints=((F(1, 2), F(1)), (F(3, 4), F(0))))
        res = check_propagation(ChainModel("LL", ll, op), "->")
        assert res.holds is False
        x, y = res.pair
        assert min(op.value(x), op.value(y)) > op.value(ll.residuum(x, y))


class TestDatAndPdat:
    def test_identity_profile_satisfies_the_bound(self, ll_identity):
        assert check_dat_axiom(ll_identity).holds

    def test_max_operator_violates_the_bound(self, chains):
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        res = check_dat_axiom(model)
        assert not res.holds
        x = res.witness
        assert model.consistency.value(x) > max(x, lg.negation(x))

    def test_minimal_operator_always_satisfies_the_bound(self, chains):
        for name in ("L3", "G3", "NM6", "LG", "LP", "LL"):
            chain = chains[name]
            assert check_dat_axiom(ChainModel(name, chain, min_op(chain))).holds

    def test_pdat_progression(self, ll_identity):
        assert pdat_search(ll_identity, parse("p \\/ ~p")).k == 1
        res = pdat_search(ll_identity, parse("(p \\/ ~p) & (p \\/ ~p)"))
        assert res.k == 2
        assert res.refuted == (1,)

    def test_pdat_on_boolean_chain(self, chains):
        b2 = chains["B2"]
        model = ChainModel("B2", b2, min_op(b2))
        res = pdat_search(model, parse("((p -> q) -> p) -> p"))
        assert res.k == 1 and res.certainty == "exhaustive"
        res = pdat_search(model, parse("p -> q"))
        assert res.k is None and res.reason == "refuted"

    def test_pdat_names_how_a_clean_scan_was_made(self, chains, ll_identity):
        # above the variable cap of the chain's kind the scan is sampled;
        # only a full scan of a standard chain's grid is 'grid'
        l3 = chains["L3"]
        model = ChainModel("L3", l3, min_op(l3))
        res = pdat_search(model, _weakening(6))
        assert (res.k, res.certainty) == (1, "exhaustive")
        res = pdat_search(model, _weakening(7))
        assert (res.k, res.certainty, res.checked) == (1, "sampled", 20000)
        res = pdat_search(ll_identity, parse("p \\/ ~p"))
        assert (res.k, res.certainty) == (1, "grid")
        res = pdat_search(ll_identity, _weakening(5))
        assert (res.k, res.certainty, res.checked) == (1, "sampled", 20000)

    def test_pdat_requires_the_bound(self, chains):
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        with pytest.raises(DatAxiomFails):
            pdat_search(model, parse("p \\/ ~p"))

    def test_pdat_rejects_marker_formulas(self, ll_identity):
        with pytest.raises(ValueError):
            pdat_search(ll_identity, parse("O p"))

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_pdat_needs_a_power_to_check(self, chains, k_max):
        # below k = 1 nothing is checked, so "refuted" would be unfounded
        b2 = chains["B2"]
        model = ChainModel("B2", b2, min_op(b2))
        with pytest.raises(BadPowerBound, match="k_max must be at least 1"):
            pdat_search(model, parse("p -> q"), k_max)
        assert issubclass(BadPowerBound, SemanticsError)

    def test_pdat_power_stays_within_the_depth_limit(self, chains):
        # (O p /\ O q)^k -> (p -> q) is k + 3 levels deep; one level more
        # than MAX_DEPTH is refused before any search, here before the DAT
        # check that LG/max fails
        b2, lg = chains["B2"], chains["LG"]
        largest = MAX_DEPTH - 3
        res = pdat_search(ChainModel("B2", b2, min_op(b2)), parse("p -> q"),
                          largest)
        assert res.reason == "refuted"
        assert res.refuted == tuple(range(1, largest + 1))
        for model in (ChainModel("B2", b2, min_op(b2)),
                      ChainModel("LG", lg, max_op(lg))):
            with pytest.raises(BadPowerBound,
                               match=f"k_max {largest + 1} would build a "
                                     f"formula {MAX_DEPTH + 1} levels deep"):
                pdat_search(model, parse("p -> q"), largest + 1)


class TestClassicalTaut:
    @pytest.mark.parametrize("text,expected", [
        ("p \\/ ~p", True),
        ("p -> q", False),
        ("((p -> q) -> p) -> p", True),
        ("(p -> q) \\/ (q -> p)", True),
        ("~(p /\\ ~p) \\/ (p \\/ ~p)", True),
        ("p -> (q -> p)", True),
        ("p & q -> p", True),
    ])
    def test_examples(self, text, expected):
        assert classical_taut(parse(text)) is expected

    def test_variable_cap(self):
        f = Var("v0")
        for i in range(1, 22):
            f = Imp(f, Var(f"v{i}"))
        with pytest.raises(TooManyVariables):
            classical_taut(f)


class TestBridgeAndDeduction:
    def test_spec_pairs_agree(self, chains):
        l3 = ChainModel("L3", chains["L3"])
        g3 = ChainModel("G3", chains["G3"])
        assert bridge_check(l3, [parse("p"), parse("~p")], parse("q"))
        assert bridge_check(g3, [parse("p"), parse("~p")], parse("q"))
        assert bridge_check(l3, [], parse("p -> p"))

    def test_randomized_bridge(self, chains):
        rng = random.Random(11)
        names = ["p", "q", "r"]
        for _ in range(150):
            chain = chains[rng.choice(["L3", "G3", "NM6"])]
            model = ChainModel(chain.name, chain)
            premises = [random_formula(rng, names, 2)
                        for _ in range(rng.randint(1, 3))]
            goal = random_formula(rng, names, 2)
            assert bridge_check(model, premises, goal)

    def test_the_two_sides_are_computed_apart(self):
        # the degree side tests the order, the truth side reads the
        # residuum: with every residuum at the top, p -> q is a tautology
        # while p |=_<= q still fails, so the sides disagree
        chain = FiniteChain.from_family(LUKASIEWICZ, 3, name="L3")
        chain._res_i = ((2, 2, 2),) * 3  # before the first scan reads it
        assert not bridge_check(ChainModel("L3", chain), [Var("p")],
                                Var("q"))

    def test_many_premises(self, chains):
        l3 = ChainModel("L3", chains["L3"])
        assert bridge_check(l3, [Var("p")] * 5000, Var("p"))
        assert bridge_check(l3, [Var("p")] * 5000, Var("q"))

    def test_deduction_bound_examples(self, chains):
        l3 = ChainModel("L3", chains["L3"])
        # p, p -> q |= q needs no power at all of the extra premise 1
        assert deduction_power_bound(l3, [parse("p -> q"), parse("p")],
                                     parse("1"), parse("q")) == 0
        # squaring is needed on the involutive three-element chain
        phi, psi = parse("p /\\ ~p"), parse("0")
        assert deduction_power_bound(l3, [], phi, psi) == 2

    def test_deduction_bound_refuses_more_variables_than_the_cap(self, chains):
        # the bound is defined by exhaustive checks, and a clean sampled
        # run is no proof that no n exists: it used to return None here
        l3 = ChainModel("L3", chains["L3"])
        assert deduction_power_bound(l3, [], Var("p1"), _weakening(6)) == 0
        with pytest.raises(TooManyVariables,
                           match="^7 variables exceed the cap of 6$"):
            deduction_power_bound(l3, [], Var("p1"), _weakening(7))
        with pytest.raises(TooManyVariables, match="^7 variables"):
            deduction_power_bound(l3, [Var("p7")], Var("p1"), _weakening(6))

    def test_randomized_bounded_deduction(self, chains):
        rng = random.Random(13)
        names = ["p", "q"]
        for _ in range(60):
            chain = chains[rng.choice(["L3", "L5", "G3"])]
            model = ChainModel(chain.name, chain)
            sigma = [random_formula(rng, names, 2)
                     for _ in range(rng.randint(0, 2))]
            phi = random_formula(rng, names, 2)
            psi = random_formula(rng, names, 2)
            direct = truth_consequence([model], sigma + [phi], psi).verdict
            bound = deduction_power_bound(model, sigma, phi, psi)
            assert (direct == "holds") == (bound is not None)
            if bound is not None:
                assert bound <= chain.size


class TestCountermodelSoundness:
    """Any returned countermodel must re-evaluate to a genuine violation."""

    def test_random_failures_reverify(self, chains):
        rng = random.Random(17)
        names = ["p", "q"]
        reverified = 0
        for _ in range(200):
            chain = chains[rng.choice(["L3", "NM6", "L3G3"])]
            model = ChainModel(chain.name, chain)
            premises = [random_formula(rng, names, 2)
                        for _ in range(rng.randint(1, 2))]
            goal = random_formula(rng, names, 2)
            res = degree_consequence([model], premises, goal)
            if res.verdict != "fails":
                continue
            ev = Evaluation(chain, res.assignment)
            a = min(evaluate(ev, p) for p in premises)
            assert a == res.witness
            assert a > evaluate(ev, goal)
            reverified += 1
        assert reverified > 20

    def test_standard_failure_reverifies(self, chains):
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        res = truth_consequence([model], [], parse("O p -> (p \\/ ~p)"))
        assert res.verdict == "fails"
        ev = Evaluation(lg, res.assignment, model.consistency)
        assert evaluate(ev, parse("O p -> (p \\/ ~p)")) != 1


class TestSamplingFallback:
    """Queries above the exhaustive variable cap fall back to seeded sampling."""

    def test_falsifiable_formula_is_still_refuted(self, chains):
        model = ChainModel("L3", chains["L3"])
        f = parse("p1 /\\ p2 /\\ p3 /\\ p4 /\\ p5 /\\ p6 -> p7")
        res = truth_consequence([model], [], f)
        assert res.verdict == "fails" and res.assignment is not None

    def test_clean_sampling_reports_unknown(self, chains):
        model = ChainModel("L3", chains["L3"])
        f = parse("p1 -> (p2 -> (p3 -> (p4 -> (p5 -> (p6 -> (p7 -> p1))))))")
        res = truth_consequence([model], [], f)
        assert res.verdict == "unknown"

    def test_a_sampled_scan_stops_at_the_failing_tuple(self, chains,
                                                       monkeypatch):
        # the countermodel is sampled tuple 17, so the sampler draws 17
        # tuples of 7 indices and no more
        draws = []

        class Counting(random.Random):
            def randrange(self, n):
                draws.append(n)
                return super().randrange(n)

        monkeypatch.setattr(semantics.random, "Random", Counting)
        model = ChainModel("L3", chains["L3"])
        f = parse("p1 /\\ p2 /\\ p3 /\\ p4 /\\ p5 /\\ p6 -> p7")
        res = truth_consequence([model], [], f)
        assert res.checked == 17 and res.assignment == {
            "p1": 1, "p2": F(1, 2), "p3": 1, "p4": 1, "p5": F(1, 2), "p6": 1,
            "p7": 0}
        assert draws == [3] * 7 * 17

    @pytest.mark.parametrize("check", [truth_consequence, degree_consequence])
    def test_six_variables_are_exhaustive_and_seven_sampled(self, chains,
                                                            check):
        model = ChainModel("L3", chains["L3"])
        six = parse("p1 -> (p2 -> (p3 -> (p4 -> (p5 -> (p6 -> p1)))))")
        res = check([model], [], six)
        assert (res.verdict, res.checked) == ("holds", 3 ** 6)
        seven = Imp(Var("p7"), six)
        res = check([model], [], seven)
        assert (res.verdict, res.checked) == ("unknown", 20_000)


# ---------------------------------------------------------------------------
# The finite scan against the loops it replaced

def _reference_sampled_search(model, premises, conclusion, mode):
    """The sampler above FINITE_VAR_CAP before the index-space scan: the
    Fraction tree walk over rng.choice(chain.elements), formulas evaluated
    lazily."""
    chain = model.chain
    vars_ = sorted(set().union(variables(conclusion),
                               *[variables(p) for p in premises]))
    rng = random.Random(0)
    checked = 0
    for _ in range(semantics.SAMPLING_BUDGET):
        checked += 1
        assignment = {v: rng.choice(chain.elements) for v in vars_}
        ev = Evaluation(chain, assignment, model.consistency,
                        model.inconsistency)
        if mode == "truth":
            bad = all(evaluate(ev, p) == 1 for p in premises) \
                and evaluate(ev, conclusion) != 1
            a = None
        else:
            vals = [evaluate(ev, p) for p in premises]
            a = min(vals) if vals else F(1)
            bad = a > evaluate(ev, conclusion)
        if bad:
            return "fails", assignment, a, checked
    return "unknown", None, None, checked


def _reference_classical_taut(phi):
    """classical_taut's loop before the index-space scan."""
    names = sorted(variables(phi))
    model = ChainModel("B2", FiniteChain.from_family(GODEL, 2, name="B2"))
    fn = compile_closures(model, phi, names)
    return all(fn(env) == 1
               for env in itertools.product(range(2), repeat=len(names)))


def _covering_formula(rng, names, op):
    """A random formula using every name, with O when an operator is bound."""
    f = random_formula(rng, names, 2)
    for name in names:
        if name in variables(f) and rng.random() < 0.5:
            continue
        leaf = Circ(Var(name)) if op is not None and rng.random() < 0.3 \
            else Var(name)
        ctor = rng.choice([And, Or, Imp, Fuse])
        f = ctor(f, leaf) if rng.random() < 0.5 else ctor(leaf, f)
    return f


class TestFiniteScan:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           chain_name=st.sampled_from(["L3", "G3", "L5", "NM6"]),
           with_op=st.booleans(),
           mode=st.sampled_from(["truth", "degree"]),
           count=st.integers(min_value=7, max_value=8),
           premise_count=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_sampling_matches_the_fraction_walk(self, chains, seed, chain_name,
                                                with_op, mode, count,
                                                premise_count):
        rng = random.Random(seed)
        chain = chains[chain_name]
        op = max_op(chain) if with_op else None
        model = ChainModel(chain_name, chain, op)
        names = [f"p{i}" for i in range(1, count + 1)]
        premises = [random_formula(rng, names, 1)
                    for _ in range(premise_count)]
        goal = _covering_formula(rng, names, op)
        check = truth_consequence if mode == "truth" else degree_consequence
        res = check([model], premises, goal)
        verdict, assignment, witness, checked = _reference_sampled_search(
            model, premises, goal, mode)
        assert (res.verdict, res.assignment, res.witness, res.checked) == \
            (verdict, assignment, witness, checked)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 16, 17, 61, 62, 1001])
    def test_randrange_draws_as_choice(self, seed, n):
        elements = [F(i, n) for i in range(n)]
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20_000):
            assert elements[ours.randrange(n)] == theirs.choice(elements)
        assert ours.getstate() == theirs.getstate()

    def test_no_premises_fail_where_the_conclusion_is_below_top(self, chains):
        model = ChainModel("L3", chains["L3"])
        envs = [(2, 2), (1, 2), (0, 0)]
        goal = parse("q -> p")
        assert finite_scan(model, [], goal, "truth", ["p", "q"], envs) == \
            ((1, 2), 2, None)
        assert finite_scan(model, [], goal, "degree", ["p", "q"], envs) == \
            ((1, 2), 2, 2)
        assert finite_scan(model, [], goal, "truth", ["p", "q"], envs[:1]) == \
            (None, 1, None)

    @pytest.mark.parametrize("chain_name", ["B2", "L3", "L5", "G3", "G5",
                                            "NM6", "W15", "LG", "LP", "LL"])
    def test_default_envs_are_the_full_product(self, chains, chain_name):
        chain = chains[chain_name]
        model = ChainModel(chain_name, chain, max_op(chain))
        points = chain.elements if chain.is_finite else chain.sample_points(6)
        queries = [([], "p -> (q -> p)"), ([], "q -> p"), ([], "0"),
                   (["p"], "q"), (["O p", "p -> q"], "q \\/ ~p"),
                   (["p", "q -> r"], "(p & q) -> r")]
        for premises, conclusion in queries:
            premises = [parse(t) for t in premises]
            conclusion = parse(conclusion)
            names = sorted(variables(conclusion, *premises))
            envs = list(itertools.product(range(len(points)),
                                          repeat=len(names)))
            for mode in ("truth", "degree"):
                expected = finite_scan(model, premises, conclusion, mode,
                                       names, envs, points)
                assert finite_scan(model, premises, conclusion, mode, names,
                                   points=points) == expected
                if chain.is_finite:
                    assert finite_scan(model, premises, conclusion, mode,
                                       names) == expected

    @pytest.mark.parametrize("chain_name", ["NM6", "W15"])
    def test_generated_scans_match_the_column_scans(self, chains,
                                                    monkeypatch, chain_name):
        # the full product from _GENERATE_FROM tuples up is scanned with
        # generate, and below it a column at a time: every query,
        # scanned either way, stops at the same tuple with the same count
        # and witness
        chain = chains[chain_name]
        model = ChainModel(chain_name, chain, max_op(chain),
                           dual(max_op(chain)))
        queries = [([], "(p -> q) -> ((q -> r) -> (p -> r))"),
                   ([], "((p & q) -> r) -> (p -> (q -> (r & (s \\/ t))))"),
                   ([], "D (p <-> q) & O r -> ((p -> q) /\\ (~0 \\/ # r))"),
                   (["q \\/ ~r", "D r -> p"],
                    "(O p & q) \\/ (r <-> 1) \\/ (# q /\\ 0) \\/ (p -> r)"),
                   (["O p", "p -> q", "~r \\/ q"], "(q & r) \\/ ~p"),
                   (["p & q", "# s"], "(p & q) -> (r & s)"),
                   (["p"], "q -> p")]
        generated = []
        monkeypatch.setattr(semantics, "generate",
                            lambda *args: generated.append(args)
                            or generate(*args))
        for premises, conclusion in queries:
            premises = [parse(t) for t in premises]
            conclusion = parse(conclusion)
            names = sorted(variables(conclusion, *premises))
            for mode in ("truth", "degree"):
                results = []
                for threshold in (1, chain.size ** len(names) + 1):
                    monkeypatch.setattr(semantics, "_GENERATE_FROM",
                                        threshold)
                    generated.clear()
                    results.append(finite_scan(model, premises, conclusion,
                                               mode, names))
                    assert len(generated) == (threshold == 1) * (
                        1 + bool(premises))
                assert results[0] == results[1], (premises, conclusion, mode)

    def test_every_formula_is_compiled_before_the_scan(self, chains):
        model = ChainModel("L3", chains["L3"])
        with pytest.raises(OperatorNotBound):
            finite_scan(model, [parse("0"), parse("O p")], parse("p"),
                        "truth", ["p"], [])

    def test_premises_fold_as_a_balanced_meet(self):
        # the premises in order, ceil(log2 k) levels above the deepest
        for k in (1, 2, 3, 4, 5, 1000, 5000):
            names = [f"p{i}" for i in range(k)]
            meet = semantics._meet([Var(v) for v in names])
            assert depth(meet) == 1 + (k - 1).bit_length()
            assert str(meet).replace("(", "").replace(")", "") == \
                " /\\ ".join(names)

    @pytest.mark.parametrize("chain_name, goal, path", [
        ("L3", "p", "compile_finite"), ("W15", "p \\/ (q & r)", "generate"),
        ("LG", "p", "generate")])
    @pytest.mark.parametrize("mode", ["truth", "degree"])
    def test_many_premises(self, chains, monkeypatch, chain_name, goal,
                           path, mode):
        # 5 000 premises, distinct objects, are one meet ceil(log2 5000) =
        # 13 levels deeper than a premise, not 5 000, on each path: a column
        # at a time, one generated function over W15's 4 096 tuples, and a
        # standard grid
        chain = chains[chain_name]
        model = ChainModel(chain_name, chain)
        compiled = []
        monkeypatch.setattr(semantics, path,
                            lambda *args, fn=getattr(semantics, path):
                            compiled.append(args[1]) or fn(*args))
        goal = parse(goal)
        names = sorted(variables(goal))
        points = None if chain.is_finite else chain.sample_points(6)
        count = len(points or chain.elements) ** len(names)
        premises = [Var("p") for _ in range(5000)]
        assert finite_scan(model, premises, goal, mode, names,
                           points=points) == (None, count, None)
        assert depth(compiled[0]) == 14 + (mode == "truth")

    @pytest.mark.parametrize("chain_name, path", [
        ("L3", "compile_finite"), ("W15", "generate")])
    @pytest.mark.parametrize("goal", ["p \\/ (q & r)", "q -> (p & r)"])
    @pytest.mark.parametrize("mode", ["truth", "degree"])
    def test_a_repeated_premise_object_is_met_once(
            self, chains, monkeypatch, chain_name, path, goal, mode):
        # the meet is idempotent: references to one deep premise object
        # compile as that premise alone, a column at a time on L3 and one
        # generated function over W15's 4 096 tuples, and scan as it does
        chain = chains[chain_name]
        model = ChainModel(chain_name, chain)
        compiled = []
        monkeypatch.setattr(semantics, path,
                            lambda *args, fn=getattr(semantics, path):
                            compiled.append(args[1]) or fn(*args))
        premise = parse("p" + " & p" * 30)
        goal = parse(goal)
        names = ["p", "q", "r"]
        once = finite_scan(model, [premise], goal, mode, names)
        compiled.clear()
        assert finite_scan(model, [premise] * 500, goal, mode, names) == once
        side = compiled[0].arg if mode == "truth" else compiled[0]
        assert side is premise

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_taut_matches_its_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            phi = random_formula(rng, ["p", "q", "r", "s"], 3)
            assert classical_taut(phi) is _reference_classical_taut(phi)


# ---------------------------------------------------------------------------
# The compiled closures against the Fraction tree walk, and the folded
# premise scan against the loops it replaced

_leaves = st.one_of(st.sampled_from(["p", "q", "r"]).map(Var),
                    st.sampled_from([ZERO, ONE]))


def _branch(kids):
    pairs = st.tuples(kids, kids)
    return st.one_of(*[kids.map(node) for node in (Not, Circ, Bullet, Delta)],
                     *[pairs.map(lambda t, node=node: node(*t))
                       for node in (And, Or, Fuse, Imp, Iff)])


# every node type, with constants on either side of a binary node
_formulas = st.recursive(_leaves, _branch, max_leaves=10)


def _bound_model(chains, chain_name, op_pick):
    """The chain with one of its enumerated operators and that operator's
    dual bound."""
    chain = chains[chain_name]
    ops = enumerate_ops(chain)
    op = ops[op_pick % len(ops)]
    return ChainModel(chain_name, chain, op, dual(op))


def _reference_finite_scan(model, premises, conclusion, mode, vars_, envs):
    """finite_scan before its premises were folded into one closure: one
    closure per premise, combined on each tuple by all(...) or min(...)."""
    top = model.chain.size - 1
    prem_fns = [compile_closures(model, p, vars_) for p in premises]
    concl_fn = compile_closures(model, conclusion, vars_)
    checked = 0
    if not prem_fns:
        witness = top if mode == "degree" else None
        for checked, env in enumerate(envs, 1):
            if concl_fn(env) != top:
                return env, checked, witness
    elif mode == "truth":
        for checked, env in enumerate(envs, 1):
            if all(fn(env) == top for fn in prem_fns) and concl_fn(env) != top:
                return env, checked, None
    else:
        for checked, env in enumerate(envs, 1):
            a = min(fn(env) for fn in prem_fns)
            if a > concl_fn(env):
                return env, checked, a
    return None, checked, None


# the per-tuple compilers of a formula over a finite chain's index tuples:
# the reference closures and the generated functions
_COMPILERS = (compile_closures, generate)


def _column(model, f, names, envs):
    """compile_finite's column of f over the index tuples envs, as a
    list."""
    cols = [bytes([env[i] for env in envs]) for i in range(len(names))]
    return list(compile_finite(model, f, names)(cols, len(envs)))


class TestCompiledEvaluation:
    @given(f=_formulas,
           chain_name=st.sampled_from(["B2", "L3", "G5", "NM6", "W15", "L3G3"]),
           op_pick=st.integers(min_value=0, max_value=50),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_closure_matches_the_fraction_walk(self, chains, f, chain_name,
                                               op_pick, data):
        model = _bound_model(chains, chain_name, op_pick)
        chain = model.chain
        names = data.draw(st.permutations(sorted(variables(f))))
        fns = [compile_(model, f, names) for compile_ in _COMPILERS]
        envs = list(itertools.product(range(chain.size), repeat=len(names)))
        column = _column(model, f, names, envs)
        for env, got in zip(envs, column, strict=True):
            ev = Evaluation(chain, {v: chain.elements[i]
                                    for v, i in zip(names, env)},
                            model.consistency, model.inconsistency)
            expected = chain._idx(evaluate(ev, f))
            assert [fn(env) for fn in fns] + [got] == [expected] * 3

    @pytest.mark.parametrize("chain_name",
                             ["B2", "L3", "G5", "NM6", "W15", "L3G3"])
    def test_every_child_shape(self, chains, chain_name):
        # each connective over each pair of a variable, a constant, a
        # connective on two variables and a compound child, with q at a
        # position other than 0
        model = _bound_model(chains, chain_name, 1)
        chain = model.chain
        kids = [Var("p"), Var("q"), ZERO, ONE, parse("~q"), parse("# p"),
                parse("D (p & q)"), parse("O (q -> p)"), parse("q -> p"),
                parse("p & q"), parse("p <-> q")]
        shapes = [node(a) for node in (Not, Circ, Bullet, Delta) for a in kids]
        shapes += [node(a, b) for node in (And, Or, Fuse, Imp, Iff)
                   for a in kids for b in kids]
        envs = list(itertools.product(range(chain.size), repeat=2))
        for f in shapes:
            fns = [compile_(model, f, ["p", "q"]) for compile_ in _COMPILERS]
            column = _column(model, f, ["p", "q"], envs)
            for env, got in zip(envs, column, strict=True):
                ev = Evaluation(chain, {"p": chain.elements[env[0]],
                                        "q": chain.elements[env[1]]},
                                model.consistency, model.inconsistency)
                expected = chain._idx(evaluate(ev, f))
                assert [fn(env) for fn in fns] + [got] == [expected] * 3, \
                    (f, env)

    @pytest.mark.parametrize("chain_name", ["B2", "L3", "L5", "G3", "G5",
                                            "NM6", "W15"])
    def test_constant_subterms_match_the_fraction_walk(self, chains,
                                                       chain_name):
        # a constant compiles to a column like any other node, alone, as
        # a side of a binary node, and under a unary one
        model = _bound_model(chains, chain_name, 0)
        chain = model.chain
        texts = ["0", "1", "O 0", "# 1", "~1", "0 -> p", "p & 1",
                 "~(p -> 0)", "O (1 & q)", "D (q \\/ 0)", "# (0 <-> p)",
                 "O ~(1 -> 0)", "(~1 -> p) /\\ (q & O 0)",
                 "(0 & 1) -> (1 \\/ q)", "D 1 <-> # (q -> 1)"]
        for text in texts:
            f = parse(text)
            envs = list(itertools.product(range(chain.size), repeat=2))
            column = _column(model, f, ["p", "q"], envs)
            for env, got in zip(envs, column, strict=True):
                ev = Evaluation(chain, {"p": chain.elements[env[0]],
                                        "q": chain.elements[env[1]]},
                                model.consistency, model.inconsistency)
                assert got == chain._idx(evaluate(ev, f)), (text, env)

    def test_an_unbound_operator_in_a_constant_raises_at_compile_time(
            self, chains):
        l3 = chains["L3"]
        bare, with_o = ChainModel("L3", l3), ChainModel("L3", l3, max_op(l3))
        for model, text in [(bare, "O 0"), (bare, "p & O 1"),
                            (bare, "~(# 0) -> p"), (with_o, "O p /\\ # 1"),
                            (with_o, "D (1 -> # 0)")]:
            for compile_ in (compile_finite, *_COMPILERS):
                with pytest.raises(OperatorNotBound,
                                   match="no operator is bound"):
                    compile_(model, parse(text), ["p"])

    @pytest.mark.parametrize("chain_name", ["B2", "L3", "NM6"])
    def test_names_of_the_generated_source_are_plain_variables(
            self, chains, chain_name):
        # variables named as the generated function's own identifiers read
        # their own values: no name reaches the source
        model = _bound_model(chains, chain_name, 1)
        chain = model.chain
        e, f, v0, t0, res, top = map(Var, ["e", "f", "v0", "t0", "RES", "TOP"])
        formula = Imp(Fuse(Imp(e, f), Iff(v0, t0)),
                      Or(Circ(res), And(Not(top), Bullet(Imp(t0, ONE)))))
        names = ["TOP", "t0", "RES", "f", "v0", "e"]
        fn = generate(model, formula, names)
        for env in itertools.product(range(chain.size), repeat=len(names)):
            ev = Evaluation(chain, {v: chain.elements[i]
                                    for v, i in zip(names, env)},
                            model.consistency, model.inconsistency)
            assert fn(env) == chain._idx(evaluate(ev, formula)), env

    @given(premises=st.lists(_formulas, max_size=3), conclusion=_formulas,
           chain_name=st.sampled_from(["B2", "L3", "G5", "NM6", "L3G3"]),
           op_pick=st.integers(min_value=0, max_value=50),
           mode=st.sampled_from(["truth", "degree"]))
    @settings(max_examples=150, deadline=None)
    def test_folded_premises_match_the_per_premise_loops(
            self, chains, premises, conclusion, chain_name, op_pick, mode):
        model = _bound_model(chains, chain_name, op_pick)
        names = sorted(set().union(variables(conclusion),
                                   *[variables(p) for p in premises]))
        envs = list(itertools.product(range(model.chain.size),
                                      repeat=len(names)))
        assert finite_scan(model, premises, conclusion, mode, names, envs) \
            == _reference_finite_scan(model, premises, conclusion, mode,
                                      names, envs)


# ---------------------------------------------------------------------------
# The finite scan against the per-tuple reference closures and the Fraction
# tree walk: full products (a column at a time) and tuples a caller passes
# (generate), on every built-in finite chain, and on a 17-element and
# a 257-element chain, whose full products are generated too

@pytest.fixture(scope="module")
def scan_chains(chains):
    out = {name: chain for name, chain in chains.items() if chain.is_finite}
    out["G17"] = FiniteChain.from_family(GODEL, 17, name="G17")
    out["G257"] = FiniteChain.from_family(GODEL, 257, name="G257")
    return out


def _scan_model(scan_chains, chain_name, kind):
    """The chain with no operator, or with the min or max operator and its
    dual bound."""
    chain = scan_chains[chain_name]
    if kind is None:
        return ChainModel(chain_name, chain)
    op = (min_op if kind == "min" else max_op)(chain)
    return ChainModel(chain_name, chain, op, dual(op))


def _walked_scan(model, premises, conclusion, mode, names, envs):
    """finite_scan's result over envs from evaluate's Fraction values."""
    chain = model.chain
    for checked, env in enumerate(envs, 1):
        ev = Evaluation(chain, {v: chain.elements[i]
                                for v, i in zip(names, env)},
                        model.consistency, model.inconsistency)
        a = min([evaluate(ev, p) for p in premises], default=F(1))
        c = evaluate(ev, conclusion)
        if (a == 1 and c != 1) if mode == "truth" else (a > 0 and a > c):
            return env, checked, chain._idx(a) if mode == "degree" else None
    return None, len(envs), None


def _envs(data, size, count):
    """Index tuples a caller might pass: possibly none, repeated and in no
    order."""
    return data.draw(st.lists(st.tuples(*[st.integers(0, size - 1)] * count),
                              max_size=12))


# formulas on p alone, for the 257-element chain
_p_formulas = st.recursive(st.one_of(st.just(Var("p")),
                                     st.sampled_from([ZERO, ONE])),
                           _branch, max_leaves=6)


class TestColumnScan:
    @given(premises=st.lists(_formulas, max_size=3), conclusion=_formulas,
           chain_name=st.sampled_from(["B2", "L3", "L5", "G3", "G5", "NM6",
                                       "W15", "L3G3", "L4", "G17"]),
           kind=st.sampled_from(["min", "max"]),
           mode=st.sampled_from(["truth", "degree"]), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_closures_and_the_fraction_walk(
            self, scan_chains, premises, conclusion, chain_name, kind, mode,
            data):
        model = _scan_model(scan_chains, chain_name, kind)
        names = sorted(variables(conclusion, *premises))
        size = model.chain.size
        if size ** len(names) <= 2 * semantics._GENERATE_FROM:
            assert finite_scan(model, premises, conclusion, mode, names) == \
                closure_scan(model, premises, conclusion, mode, names)
        envs = _envs(data, size, len(names))
        expected = closure_scan(model, premises, conclusion, mode, names,
                                envs)
        assert finite_scan(model, premises, conclusion, mode, names,
                           iter(envs)) == expected
        assert _walked_scan(model, premises, conclusion, mode, names,
                            envs) == expected

    @given(premises=st.lists(_p_formulas, max_size=2),
           conclusion=_p_formulas, kind=st.sampled_from(["min", "max"]),
           mode=st.sampled_from(["truth", "degree"]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_lists_above_256_elements(self, scan_chains, premises,
                                      conclusion, kind, mode, data):
        # every tuple stream of a 257-element chain is generated
        model = _scan_model(scan_chains, "G257", kind)
        names = sorted(variables(conclusion, *premises))
        for envs in (None, _envs(data, 257, len(names))):
            assert finite_scan(model, premises, conclusion, mode, names,
                               envs) == \
                closure_scan(model, premises, conclusion, mode, names, envs)

    @pytest.mark.parametrize("chain_name", ["L3", "G17", "G257"])
    def test_an_unbound_operator_raises_before_any_tuple(self, scan_chains,
                                                         chain_name):
        model = _scan_model(scan_chains, chain_name, None)
        for envs in (None, [], iter([])):
            with pytest.raises(OperatorNotBound):
                finite_scan(model, [parse("p")], parse("1 -> # 0"), "degree",
                            ["p"], envs)

    @pytest.mark.parametrize("chain_name", ["L3", "NM6", "G17", "G257"])
    @pytest.mark.parametrize("mode", ["truth", "degree"])
    def test_a_caller_generator_is_read_up_to_the_failing_tuple(
            self, scan_chains, monkeypatch, chain_name, mode):
        # a full product below _GENERATE_FROM tuples on a chain of at most
        # 16 elements is scanned a column at a time, and a larger chain's
        # product and tuples from a caller's generator one at a time by
        # generate, which takes no tuple past the first failing one
        model = _scan_model(scan_chains, chain_name, "max")
        n = model.chain.size
        compiled, taken = [], []
        for name in ("compile_finite", "generate"):
            monkeypatch.setattr(semantics, name,
                                lambda *args, fn=getattr(semantics, name),
                                name=name: compiled.append(name) or fn(*args))

        def counted(tuples):
            for env in tuples:
                taken.append(env)
                yield env

        queries = [(["O p"], "p"), ([], "D p \\/ ~p"), (["# p"], "~p -> 0")]
        if n < 257:
            queries += [(["O p"], "p -> q"), ([], "(p -> q) \\/ (q -> p)"),
                        (["p", "q -> p"], "(p & q) <-> p")]
        rng = random.Random(chain_name + mode)
        for premises, conclusion in queries:
            premises = [parse(t) for t in premises]
            conclusion = parse(conclusion)
            names = sorted(variables(conclusion, *premises))
            product = list(itertools.product(range(n), repeat=len(names)))
            compiled.clear()
            full = finite_scan(model, premises, conclusion, mode, names)
            assert set(compiled) == {"compile_finite" if n <= 16
                                     else "generate"}
            for tuples in (product, rng.choices(product, k=40)):
                compiled.clear()
                taken.clear()
                got = finite_scan(model, premises, conclusion, mode, names,
                                  counted(tuples))
                assert set(compiled) == {"generate"}
                assert got == closure_scan(model, premises, conclusion, mode,
                                           names, tuples)
                assert len(taken) == got[1]
                if tuples is product:
                    assert got == full

    @pytest.mark.parametrize("bound", [False, True])
    def test_a_node_that_is_not_a_formula_raises_on_every_path(
            self, chains, bound):
        # a column scan (L3), a generated function over W15's 4 096 tuples
        # and a standard grid (LG), with O and # bound or not
        errors = set()
        for chain_name in ("L3", "W15", "LG"):
            chain = chains[chain_name]
            model = (ChainModel(chain_name, chain, max_op(chain),
                                dual(max_op(chain))) if bound
                     else ChainModel(chain_name, chain))
            points = None if chain.is_finite else chain.sample_points(6)
            for premises, conclusion in [([], Or(Var("p"), "q")),
                                         ([And("r", Var("q"))], Var("p"))]:
                for mode in ("truth", "degree"):
                    with pytest.raises(TypeError) as caught:
                        finite_scan(model, premises, conclusion, mode,
                                    ["p", "q", "r"], points=points)
                    errors.add(str(caught.value))
        assert errors == {"not a formula node: 'q'",
                          "not a formula node: 'r'"}

    @pytest.mark.parametrize("chain_name", ["G17", "G257"])
    def test_compile_finite_refuses_a_chain_above_16_elements(
            self, scan_chains, chain_name):
        # two indices of a larger chain do not pack into one byte
        model = _scan_model(scan_chains, chain_name, None)
        with pytest.raises(ValueError, match="more than 16"):
            compile_finite(model, parse("p -> q"), ["p", "q"])

    @pytest.mark.parametrize("chain_name", ["L3", "G17", "G257"])
    @pytest.mark.parametrize("mode", ["truth", "degree"])
    def test_blocks_of_a_long_list(self, scan_chains, chain_name, mode):
        # a long list of a caller's tuples, with a countermodel on either
        # side of 16, 48 and 112 tuples, or none
        model = _scan_model(scan_chains, chain_name, "max")
        top = model.chain.size - 1
        premises, goal = [parse("O p")], parse("p -> q")
        rng = random.Random(chain_name + mode)
        for length in (0, 15, 16, 17, 47, 48, 49, 112, 113, 300):
            clean = [(rng.randrange(top + 1), top) for _ in range(length)]
            for at in (None, *{0, 15, 16, 47, 48, 111, 112} & set(
                    range(length))):
                envs = list(clean)
                if at is not None:
                    envs[at] = (top, 0)
                expected = closure_scan(model, premises, goal, mode,
                                        ["p", "q"], envs)
                assert expected[0] is None if at is None else \
                    expected[1] == at + 1
                for tuples in (envs, iter(envs)):
                    assert finite_scan(model, premises, goal, mode,
                                       ["p", "q"], tuples) == expected
        assert finite_scan(model, [], parse("D ~1"), mode, [],
                           [()] * 40) == ((), 1, top if mode == "degree"
                                          else None)

    @pytest.mark.parametrize("chain_name", ["B2", "W15", "G17", "G257"])
    def test_no_variables(self, scan_chains, chain_name):
        # the full product of no variables is one empty tuple; a caller's
        # tuples are counted as they come
        model = _scan_model(scan_chains, chain_name, "max")
        for text, failing in (("O 0 -> 1", False), ("D ~1 \\/ 0", True)):
            f = parse(text)
            for envs in (None, [], [()] * 3):
                expected = closure_scan(model, [], f, "degree", [], envs)
                assert finite_scan(model, [], f, "degree", [], envs) == \
                    expected
                assert (expected[0] is not None) is (failing and envs != [])


# ---------------------------------------------------------------------------
# The standard-chain scan against the loops it replaced

def _standard_model(chains, chain_name, kind, with_dual):
    """The standard chain with no operator, or one of several kinds with
    its dual optionally bound; every threshold and breakpoint lies in the
    zero-negation region [1/2, 1) of LG, LL and LP."""
    chain = chains[chain_name]
    op = {None: lambda: None,
          "min": lambda: min_op(chain),
          "max": lambda: max_op(chain),
          "crisp": lambda: crisp_op(chain, F(3, 4)),
          "linear": lambda: piecewise_op(chain, [(F(3, 5), F(1, 3)), (1, 1)],
                                         "linear"),
          "step": lambda: piecewise_op(chain, [(F(3, 5), F(1, 3)),
                                               (F(4, 5), F(2, 3)), (1, 1)],
                                       "step")}[kind]()
    bop = dual(op) if op is not None and with_dual else None
    return ChainModel(chain_name, chain, op, bop)


def _grid(model, denominator):
    extra = [x for op in (model.consistency, model.inconsistency)
             if op is not None for x in op.critical_points()]
    return model.chain.sample_points(denominator, extra=extra)


def _reference_standard_search(model, premises, conclusion, mode,
                               denominator):
    """_standard_search and its sampler before the shared scan: the
    Fraction tree walk over every tuple of grid points, or above
    STANDARD_VAR_CAP over SAMPLING_BUDGET rng.choice(points) draws per
    variable, formulas evaluated lazily.  Returns (verdict, assignment,
    witness, grid_denominator, checked)."""
    vars_ = sorted(set().union(variables(conclusion),
                               *[variables(p) for p in premises]))
    points = _grid(model, denominator)
    if len(vars_) > semantics.STANDARD_VAR_CAP:
        rng = random.Random(0)
        combos = ([rng.choice(points) for _ in vars_]
                  for _ in range(semantics.SAMPLING_BUDGET))
        clean = "unknown"
    else:
        combos = itertools.product(points, repeat=len(vars_))
        clean = "unknown" if vars_ else "holds"
    checked = 0
    for combo in combos:
        checked += 1
        assignment = dict(zip(vars_, combo))
        ev = Evaluation(model.chain, assignment, model.consistency,
                        model.inconsistency)
        if mode == "truth":
            bad = all(evaluate(ev, p) == 1 for p in premises) \
                and evaluate(ev, conclusion) != 1
            a = None
        else:
            vals = [evaluate(ev, p) for p in premises]
            a = min(vals) if vals else F(1)
            bad = a > evaluate(ev, conclusion)
        if bad:
            return "fails", assignment, a, denominator, checked
    return clean, None, None, denominator, checked


def _any_formula(rng, names, unary, depth):
    """A random formula over names using every binary connective and the
    unary ones in unary."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return rng.choice([ZERO, ONE])
        return Var(rng.choice(names))
    if rng.random() < 0.3:
        return rng.choice(unary)(_any_formula(rng, names, unary, depth - 1))
    ctor = rng.choice([And, Or, Fuse, Imp, Iff])
    return ctor(_any_formula(rng, names, unary, depth - 1),
                _any_formula(rng, names, unary, depth - 1))


_OP_KINDS = [None, "min", "max", "crisp", "linear", "step"]

# the operators of the differential test against compile_standard, by spec,
# and the identity on [1/2, 1] of the LL example
_OP_SPECS = ["min", "max", "crisp:3/4", "crisp:1/2:open", "identity"]


def _spec_model(chains, chain_name, spec):
    """The standard chain with the operator of spec and its dual bound."""
    chain = chains[chain_name]
    op = (piecewise_op(chain, [(F(1, 2), F(1, 2)), (1, 1)], "linear")
          if spec == "identity" else op_from_spec(chain, spec))
    return ChainModel(chain_name, chain, op, dual(op))


class TestStandardScan:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           chain_name=st.sampled_from(["LG", "LL", "LP"]),
           kind=st.sampled_from(_OP_KINDS), with_dual=st.booleans(),
           mode=st.sampled_from(["truth", "degree"]),
           count=st.integers(min_value=1, max_value=5),
           premise_count=st.integers(min_value=0, max_value=2),
           denominator=st.sampled_from([2, 3, 4, 6]))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_the_fraction_walk(self, chains, seed, chain_name,
                                              kind, with_dual, mode, count,
                                              premise_count, denominator):
        rng = random.Random(seed)
        model = _standard_model(chains, chain_name, kind, with_dual)
        unary = [Not, Delta]
        unary += [Circ] if model.consistency is not None else []
        unary += [Bullet] if model.inconsistency is not None else []
        names = [f"p{i}" for i in range(1, count + 1)]
        premises = [_any_formula(rng, names, unary, 2)
                    for _ in range(premise_count)]
        goal = _any_formula(rng, names, unary, 3)
        for name in names:
            if name not in variables(goal):
                goal = rng.choice([Or, Imp])(goal, Var(name))
        check = truth_consequence if mode == "truth" else degree_consequence
        res = check([model], premises, goal, denominator)
        assert (res.verdict, res.assignment, res.witness,
                res.grid_denominator, res.checked) == \
            _reference_standard_search(model, premises, goal, mode,
                                       denominator)

    @given(f=_formulas, chain_name=st.sampled_from(["LG", "LL", "LP"]),
           kind=st.sampled_from(_OP_KINDS[1:]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_closure_matches_the_fraction_walk(self, chains, f, chain_name,
                                               kind, data):
        model = _standard_model(chains, chain_name, kind, True)
        points = _grid(model, 4)
        names = data.draw(st.permutations(sorted(variables(f))))
        fn = generate(model, f, names, points)
        for env in itertools.product(range(len(points)), repeat=len(names)):
            ev = Evaluation(model.chain, {v: points[i]
                                          for v, i in zip(names, env)},
                            model.consistency, model.inconsistency)
            assert fn(env) == evaluate(ev, f)

    @given(premises=st.lists(_formulas, max_size=3), conclusion=_formulas,
           chain_name=st.sampled_from(["LG", "LL", "LP"]),
           spec=st.sampled_from(_OP_SPECS),
           mode=st.sampled_from(["truth", "degree"]),
           denominator=st.sampled_from([2, 3, 5]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_functions_match_the_closures(
            self, chains, premises, conclusion, chain_name, spec, mode,
            denominator, data):
        # generate against the closures it replaced on standard chains:
        # every formula's value at every tuple, and the scan's result over
        # the full product and over a caller's tuples with either compiler
        model = _spec_model(chains, chain_name, spec)
        points = _grid(model, denominator)
        names = sorted(variables(conclusion, *premises))
        product = list(itertools.product(range(len(points)),
                                         repeat=len(names)))
        for f in (conclusion, *premises):
            new = generate(model, f, names, points)
            old = compile_standard(model, f, names, points)
            assert [new(env) for env in product] == \
                [old(env) for env in product], f
        tuple_lists = (None, _envs(data, len(points), len(names)))
        got = [finite_scan(model, premises, conclusion, mode, names, envs,
                           points) for envs in tuple_lists]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(semantics, "generate", compile_standard)
            assert [finite_scan(model, premises, conclusion, mode, names,
                                envs, points) for envs in tuple_lists] == got

    @pytest.mark.parametrize("chain_name, kind", [("LG", "max"),
                                                  ("LL", "linear"),
                                                  ("LP", "crisp")])
    def test_every_child_shape(self, chains, chain_name, kind):
        # each connective over each pair of a variable, a constant and a
        # compound child, with q at a position other than 0
        model = _standard_model(chains, chain_name, kind, True)
        points = _grid(model, 4)
        kids = [Var("p"), Var("q"), ZERO, ONE, parse("~q"), parse("# p"),
                parse("D (p & q)"), parse("O (q -> p)")]
        shapes = [node(a) for node in (Not, Circ, Bullet, Delta) for a in kids]
        shapes += [node(a, b) for node in (And, Or, Fuse, Imp, Iff)
                   for a in kids for b in kids]
        # generate tabulates a unary connective over a Var, and a /\ or &
        # whose left side is 0 is that side: constant (ZERO above), or O q
        # and ~p at the points where they are 0
        shapes += [node(a, b) for node in (And, Fuse)
                   for a in (parse("O q"), parse("~p")) for b in kids]
        envs = list(itertools.product(range(len(points)), repeat=2))
        for f in shapes:
            fn = generate(model, f, ["p", "q"], points)
            for env in envs:
                ev = Evaluation(model.chain, {"p": points[env[0]],
                                              "q": points[env[1]]},
                                model.consistency, model.inconsistency)
                assert fn(env) == evaluate(ev, f), (f, env)

    # five-variable queries take the sampler; a query without variables
    # checks the one empty tuple
    @pytest.mark.parametrize("chain_name, kind, premises, goal, mode", [
        ("LG", "max", [], "O 1 -> (~0 & 1)", "truth"),
        ("LP", None, ["~0"], "D (1 & 0)", "degree"),
        ("LP", None, [], "((p & q) -> r) -> (p -> (q -> (r \\/ (s & t))))",
         "truth"),
        ("LG", None, [], "(p1 /\\ p2 /\\ p3 /\\ p4) -> (p5 \\/ ~p5)", "truth"),
        ("LL", "linear", ["O p", "q -> r"], "(p & s) -> (r \\/ (t -> q))",
         "degree"),
    ])
    def test_fixed_queries_match_the_fraction_walk(self, chains, chain_name,
                                                   kind, premises, goal, mode):
        model = _standard_model(chains, chain_name, kind, False)
        premises, goal = [parse(p) for p in premises], parse(goal)
        check = truth_consequence if mode == "truth" else degree_consequence
        res = check([model], premises, goal)
        assert (res.verdict, res.assignment, res.witness,
                res.grid_denominator, res.checked) == \
            _reference_standard_search(model, premises, goal, mode, 60)

    def test_names_of_the_generated_source_are_plain_variables(self, chains):
        # variables named as the identifiers of a generated function on a
        # standard chain read their own values: no name reaches the source
        model = _spec_model(chains, "LL", "identity")
        points = _grid(model, 4)
        names = ["P", "BOT", "MEET", "NEG_P", "e", "t0"]
        p, bot, meet, neg_p, e, t0 = map(Var, names)
        formula = Iff(Fuse(Imp(e, p), Iff(bot, t0)),
                      Or(Circ(meet), And(Not(neg_p), Bullet(Imp(t0, ONE)))))
        fn = generate(model, formula, names, points)
        rng = random.Random(0)
        for _ in range(300):
            env = tuple(rng.randrange(len(points)) for _ in names)
            ev = Evaluation(model.chain, {v: points[i]
                                          for v, i in zip(names, env)},
                            model.consistency, model.inconsistency)
            assert fn(env) == evaluate(ev, formula), env

    def test_unary_tables_fill_at_the_points_the_scan_reads(self, chains,
                                                            ll_identity):
        # the squared excluded-middle bound fails at the 32nd of LL's 61
        # points: O is evaluated there and at the points before, once each
        op, seen = ll_identity.consistency, []
        value = op.value
        op.value = lambda x: seen.append(x) or value(x)
        res = truth_consequence([ll_identity], [],
                                parse("O p -> (p \\/ ~p) & (p \\/ ~p)"))
        points = chains["LL"].sample_points(60, extra=op.critical_points())
        assert (res.verdict, res.checked, len(points)) == ("fails", 32, 61)
        assert seen == points[:32]

    def test_unbound_operators_raise_at_compile_time(self, chains):
        model = ChainModel("LG", chains["LG"])
        for text in ("O p", "# p", "1 /\\ ~(0 -> O 1)"):
            with pytest.raises(OperatorNotBound, match="no operator is bound"):
                generate(model, parse(text), ["p"], [F(0), F(1)])


class TestUnboundOperator:
    """An unbound O or # raises whether or not the scan would reach it."""

    @pytest.mark.parametrize("check", [
        check_lfi, check_dat_axiom,
        lambda model: check_propagation(model, "&")],
        ids=["check_lfi", "check_dat_axiom", "check_propagation"])
    @pytest.mark.parametrize("name", ["L3", "LG"])
    def test_operator_checks_share_the_unbound_message(self, chains,
                                                       check, name):
        model = ChainModel(name, chains[name])
        with pytest.raises(OperatorNotBound) as exc:
            check(model)
        assert str(exc.value) == "the formula uses O but no operator is bound"

    @pytest.mark.parametrize("check", [truth_consequence, degree_consequence])
    def test_standard_chain(self, chains, check):
        model = ChainModel("LG", chains["LG"])
        for text in ("O p", "# p"):
            with pytest.raises(OperatorNotBound, match="no operator is bound"):
                check([model], [parse("0"), parse(text)], parse("p -> p"))

    def test_standard_sampled_path(self, chains):
        model = ChainModel("LG", chains["LG"])
        goal = parse("p1 -> (p2 -> (p3 -> (p4 -> (p5 -> p1))))")
        with pytest.raises(OperatorNotBound):
            truth_consequence([model], [parse("0"), parse("O p1")], goal)

    @pytest.mark.parametrize("count", [6, 7])
    @pytest.mark.parametrize("check", [truth_consequence, degree_consequence])
    def test_finite_chain_below_and_above_the_cap(self, chains, count, check):
        model = ChainModel("L3", chains["L3"])
        goal = Var("p1")
        for i in range(2, count + 1):
            goal = Imp(Var(f"p{i}"), goal)
        with pytest.raises(OperatorNotBound):
            check([model], [parse("0"), parse("O p1")], goal)


class TestDeterminism:
    def test_repeated_queries_are_identical(self, chains):
        lg = chains["LG"]
        model = ChainModel("LG", lg, max_op(lg))
        a = truth_consequence([model], [], parse("O p -> (p \\/ ~p)"))
        b = truth_consequence([model], [], parse("O p -> (p \\/ ~p)"))
        assert (a.verdict, a.assignment, a.checked) == (b.verdict, b.assignment, b.checked)


@pytest.mark.parametrize("name, compile_",
                         [("L5", compile_finite), ("LG", generate),
                          ("L5", generate)],
                         ids=["L5", "LG", "L5-generated"])
def test_compiling_leaves_no_reference_cycle(chains, name, compile_):
    # every compiled column function, closure or generated function is
    # freed by reference counting alone
    chain = chains[name]
    op = max_op(chain)
    model = ChainModel(name, chain, op, dual(op))
    f = parse("p -> (q & ~p) \\/ O (q <-> 1) /\\ D # p & (0 -> p)")
    points = chain.elements if chain.is_finite else chain.sample_points(4)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            if chain.is_finite:
                fn = compile_(model, f, ["p", "q"])
            else:
                fn = compile_(model, f, ["p", "q"], points)
            if compile_ is compile_finite:  # the columns of one tuple
                fn([b"\x01", b"\x02"], 1)
            else:
                fn((1, 2))
        del fn
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The pointwise laws as degree-mode queries against the loops they replaced

def _reference_propagation(model, connective, grid_denominator=60):
    """check_propagation before it became a degree-mode query: a loop over
    points for ~, a loop over pairs that skips O(x) = 0 for the binary
    connectives.  Returns (holds, pair, value, checked)."""
    op, chain = model.consistency, model.chain
    if connective == "0":
        ok = op.value(F(0)) == 1
        return ok, None if ok else (F(0),), None, 1
    points = semantics._points(chain, (op,), grid_denominator)
    checked = 0
    if connective == "~":
        for checked, x in enumerate(points, 1):
            lhs, rhs = op.value(x), op.value(chain.negation(x))
            if lhs > rhs:
                return False, (x,), chain.residuum(lhs, rhs), checked
    else:
        combine = {"/\\": min, "&": chain.tnorm,
                   "->": chain.residuum}[connective]
        for x in points:
            ox = op.value(x)
            if ox == 0:
                checked += len(points)
                continue
            for y in points:
                checked += 1
                lhs = min(ox, op.value(y))
                rhs = op.value(combine(x, y))
                if lhs > rhs:
                    return (False, (x, y), chain.residuum(lhs, rhs),
                            checked)
    if chain.is_finite or connective == "/\\":
        return True, None, None, checked
    if connective in ("->", "~"):
        ok = validate_c(chain, op).valid
        return True if ok else None, None, None, checked
    if op.kind in ("min", "max") or semantics._is_effectively_max(chain, op):
        return True, None, None, checked
    return None, None, None, checked


def _reference_dat(model, grid_denominator=60):
    """check_dat_axiom's loop over its points: (holds, witness, checked)."""
    op, chain = model.consistency, model.chain
    if chain.is_finite:
        points = list(chain.elements)
    else:
        extra = op.critical_points()
        if op.threshold is not None:
            extra.append((op.threshold + 1) / 2)
        bps = [x for x, _ in op.breakpoints]
        extra.extend((a + b) / 2 for a, b in zip(bps, bps[1:]))
        nset = chain.n_set()
        if not nset.empty:
            extra.append(nset.infimum())
            extra.append((nset.infimum() + 1) / 2)
        points = chain.sample_points(grid_denominator, extra=extra)
    for checked, x in enumerate(points, 1):
        if op.value(x) > max(x, chain.negation(x)):
            return False, x, checked
    return True, None, len(points)


def _reference_gentle_explosion(model, grid_denominator=60):
    """check_lfi clause (iv) as a scan for min(O(x), x, ~x) != 0:
    (passed, witness)."""
    op, chain = model.consistency, model.chain
    witness = next((x for x in semantics._points(chain, (op,),
                                                 grid_denominator)
                    if min(op.value(x), x, chain.negation(x)) != 0), None)
    if witness is None and not chain.is_finite \
            and not validate_c(chain, op).valid:
        return None, None
    return witness is None, witness


def _pointwise_results(model, grid_denominator):
    """(new, old) result tuples of every pointwise law on model."""
    new, old = [], []
    for token in semantics.CONNECTIVE_TOKENS:
        res = check_propagation(model, token, grid_denominator)
        new.append((res.holds, res.pair, res.value, res.checked))
        old.append(_reference_propagation(model, token, grid_denominator))
    dat = check_dat_axiom(model, grid_denominator)
    new.append((dat.holds, dat.witness, dat.checked))
    old.append(_reference_dat(model, grid_denominator))
    iv = check_lfi(model, grid_denominator).clauses["iv"]
    new.append((iv.passed, iv.witness))
    old.append(_reference_gentle_explosion(model, grid_denominator))
    return new, old


class TestPointwiseLawsAsQueries:
    @pytest.mark.parametrize("chain_name", ["B2", "L3", "G3", "L4", "WNM4"])
    def test_every_table_operator(self, chains, chain_name):
        chain = (FiniteChain.from_negation([1, F(2, 3), F(1, 3), 0],
                                           name="WNM4")
                 if chain_name == "WNM4" else chains[chain_name])
        failures = 0
        for combo in itertools.product(range(chain.size), repeat=chain.size):
            op = ConsistencyOp(chain, "table", indices=combo)
            new, old = _pointwise_results(ChainModel(chain_name, chain, op),
                                          60)
            assert new == old, (chain_name, op.values)
            failures += sum(r[0] is False for r in new)
        assert failures > 0

    @pytest.mark.parametrize("chain_name", ["LG", "LP", "LL"])
    @pytest.mark.parametrize("denominator", [7, 12, 60])
    def test_standard_operators(self, chains, chain_name, denominator):
        chain = chains[chain_name]
        half = F(1, 2)
        ops = [min_op(chain), max_op(chain), crisp_op(chain, F(3, 4)),
               crisp_op(chain, half), crisp_op(chain, F(2, 3), False),
               piecewise_op(chain, [(half, half), (1, 1)], "linear"),
               piecewise_op(chain, [(half, half), (F(3, 4), 1)], "step"),
               # not valid: it drops from 1 to 0 at 3/4, so a clean grid
               # leaves clause (iv), -> and ~ unproven
               ConsistencyOp(chain, "piecewise", interpolation="step",
                             breakpoints=((half, F(1)), (F(3, 4), F(0))))]
        for op in ops:
            new, old = _pointwise_results(ChainModel(chain_name, chain, op),
                                          denominator)
            assert new == old, (chain_name, op.name, denominator)
