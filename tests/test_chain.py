import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi.chain import (GODEL, LUKASIEWICZ, PRODUCT, ChainError, FiniteChain,
                         GapOrOverlap, NegationNotDecreasing,
                         NonRationalEndpoint, NotAFilter, OutOfCarrier,
                         SizeMismatch, StandardChain,
                         TableNotTnorm, builtin_chains, is_filter,
                         parse_chain_file, quotient_by_filter, upward_filter,
                         validate_mtl_laws)


class TestFiniteFamilies:
    def test_three_valued_involutive_tables(self, chains):
        l3 = chains["L3"]
        assert l3.tnorm(F(1, 2), F(1, 2)) == 0
        assert l3.residuum(F(1, 2), 0) == F(1, 2)
        assert l3.negation(F(1, 2)) == F(1, 2)
        assert l3.tnorm(F(1, 2), 1) == F(1, 2)

    def test_three_valued_idempotent_tables(self, chains):
        g3 = chains["G3"]
        assert g3.tnorm(F(1, 2), F(1, 2)) == F(1, 2)
        assert g3.negation(F(1, 2)) == 0
        assert g3.residuum(1, F(1, 2)) == F(1, 2)

    def test_two_element_chain_is_boolean(self, chains):
        b2 = chains["B2"]
        assert b2.tnorm(1, 1) == 1
        assert b2.negation(0) == 1 and b2.negation(1) == 0

    def test_explicit_table_roundtrip(self):
        rows = [["0", "0"], ["0", "1"]]
        b2 = FiniteChain.from_values_table(rows, name="bool")
        assert b2.size == 2
        assert b2.tnorm(1, 1) == 1

    def test_delta_is_top_projection(self, chains):
        for name in ("L3", "G5", "NM6"):
            chain = chains[name]
            assert chain.delta(1) == 1
            for x in chain.elements[:-1]:
                assert chain.delta(x) == 0

    def test_out_of_carrier(self, chains):
        with pytest.raises(OutOfCarrier):
            chains["L3"].tnorm(F(1, 3), 1)

    def test_lattice_operations_check_the_carrier(self, chains):
        l3 = chains["L3"]
        assert l3.meet(F(1, 2), 1) == F(1, 2) and l3.join("1/2", 0) == F(1, 2)
        for op in (l3.meet, l3.join):
            with pytest.raises(OutOfCarrier):
                op(F(1, 3), 1)
            with pytest.raises(OutOfCarrier):
                op(0, 2)


class TestTableValidation:
    def test_non_commutative_table_rejected(self):
        rows = [[0, 0, 0], [0, 1, 1], [0, 0, 2]]
        with pytest.raises(TableNotTnorm) as exc:
            FiniteChain(rows)
        assert exc.value.law == "commutativity"

    def test_no_unit_rejected(self):
        rows = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(TableNotTnorm) as exc:
            FiniteChain(rows)
        assert exc.value.law == "unit"

    def test_non_monotone_rejected(self):
        rows = [[0, 1, 0], [1, 1, 1], [0, 1, 2]]
        with pytest.raises(TableNotTnorm):
            FiniteChain(rows)

    def test_non_associative_rejected(self):
        # commutative with unit, monotone, but (a*a)*b != a*(a*b)
        rows = [[0, 0, 0, 0],
                [0, 0, 1, 1],
                [0, 1, 1, 2],
                [0, 1, 2, 3]]
        with pytest.raises(TableNotTnorm) as exc:
            FiniteChain(rows)
        assert exc.value.law == "associativity"
        assert len(exc.value.witness) == 3

    def test_error_survives_a_pickle_round_trip(self):
        with pytest.raises(TableNotTnorm) as exc:
            FiniteChain([[0, 0, 0], [0, 1, 1], [0, 0, 2]])
        back = pickle.loads(pickle.dumps(exc.value))
        assert type(back) is TableNotTnorm
        assert (back.law, back.witness, str(back)) == \
            (exc.value.law, exc.value.witness, str(exc.value))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            FiniteChain([[0, 0], [0]])

    def test_bad_negation_endpoints(self):
        with pytest.raises(NegationNotDecreasing):
            FiniteChain.from_negation([1, 0, F(1, 2)])

    def test_increasing_negation_rejected(self):
        with pytest.raises(NegationNotDecreasing):
            FiniteChain.from_negation([1, F(1, 3), F(2, 3), 0])


class TestWnm:
    def test_w15_negation_profile(self, chains):
        w15 = chains["W15"]
        assert w15.size == 16
        assert w15.negation(F(2, 15)) == F(13, 15)
        assert w15.negation(F(3, 15)) == F(12, 15)
        assert w15.negation(F(5, 15)) == F(7, 15)
        assert w15.negation(F(10, 15)) == F(3, 15)
        assert w15.negation(F(12, 15)) == F(3, 15)

    def test_w15_tnorm_shape(self, chains):
        w15 = chains["W15"]
        # below the negation the product collapses to 0, else to min
        assert w15.tnorm(F(2, 15), F(13, 15)) == 0
        assert w15.tnorm(F(9, 15), F(10, 15)) == F(9, 15)
        assert w15.tnorm(F(4, 15), F(8, 15)) == 0       # 8/15 = n(4/15)
        assert w15.tnorm(F(4, 15), F(9, 15)) == F(4, 15)

    def test_nm6_is_involutive(self, chains):
        nm6 = chains["NM6"]
        for x in nm6.elements:
            assert nm6.negation(nm6.negation(x)) == x


class TestStandardChains:
    def test_component_tiling_validated(self):
        with pytest.raises(GapOrOverlap):
            StandardChain([(LUKASIEWICZ, 0, F(1, 2)), (GODEL, F(2, 3), 1)])
        with pytest.raises(GapOrOverlap):
            StandardChain([(LUKASIEWICZ, F(1, 4), 1)])

    def test_product_component_values(self, chains):
        lp = chains["LP"]
        assert lp.tnorm(F(5, 6), F(3, 4)) == F(2, 3)
        assert lp.residuum(F(3, 4), F(2, 3)) == F(5, 6)
        assert lp.negation(F(3, 4)) == 0

    def test_second_lukasiewicz_component(self, chains):
        ll = chains["LL"]
        assert ll.tnorm(F(3, 5), F(3, 5)) == F(1, 2)
        assert ll.residuum(F(3, 5), F(1, 2)) == F(9, 10)
        assert ll.negation(F(3, 5)) == 0

    def test_first_component_negation(self, chains):
        lg = chains["LG"]
        assert lg.residuum(F(1, 4), 0) == F(1, 4)
        assert lg.negation(F(1, 4)) == F(1, 4)

    def test_residuum_tops_out(self, chains):
        for name in ("LG", "LP", "LL"):
            chain = chains[name]
            assert chain.residuum(F(1, 3), F(1, 3)) == 1
            assert chain.residuum(F(1, 4), F(5, 6)) == 1

    def test_shared_endpoint_is_idempotent(self, chains):
        for name in ("LG", "LP", "LL"):
            chain = chains[name]
            a = F(1, 2)
            assert chain.tnorm(a, a) == a
            for y in (F(1, 4), F(3, 4), a, F(1), F(0)):
                assert chain.tnorm(a, y) == min(a, y)

    def test_single_component_is_plain_lukasiewicz(self):
        luk = StandardChain([(LUKASIEWICZ, 0, 1)], name="Luk")
        assert luk.tnorm(F(3, 5), F(3, 5)) == F(1, 5)
        assert luk.negation(F(3, 5)) == F(2, 5)
        assert luk.n_set().empty

    def test_irrational_endpoints_rejected(self):
        from mtlfi.chain import NonRationalEndpoint
        with pytest.raises(NonRationalEndpoint):
            StandardChain([(LUKASIEWICZ, 0.0, 1)])

    def test_carrier_bounds(self, chains):
        with pytest.raises(OutOfCarrier):
            chains["LL"].tnorm(2, 1)
        with pytest.raises(OutOfCarrier):
            chains["LL"].residuum(F(-1, 2), 0)


rationals = st.fractions(min_value=0, max_value=1)


@pytest.mark.parametrize("name", ["LG", "LP", "LL"])
@given(x=rationals, y=rationals, z=rationals)
@settings(max_examples=150, deadline=None)
def test_adjointness_on_standard_chains(name, x, y, z):
    chain = builtin_chains()[name]
    assert (chain.tnorm(x, y) <= z) == (x <= chain.residuum(y, z))
    assert max(chain.residuum(x, y), chain.residuum(y, x)) == 1


def _reference(chain, op, x, y):
    """Textbook ordinal sum: lo + w * r(u, v) on the first component holding
    both arguments, min(x, y) / y across components."""
    x, y = F(x), F(y)
    if op == "residuum" and x <= y:
        return F(1)
    for c in chain.components:
        if c.lo <= x <= c.hi and c.lo <= y <= c.hi:
            break
    else:
        return min(x, y) if op == "tnorm" else y
    w = c.hi - c.lo
    u, v = (x - c.lo) / w, (y - c.lo) / w
    if op == "tnorm":
        r = {LUKASIEWICZ: max(F(0), u + v - 1), GODEL: min(u, v),
             PRODUCT: u * v}[c.family]
    else:
        r = {LUKASIEWICZ: min(F(1), 1 - u + v), GODEL: v,
             PRODUCT: v / u}[c.family]
    return c.lo + w * r


@st.composite
def ordinal_sums(draw):
    """1-3 components of any family, with random rational cut points."""
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=1,
                                      max_denominator=60)
                         .filter(lambda c: 0 < c < 1),
                         max_size=2, unique=True))
    ends = [F(0)] + sorted(cuts) + [F(1)]
    fams = draw(st.lists(st.sampled_from([LUKASIEWICZ, GODEL, PRODUCT]),
                         min_size=len(ends) - 1, max_size=len(ends) - 1))
    return StandardChain(list(zip(fams, ends, ends[1:])))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_textbook_ordinal_sum(data):
    chain = data.draw(ordinal_sums())
    ends = [c.lo for c in chain.components] + [F(1)]
    point = st.one_of(st.sampled_from(ends), rationals,
                      st.integers(min_value=0, max_value=1))
    x, y = data.draw(point), data.draw(point)
    for op in ("tnorm", "residuum"):
        got = getattr(chain, op)(x, y)
        assert type(got) is F and got == _reference(chain, op, x, y)
    assert chain.negation(x) == _reference(chain, "residuum", x, 0)
    # the pair kernel takes unreduced pairs, as its own results are
    k, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    x, y = F(x), F(y)
    args = (x.numerator * k, x.denominator * k, y.numerator * m, y.denominator * m)
    assert F(*chain.tnorm_pair(*args)) == _reference(chain, "tnorm", x, y)
    assert F(*chain.residuum_pair(*args)) == _reference(chain, "residuum", x, y)


@given(chain=ordinal_sums(),
       bad=st.one_of(st.sampled_from([F(-1), F(-1, 60), F(61, 60), F(2)]),
                     st.fractions(max_value=0).filter(lambda v: v < 0),
                     st.fractions(min_value=1).filter(lambda v: v > 1)))
@settings(max_examples=50, deadline=None)
def test_kernel_rejects_points_outside_the_carrier(chain, bad):
    for call in (lambda: chain.tnorm(bad, F(1, 2)),
                 lambda: chain.residuum(F(1, 2), bad),
                 lambda: chain.negation(bad), lambda: chain.delta(bad)):
        with pytest.raises(OutOfCarrier):
            call()
    with pytest.raises(NonRationalEndpoint):
        chain.tnorm(0.5, F(1, 2))
    with pytest.raises(NonRationalEndpoint):
        chain.residuum(F(1, 2), 0.25)


def _reference_law_violations(chain, triples):
    """The standard-chain law loop on Fractions through the public tnorm and
    residuum, as validate_mtl_laws ran it before the pair kernel."""
    bad = []
    tnorm, residuum = chain.tnorm, chain.residuum
    for x, y, z in triples:
        xy = tnorm(x, y)
        if xy != tnorm(y, x):
            bad.append(("commutativity", (x, y)))
            continue
        if tnorm(xy, z) != tnorm(x, tnorm(y, z)):
            bad.append(("associativity", (x, y, z)))
            continue
        if tnorm(x, F(1)) != x:
            bad.append(("unit", (x,)))
            continue
        if y <= z and xy > tnorm(x, z):
            bad.append(("monotonicity", (x, y, z)))
            continue
        if (xy <= z) != (x <= residuum(y, z)):
            bad.append(("adjointness", (x, y, z)))
            continue
        if max(residuum(x, y), residuum(y, x)) != 1:
            bad.append(("prelinearity", (x, y)))
    return bad


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pair_law_check_matches_fraction_loop(data):
    chain = data.draw(ordinal_sums())
    ends = [c.lo for c in chain.components] + [F(1)]
    point = st.one_of(st.sampled_from(ends), rationals,
                      st.integers(min_value=0, max_value=1))
    triples = data.draw(st.lists(st.tuples(point, point, point),
                                 min_size=1, max_size=30))
    got = validate_mtl_laws(chain, triples)
    assert got == _reference_law_violations(chain, triples) == []


def _perturbed(chain, index, **changes):
    """chain with some integers of one kernel entry replaced; the names are
    those of StandardChain._kernel: lo = p/q, hi = r/s, w = wn/wd."""
    fields = ("family", "p", "q", "r", "s", "wn", "wd")
    entry = dict(zip(fields, chain._kernel[index]))
    entry.update(changes)
    kernel = list(chain._kernel)
    kernel[index] = tuple(entry[f] for f in fields)
    chain._kernel = tuple(kernel)
    return chain


_GRID12 = [F(i, 12) for i in range(13)]


@pytest.mark.parametrize("chain", [
    # product component twice as wide as it is: adjointness breaks
    _perturbed(StandardChain([(PRODUCT, 0, F(1, 2)), (LUKASIEWICZ, F(1, 2), 1)]),
               0, wn=2),
    # second Lukasiewicz component floored at 1/4 instead of 1/2
    _perturbed(StandardChain([(LUKASIEWICZ, 0, F(1, 2)), (LUKASIEWICZ, F(1, 2), 1)]),
               1, p=1, q=4),
    # top product component whose width reads 4/3 instead of 2/3: 1 is no unit
    _perturbed(StandardChain([(GODEL, 0, F(1, 3)), (PRODUCT, F(1, 3), 1)]),
               1, wn=4),
], ids=["P+L wide product", "L+L low floor", "G+P wide product"])
def test_perturbed_kernel_fails_the_same_laws_both_ways(chain):
    triples = [(x, y, z) for x in _GRID12 for y in _GRID12 for z in _GRID12]
    got = validate_mtl_laws(chain, triples)
    assert got and got == _reference_law_violations(chain, triples)


@pytest.mark.parametrize("triple", [(F(3, 2), F(1, 2), 0), (F(1, 2), -1, 1),
                                    (1, 0, F(5, 4)), (0.5, 0, 1),
                                    (F(1, 2), F(1, 3), 0.25)])
def test_law_check_rejects_points_outside_the_carrier(chains, triple):
    chain = chains["LP"]
    with pytest.raises(ChainError) as ref:
        _reference_law_violations(chain, [(0, 1, F(1, 2)), triple])
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        validate_mtl_laws(chain, [(0, 1, F(1, 2)), triple])


@pytest.mark.parametrize("name", ["B2", "L3", "L5", "G3", "G5", "NM6", "L3G3"])
def test_finite_laws_exhaustive(chains, name):
    assert validate_mtl_laws(chains[name]) == []


def test_residuum_is_maximal_on_samples(chains):
    # the residuum must be the largest z with x*z <= y
    chain = chains["LL"]
    grid = [F(i, 12) for i in range(13)]
    for x in grid:
        for y in grid:
            r = chain.residuum(x, y)
            assert chain.tnorm(x, r) <= y
            for z in grid:
                if z > r:
                    assert chain.tnorm(x, z) > y


class TestNSet:
    def test_spec_shapes(self, chains):
        assert chains["LG"].n_set().describe() == "[1/2, 1)"
        assert chains["LP"].n_set().describe() == "[1/2, 1)"
        assert chains["B2"].n_set().empty
        assert chains["W15"].n_set().empty
        assert StandardChain([(LUKASIEWICZ, 0, 1)]).n_set().empty
        godel = StandardChain([(GODEL, 0, 1)])
        assert godel.n_set().describe() == "(0, 1)"

    def test_finite_scan(self, chains):
        assert chains["L3G3"].n_set().elements == frozenset({F(1, 2), F(3, 4)})
        assert chains["G3"].n_set().elements == frozenset({F(1, 2)})

    def test_analytic_matches_pointwise_scan(self, chains):
        for name in ("LG", "LP", "LL"):
            chain = chains[name]
            nset = chain.n_set()
            for i in range(61):
                x = F(i, 60)
                in_scan = x != 1 and chain.negation(x) == 0
                assert (x in nset) == in_scan


class TestSmtl:
    def test_pseudo_complemented_chains(self, chains):
        assert chains["G3"].is_smtl() == (True, None)
        assert StandardChain([(GODEL, 0, 1)]).is_smtl()[0]
        assert StandardChain([(PRODUCT, 0, 1)]).is_smtl()[0]

    def test_witnesses(self, chains):
        ok, witness = chains["L3"].is_smtl()
        assert not ok and min(witness, chains["L3"].negation(witness)) != 0
        ok, witness = chains["LP"].is_smtl()
        assert not ok and witness == F(1, 4)


class TestQuotient:
    def test_filter_validation(self, chains):
        l5 = chains["L5"]
        ok, _ = is_filter(l5, {F(3, 4), F(1)})
        assert not ok  # 3/4 * 3/4 = 1/2 escapes
        with pytest.raises(NotAFilter):
            quotient_by_filter(l5, {F(3, 4), F(1)})
        ok, _ = is_filter(l5, upward_filter(l5, 1))
        assert ok

    def test_trivial_filter_is_isomorphic(self, chains):
        l5 = chains["L5"]
        quotient, projection = quotient_by_filter(l5, {F(1)})
        assert quotient.size == l5.size
        assert sorted(projection.values()) == list(quotient.elements)

    def test_w15_collapse(self, chains):
        w15 = chains["W15"]
        quotient, projection = quotient_by_filter(
            w15, upward_filter(w15, F(12, 15)))
        assert quotient.size == 10
        assert validate_mtl_laws(quotient) == []
        # the top class swallows [12/15, 1]
        assert projection[F(12, 15)] == 1 and projection[F(14, 15)] == 1
        # a new zero-negation element below 1 appears
        assert any(z != 1 and quotient.negation(z) == 0
                   for z in quotient.elements)
        # ... although upstairs only 1 had a zero negation
        assert w15.n_set().empty

    def test_projection_is_a_homomorphism(self, chains):
        w15 = chains["W15"]
        quotient, proj = quotient_by_filter(w15, upward_filter(w15, F(12, 15)))
        for x in w15.elements:
            for y in w15.elements:
                assert proj[w15.tnorm(x, y)] == quotient.tnorm(proj[x], proj[y])
                assert proj[w15.residuum(x, y)] == quotient.residuum(proj[x], proj[y])


class TestOrdinalSumFinite:
    def test_two_component_glueing(self, chains):
        l3g3 = chains["L3G3"]
        assert l3g3.size == 5
        # first component is involutive under rescaling
        assert l3g3.tnorm(F(1, 4), F(1, 4)) == 0
        assert l3g3.negation(F(1, 4)) == F(1, 4)
        # second component is idempotent
        assert l3g3.tnorm(F(3, 4), F(3, 4)) == F(3, 4)
        # cross-component products take the minimum
        assert l3g3.tnorm(F(1, 4), F(3, 4)) == F(1, 4)
        assert validate_mtl_laws(l3g3) == []

    def test_rejects_degenerate_components(self):
        with pytest.raises(SizeMismatch):
            FiniteChain.ordinal_sum([(LUKASIEWICZ, 1), (GODEL, 3)])


class TestChainFiles:
    def test_standard_file(self):
        name, chain = parse_chain_file(
            "chain demo\nkind: standard\n"
            "components: lukasiewicz 0 1/2; product 1/2 1\n")
        assert name == "demo"
        assert chain.tnorm(F(5, 6), F(3, 4)) == F(2, 3)

    def test_family_file(self):
        _, chain = parse_chain_file("chain l4\nkind: finite\n"
                                    "family: lukasiewicz\nsize: 4\n")
        assert chain.size == 4
        assert chain.tnorm(F(2, 3), F(2, 3)) == F(1, 3)

    def test_negation_file(self):
        _, chain = parse_chain_file(
            "chain nm\nkind: finite\nnegation: 1 2/3 1/3 0\n")
        assert chain.negation(F(1, 3)) == F(2, 3)

    def test_table_file(self):
        text = ("chain b\nkind: finite\ntable:\n0 0\n0 1\n")
        _, chain = parse_chain_file(text)
        assert chain.size == 2

    def test_malformed_file(self):
        with pytest.raises(ValueError):
            parse_chain_file("kind: finite\n")
