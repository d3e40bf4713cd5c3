import itertools
import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi.chain import (GODEL, LUKASIEWICZ, PRODUCT, BadGridDenominator,
                         Chain, ChainError, ChainSpecError, FiniteChain,
                         GapOrOverlap,
                         NegationNotDecreasing, NonRationalEndpoint,
                         NotAFilter, OutOfCarrier, SizeMismatch,
                         StandardChain, TableNotTnorm, builtin_chains,
                         is_filter, law_violations, parse_chain_file,
                         quotient_by_filter, rat, upward_filter,
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

    @pytest.mark.parametrize("build", [
        lambda: FiniteChain.from_negation([1]),
        lambda: FiniteChain.from_negation([]),
        lambda: FiniteChain.from_values_table([[1]]),
        lambda: FiniteChain.from_values_table([[0, 0]]),
        lambda: FiniteChain.from_values_table([])])
    def test_fewer_than_two_values(self, build):
        # these used to divide by zero or index an empty list
        with pytest.raises(SizeMismatch,
                           match="^a chain needs at least two elements$"):
            build()

    def test_values_off_the_grid(self):
        with pytest.raises(OutOfCarrier,
                           match="^table value 1/3 is not a grid point$"):
            FiniteChain.from_values_table([[0, "2/6"], [0, 1]])
        with pytest.raises(OutOfCarrier,
                           match="^negation value 3/2 is not a grid point$"):
            FiniteChain.from_negation([1, F(3, 2), 0])
        assert FiniteChain.from_values_table(
            [[0, 0, 0], [0, "2/4", "2/4"], [0, "2/4", 1]]).size == 3

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


def _pair_law_violations(chain, triples):
    """The standard-chain law loop in pair space before the point table:
    each point of each triple converted by chain.pair as it comes, the unit
    law checked once per triple."""
    bad = []
    pair, tnorm, residuum = chain.pair, chain.tnorm_pair, chain.residuum_pair
    for x, y, z in triples:
        xn, xd = pair(x)
        yn, yd = pair(y)
        zn, zd = pair(z)
        tn, td = tnorm(xn, xd, yn, yd)
        un, ud = tnorm(yn, yd, xn, xd)
        if tn * ud != un * td:
            bad.append(("commutativity", (x, y)))
            continue
        un, ud = tnorm(tn, td, zn, zd)
        vn, vd = tnorm(yn, yd, zn, zd)
        vn, vd = tnorm(xn, xd, vn, vd)
        if un * vd != vn * ud:
            bad.append(("associativity", (x, y, z)))
            continue
        un, ud = tnorm(xn, xd, 1, 1)
        if un * xd != xn * ud:
            bad.append(("unit", (x,)))
            continue
        if yn * zd <= zn * yd:
            un, ud = tnorm(xn, xd, zn, zd)
            if tn * ud > un * td:
                bad.append(("monotonicity", (x, y, z)))
                continue
        un, ud = residuum(yn, yd, zn, zd)
        if (tn * zd <= zn * td) != (xn * ud <= un * xd):
            bad.append(("adjointness", (x, y, z)))
            continue
        un, ud = residuum(xn, xd, yn, yd)
        vn, vd = residuum(yn, yd, xn, xd)
        if vn * ud > un * vd:
            un, ud = vn, vd
        if un != ud:
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
    assert got == _pair_law_violations(chain, triples)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_indexed_law_check_matches_the_per_point_loop(data):
    """law_violations over index triples into a table of unreduced pairs,
    against the per-point loop on the same values."""
    chain = data.draw(ordinal_sums())
    breakage = data.draw(st.sampled_from([None, "inside", "ordered"]))
    if breakage is not None:
        tnorm = chain.tnorm_pair

        def squared(a, b, c, d):  # depends on the rationals only
            n, m = tnorm(a, b, c, d)
            hit = a * d < c * b if breakage == "ordered" else 0 < n < m
            return (n * n, m * m) if hit else (n, m)

        chain.tnorm_pair = squared
    ends = [c.lo for c in chain.components] + [F(1)]
    values = data.draw(st.lists(st.one_of(st.sampled_from(ends), rationals),
                                min_size=1, max_size=12))
    scale = data.draw(st.lists(st.integers(1, 5), min_size=len(values),
                               max_size=len(values)))
    pairs = [(v.numerator * k, v.denominator * k)
             for v, k in zip(values, scale)]
    index = st.integers(0, len(values) - 1)
    triples = data.draw(st.lists(st.tuples(index, index, index),
                                 min_size=1, max_size=40))
    got = law_violations(chain, pairs, triples, values)
    expected = _pair_law_violations(
        chain, [(values[i], values[j], values[k]) for i, j, k in triples])
    assert got == expected
    # the witnesses are the table's own objects
    for _, witness in got:
        assert all(any(w is v for v in values) for w in witness)


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
    assert got == _pair_law_violations(chain, triples)


@pytest.mark.parametrize("triple", [(F(3, 2), F(1, 2), 0), (F(1, 2), -1, 1),
                                    (1, 0, F(5, 4)), (0.5, 0, 1),
                                    (F(1, 2), F(1, 3), 0.25)])
def test_law_check_rejects_points_outside_the_carrier(chains, triple):
    chain = chains["LP"]
    with pytest.raises(ChainError) as ref:
        _reference_law_violations(chain, [(0, 1, F(1, 2)), triple])
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        validate_mtl_laws(chain, [(0, 1, F(1, 2)), triple])


def _sorted_sample_points(chain, denominator, extra):
    """sample_points before the in-order grid: every point in one set,
    then sorted."""
    pts = {F(i, denominator) for i in range(denominator + 1)}
    for c in chain.components:
        pts.add(c.lo)
        pts.add(c.hi)
    for e in extra:
        v = F(e)
        if 0 <= v <= 1:
            pts.add(v)
    return sorted(pts)


@given(chain=ordinal_sums(), denominator=st.integers(1, 240),
       extra=st.lists(st.one_of(st.fractions(min_value=-1, max_value=2,
                                             max_denominator=400),
                                st.integers(-2, 2)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_sample_points_match_the_sorted_set(chain, denominator, extra):
    got = chain.sample_points(denominator, extra=extra)
    assert got == _sorted_sample_points(chain, denominator, extra)
    assert all(type(v) is F for v in got)


@pytest.mark.parametrize("denominator", [0, -1, -3])
def test_sample_points_need_a_positive_denominator(chains, denominator):
    with pytest.raises(BadGridDenominator, match="at least 1"):
        chains["LG"].sample_points(denominator)
    assert issubclass(BadGridDenominator, ChainError)




def _finite_law_violations(chain):
    """validate_mtl_laws on a finite chain before the one law loop: all
    index triples in itertools.product order, on the index tables;
    indices order like elements."""
    bad = []
    els, tn, rs = chain.elements, chain._tnorm_i, chain._res_i
    top = chain.size - 1
    for i, j, k in itertools.product(range(chain.size), repeat=3):
        ij = tn[i][j]
        if ij != tn[j][i]:
            bad.append(("commutativity", (els[i], els[j])))
            continue
        if tn[ij][k] != tn[i][tn[j][k]]:
            bad.append(("associativity", (els[i], els[j], els[k])))
            continue
        if tn[i][top] != i:
            bad.append(("unit", (els[i],)))
            continue
        if j <= k and ij > tn[i][k]:
            bad.append(("monotonicity", (els[i], els[j], els[k])))
            continue
        if (ij <= k) != (i <= rs[j][k]):
            bad.append(("adjointness", (els[i], els[j], els[k])))
            continue
        if max(rs[i][j], rs[j][i]) != top:
            bad.append(("prelinearity", (els[i], els[j])))
    return bad


def _w15_quotient():
    w15 = builtin_chains()["W15"]
    return quotient_by_filter(w15, upward_filter(w15, F(12, 15)))[0]


@pytest.mark.parametrize("name", ["B2", "L3", "L5", "G3", "G5", "NM6", "L3G3",
                                  "W15", "L4", "W15/F"])
def test_finite_laws_exhaustive(chains, name):
    chain = _w15_quotient() if name == "W15/F" else chains[name]
    assert validate_mtl_laws(chain) == _finite_law_violations(chain) == []


def _tampered(family, n, changes):
    """A fresh chain of the family with entries of its index tables
    replaced: changes maps (table attribute, i, j) to the new index."""
    chain = FiniteChain.from_family(family, n)
    for attr in ("_tnorm_i", "_res_i"):
        table = [list(row) for row in getattr(chain, attr)]
        for (name, i, j), v in changes.items():
            if name == attr:
                table[i][j] = v
        setattr(chain, attr, tuple(tuple(row) for row in table))
    return chain


def _tampered_chains():
    """L3, G3 and L4 with one entry of the conjunction or residuum table
    changed, or a symmetric pair of conjunction entries, to every index."""
    for family, n in ((LUKASIEWICZ, 3), (GODEL, 3), (LUKASIEWICZ, 4)):
        for attr, symmetric in (("_tnorm_i", False), ("_tnorm_i", True),
                                ("_res_i", False)):
            for i, j, v in itertools.product(range(n), repeat=3):
                changes = {(attr, i, j): v}
                if symmetric:
                    changes[attr, j, i] = v
                yield _tampered(family, n, changes)
    # monotonicity fires first only where the residuum follows the broken
    # row: on L4, 1/3 & 1/3 = 1/3 > 1/3 & 2/3 = 0, and 1/3 -> 0 = 0
    yield _tampered(LUKASIEWICZ, 4, {("_tnorm_i", 1, 1): 1,
                                     ("_res_i", 1, 0): 0})


def test_tampered_tables_fail_the_same_laws_both_ways():
    first = set()
    for chain in _tampered_chains():
        got = validate_mtl_laws(chain)
        assert got == _finite_law_violations(chain)
        if got:
            first.add(got[0][0])
    assert first == {"commutativity", "associativity", "unit",
                     "monotonicity", "adjointness", "prelinearity"}


@pytest.mark.parametrize("name", ["B2", "L3", "L5", "G3", "G5", "NM6", "W15",
                                  "L4", "L3G3"])
def test_finite_pair_kernel_reads_the_tables(chains, name):
    chain = chains[name]
    top = chain.size - 1
    for i, j in itertools.product(range(chain.size), repeat=2):
        x, y = chain.elements[i], chain.elements[j]
        tnorm = chain.elements[chain._tnorm_i[i][j]]
        residuum = chain.elements[chain._res_i[i][j]]
        for a, b, c, d in ((x.numerator, x.denominator,
                            y.numerator, y.denominator),
                           (i, top, j, top), (3 * i, 3 * top, 7 * j, 7 * top)):
            assert F(*chain.tnorm_pair(a, b, c, d)) == tnorm
            assert F(*chain.residuum_pair(a, b, c, d)) == residuum
        assert chain.pair(x) == (x.numerator, x.denominator)


@pytest.mark.parametrize("off", [(1, 3), (2, 6), (-1, 2), (3, 2), (2, 1),
                                 (1, 5)])
def test_finite_pair_kernel_rejects_pairs_off_the_carrier(chains, off):
    chain = chains["L3"]  # {0, 1/2, 1}
    message = f"^{F(*off)} is not an element of L3$"
    for kernel in (chain.tnorm_pair, chain.residuum_pair):
        with pytest.raises(OutOfCarrier, match=message):
            kernel(*off, 1, 2)
        with pytest.raises(OutOfCarrier, match=message):
            kernel(2, 4, *off)
    with pytest.raises(OutOfCarrier, match=message):
        chain.pair(F(*off))


@pytest.mark.parametrize("off", [(-1, 2), (3, 2), (-2, 2), (4, 2)])
def test_finite_pair_kernel_over_the_top_index_keeps_the_carrier(chains, off):
    # pairs (i, k-1) index the tables directly, but only for 0 <= i < k
    chain = chains["L3"]
    message = f"^{F(*off)} is not an element of L3$"
    for kernel in (chain.tnorm_pair, chain.residuum_pair):
        for args in (off + (1, 2), (1, 2) + off):
            with pytest.raises(OutOfCarrier, match=message):
                kernel(*args)


def test_finite_law_check_takes_the_given_triples():
    # the default triples used to be checked whatever triples were given
    chain = _tampered(LUKASIEWICZ, 3, {("_res_i", 0, 0): 1})  # 0 -> 0 = 1/2
    half = F(1, 2)
    assert validate_mtl_laws(chain)[0] == ("prelinearity", (0, 0))
    assert validate_mtl_laws(chain, [(half, half, 1), (1, 1, half),
                                     (half, 1, 0)]) == []
    assert validate_mtl_laws(chain, [(1, 0, 0), (0, 0, half)]) == [
        ("adjointness", (1, 0, 0)), ("prelinearity", (0, 0))]
    triples = list(itertools.product(chain.elements, repeat=3))
    assert validate_mtl_laws(chain, triples) == validate_mtl_laws(chain)
    with pytest.raises(OutOfCarrier, match="^1/3 is not an element"):
        validate_mtl_laws(chain, [(0, half, 1), (0, F(2, 6), 1)])


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

    @pytest.mark.parametrize("text", [
        "chain b\nkind: finite\ntable:\n# rows\n0 0\n0 1\n",
        "chain b\nkind: finite\ntable:\n0 0\n\n0 1\n",
        "chain b\nkind: finite\ntable: 0 0\n# the top: row\n\n0 1\n\n",
    ])
    def test_table_rows_skip_comments_and_blank_lines(self, text):
        # the rows end at the next key line, not at a blank or # line
        _, chain = parse_chain_file(text)
        assert chain._tnorm_i == ((0, 0), (0, 1))

    def test_malformed_file(self):
        with pytest.raises(ValueError):
            parse_chain_file("kind: finite\n")
        with pytest.raises(ChainSpecError,
                           match="malformed chain file line: '0 1'"):
            parse_chain_file("chain g\nkind: finite\nfamily: godel\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        # a key the chosen form does not read
        ("chain a\nkind: finite\nfamily: godel\nsize: 3\nnegation: 1 1/2 0\n",
         "chain file key 'family' is not read beside 'negation'"),
        ("chain s\nkind: standard\ncomponents: lukasiewicz 0 1\nsize: 9\n"
         "family: lukasiewicz\n",
         "chain file key 'family' is not read beside 'components'"),
        ("chain b\nkind: finite\ntable:\n0 0\n0 1\nsize: 2\n",
         "chain file key 'size' is not read beside 'table'"),
        ("chain l\nkind: finite\nfamily: godel\nsize: 3\n"
         "components: godel 0 1\n",
         "chain file key 'components' is not read beside 'family' and 'size'"),
        # a repeated key or header
        ("chain a\nkind: finite\nfamily: godel\nsize: 4\nsize: 5\n",
         "repeated chain file key 'size'"),
        ("chain A\nchain B\nkind: finite\nfamily: godel\nsize: 4\n",
         "repeated chain file key 'chain'"),
        ("chain a\nkind: finite\nkind: standard\ncomponents: godel 0 1\n",
         "repeated chain file key 'kind'"),
        # the header first and once: a late one used to name the chain
        ("kind: finite\nfamily: godel\nsize: 4\nchain late\n",
         "chain file must start with 'chain <name>'"),
        ("# c\nchain: c\nkind: finite\nfamily: godel\nsize: 4\n",
         "chain file must start with 'chain <name>'"),
    ])
    def test_dropped_input_is_an_error(self, text, message):
        with pytest.raises(ChainSpecError) as info:
            parse_chain_file(text)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# The value API of Chain against the per-kind methods it replaced

def _old_finite_ops(chain):
    """FiniteChain's own pair, contains, negation, delta, meet, join and
    n_set, before Chain wrote them once: each reads element indices."""
    def contains(x):
        try:
            chain._idx(x)
            return True
        except ChainError:
            return False

    def pair(x):
        v = rat(x)
        chain._pair_idx(v.numerator, v.denominator)
        return v.numerator, v.denominator

    return {
        "pair": pair, "contains": contains,
        "negation": lambda x: chain.elements[chain._neg_i[chain._idx(x)]],
        "delta": lambda x: F(1) if chain._idx(x) == chain.size - 1 else F(0),
        "meet": lambda x, y: chain.elements[min(chain._idx(x), chain._idx(y))],
        "join": lambda x, y: chain.elements[max(chain._idx(x), chain._idx(y))],
        "n_set": lambda: chain._nset,
    }


def _old_standard_ops(chain):
    """StandardChain's own pair, contains, negation, delta, meet, join and
    n_set, before Chain wrote them once, with its carrier check inlined."""
    def check(x):
        v = x if type(x) is F else rat(x)
        if not 0 <= v.numerator <= v.denominator:
            raise OutOfCarrier(f"{x} is outside [0,1]")
        return v

    def contains(x):
        try:
            check(x)
            return True
        except ChainError:
            return False

    def delta(x):
        v = check(x)
        return F(1) if v.numerator == v.denominator else F(0)

    return {
        "pair": lambda x: (check(x).numerator, check(x).denominator),
        "contains": contains,
        "negation": lambda x: chain.residuum(x, F(0)),
        "delta": delta,
        "meet": lambda x, y: min(check(x), check(y)),
        "join": lambda x, y: max(check(x), check(y)),
        "n_set": lambda: chain._nset,
    }


def _outcome(fn, *args):
    """What fn(*args) gives: its value and type, or its error and message."""
    try:
        v = fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "gives", type(v), v


_VALUE_API = ("pair", "contains", "negation", "delta", "meet", "join",
              "n_set")
# off every carrier, or not exact rationals
_OFF_CARRIER = [F(-1, 2), F(3, 2), 2, -1, 0.5, True, "x", "1/0"]


def _assert_same_value_api(chain, old, points):
    assert _outcome(chain.n_set) == _outcome(old["n_set"])
    for name in ("pair", "contains", "negation", "delta"):
        for x in points:
            assert _outcome(getattr(chain, name), x) == \
                _outcome(old[name], x), (name, x)
    for name in ("meet", "join"):
        for x, y in itertools.product(points, repeat=2):
            assert _outcome(getattr(chain, name), x, y) == \
                _outcome(old[name], x, y), (name, x, y)


def test_both_kinds_take_the_value_api_from_chain():
    for kind in (FiniteChain, StandardChain):
        assert issubclass(kind, Chain)
        assert not set(_VALUE_API) & set(vars(kind)), kind


@pytest.mark.parametrize("name", ["B2", "L3", "L5", "G3", "G5", "NM6", "W15"])
def test_finite_value_api_matches_the_per_kind_methods(chains, name):
    chain = chains[name]
    # every element and element pair, a value off the grid, and the rest
    points = list(chain.elements) + [F(1, 7), "1/2", 1, 0] + _OFF_CARRIER
    _assert_same_value_api(chain, _old_finite_ops(chain), points)


@pytest.mark.parametrize("name", ["LG", "LP", "LL"])
def test_standard_value_api_matches_the_per_kind_methods(chains, name):
    chain = chains[name]
    points = chain.sample_points(12) + [F(1, 7), "2/3", 1, 0] + _OFF_CARRIER
    _assert_same_value_api(chain, _old_standard_ops(chain), points)
