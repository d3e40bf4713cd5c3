import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi import operators
from mtlfi.chain import (GODEL, LUKASIEWICZ, PRODUCT, FiniteChain,
                         NonRationalEndpoint, OutOfCarrier, StandardChain)
from mtlfi.operators import (BreakpointOutsideN, ConsistencyOp, HostMismatch,
                             InconsistencyOp, NotNondecreasing,
                             OperatorSpecError, StandardChainUnsupported,
                             ThresholdOutsideN, TooLarge, bullet_table_op,
                             crisp_op, delta_from_op, dual, enumerate_ops,
                             max_op, min_op, op_from_delta, op_from_spec,
                             parse_op_file,
                             piecewise_op, table_op, validate_algebraic,
                             validate_bullet, validate_c)
from mtlfi.suite import (_GRID_VALUES, _example_standard_ops, _grid_indices,
                         _propagation_failure)


class TestValidateC:
    def test_unique_involutive_operator(self, chains):
        l3 = chains["L3"]
        op = table_op(l3, [1, 0, 1])
        assert validate_c(l3, op).valid
        assert validate_algebraic(l3, op).valid

    def test_contradictory_element_must_go_to_zero(self, chains):
        l3 = chains["L3"]
        report = validate_c(l3, table_op(l3, [1, 1, 1]))
        assert not report.valid and report.clause == "c1"
        assert report.witness == (F(1, 2),)

    def test_bounds_must_go_to_one(self, chains):
        g3 = chains["G3"]
        report = validate_c(g3, table_op(g3, [0, 0, 1]))
        assert not report.valid and report.clause == "c2"
        alg = validate_algebraic(g3, table_op(g3, [0, 0, 1]))
        assert not alg.valid and alg.clause == "o2" and alg.witness == (F(0),)

    def test_monotonicity_on_zero_negation_region(self, chains):
        l3g3 = chains["L3G3"]
        # decreasing on {1/2, 3/4}
        report = validate_c(l3g3, table_op(l3g3, [1, 0, F(3, 4), F(1, 2), 1]))
        assert not report.valid and report.clause == "c3"

    def test_min_and_max_are_valid_everywhere(self, chains):
        for name in ("B2", "L3", "L5", "G3", "G5", "NM6", "W15", "L3G3",
                     "LG", "LP", "LL"):
            chain = chains[name]
            assert validate_c(chain, min_op(chain)).valid
            assert validate_c(chain, max_op(chain)).valid

    def test_host_mismatch(self, chains):
        op = min_op(chains["L3"])
        with pytest.raises(HostMismatch):
            validate_c(chains["G3"], op)

    def test_algebraic_needs_finite(self, chains):
        with pytest.raises(StandardChainUnsupported):
            validate_algebraic(chains["LG"], min_op(chains["LG"]))


def test_validation_forms_agree_on_all_maps(chains):
    """Spot version of the full agreement criterion: every candidate unary
    map gets the same verdict from both validators."""
    for name in ("B2", "L3", "G3"):
        chain = chains[name]
        for combo in itertools.product(chain.elements, repeat=chain.size):
            op = ConsistencyOp(chain, "table", values=combo)
            assert validate_c(chain, op).valid == validate_algebraic(chain, op).valid


class TestExtremalOps:
    def test_max_on_lukasiewicz_godel_sum(self, chains):
        lg = chains["LG"]
        op = max_op(lg)
        assert op.value(0) == 1 and op.value(1) == 1
        assert op.value(F(1, 2)) == 1 and op.value(F(3, 4)) == 1
        assert op.value(F(1, 4)) == 0

    def test_min_equals_max_on_involutive_standard_chain(self):
        luk = StandardChain([(LUKASIEWICZ, 0, 1)], name="Luk")
        lo, hi = min_op(luk), max_op(luk)
        for i in range(61):
            x = F(i, 60)
            assert lo.value(x) == hi.value(x)

    def test_two_element_chain_forces_constant_one(self, chains):
        b2 = chains["B2"]
        assert min_op(b2).values == (1, 1)
        assert max_op(b2).values == (1, 1)


class TestCrisp:
    def test_example_operator(self, chains):
        lp = chains["LP"]
        op = crisp_op(lp, F(3, 4))
        assert op.value(F(5, 6)) == 1
        assert op.value(F(3, 4)) == 1
        assert op.value(F(2, 3)) == 0
        assert op.value(0) == 1
        assert validate_c(lp, op).valid

    def test_threshold_at_region_infimum_matches_max(self, chains):
        lg = chains["LG"]
        op = crisp_op(lg, F(1, 2))
        hi = max_op(lg)
        for i in range(61):
            x = F(i, 60)
            assert op.value(x) == hi.value(x)

    def test_threshold_outside_region(self, chains):
        with pytest.raises(ThresholdOutsideN):
            crisp_op(chains["LP"], F(1, 4))

    def test_open_threshold(self, chains):
        lp = chains["LP"]
        op = crisp_op(lp, F(3, 4), closed=False)
        assert op.value(F(3, 4)) == 0
        assert op.value(F(4, 5)) == 1
        assert validate_c(lp, op).valid

    def test_crisp_on_finite_chain(self, chains):
        l3g3 = chains["L3G3"]
        op = crisp_op(l3g3, F(3, 4))
        assert op.values == (1, 0, 0, 1, 1)
        assert validate_c(l3g3, op).valid


class TestPiecewise:
    def test_identity_profile(self, chains):
        ll = chains["LL"]
        op = piecewise_op(ll, [(F(1, 2), F(1, 2)), (1, 1)], "linear")
        for x in (F(1, 2), F(3, 5), F(3, 4), F(9, 10), F(1)):
            assert op.value(x) == x
        assert op.value(F(1, 4)) == 0
        assert validate_c(ll, op).valid

    def test_refined_breakpoints_same_profile(self, chains):
        ll = chains["LL"]
        op = piecewise_op(ll, [(F(1, 2), F(1, 2)), (F(3, 4), F(3, 4)), (1, 1)],
                          "linear")
        assert op.value(F(5, 8)) == F(5, 8)
        assert validate_c(ll, op).valid

    def test_step_interpolation(self, chains):
        lg = chains["LG"]
        op = piecewise_op(lg, [(F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))], "step")
        assert op.value(F(1, 2)) == F(1, 4)
        assert op.value(F(5, 8)) == F(1, 4)
        assert op.value(F(3, 4)) == F(1, 2)
        assert op.value(F(9, 10)) == F(1, 2)
        assert validate_c(lg, op).valid

    def test_empty_breakpoints_degenerate_to_min(self, chains):
        ll = chains["LL"]
        op = piecewise_op(ll, [])
        assert op.kind == "min"

    def test_breakpoint_outside_region(self, chains):
        with pytest.raises(BreakpointOutsideN):
            piecewise_op(chains["LL"], [(F(1, 4), F(1, 4)), (1, 1)])

    def test_decreasing_values_rejected(self, chains):
        with pytest.raises(NotNondecreasing):
            piecewise_op(chains["LL"], [(F(1, 2), F(3, 4)), (1, F(1, 2))])
        with pytest.raises(NotNondecreasing):
            piecewise_op(chains["LL"], [(1, F(1, 2))])


# beside LG, LP and LL: zero-negation regions (0, 1) after a product or a
# Godel first component
_MORE_STANDARD = [
    StandardChain([(PRODUCT, 0, F(1, 3)), (LUKASIEWICZ, F(1, 3), F(5, 7)),
                   (GODEL, F(5, 7), 1)], name="PLG"),
    StandardChain([(GODEL, 0, F(2, 5)), (LUKASIEWICZ, F(2, 5), 1)], name="GL"),
]


def _reference_value(chain, op, x):
    """O(x) read off the definitions, deciding the zero-negation region by
    the negation itself."""
    x = F(x)
    if x in (0, 1):
        return F(1)
    if op.kind == "min" or chain.negation(x) != 0:
        return F(0)
    if op.kind == "max":
        return F(1)
    if op.kind == "crisp":
        return F(int(x >= op.threshold if op.closed else x > op.threshold))
    before = [bp for bp in op.breakpoints if bp[0] <= x]
    after = [bp for bp in op.breakpoints if bp[0] > x]
    if not before:
        return F(0)
    x0, v0 = before[-1]
    if not after or op.interpolation == "step":
        return v0
    x1, v1 = after[0]
    return v0 + (v1 - v0) * (x - x0) / (x1 - x0)


_unit = st.fractions(min_value=0, max_value=1, max_denominator=60)


@st.composite
def standard_ops(draw, chains):
    """A standard chain and a min, max, crisp or piecewise operator on it."""
    chain = draw(st.sampled_from([chains["LG"], chains["LP"], chains["LL"],
                                  *_MORE_STANDARD]))
    kind = draw(st.sampled_from(["min", "max", "crisp", "step", "linear"]))
    if kind == "min":
        return chain, min_op(chain)
    if kind == "max":
        return chain, max_op(chain)
    nset = chain.n_set()
    a = nset.infimum()
    if kind == "crisp":
        t = a + (1 - a) * draw(_unit)
        return chain, crisp_op(chain, t, closed=draw(st.booleans()))
    xs = draw(st.lists(_unit.filter(lambda s: s < 1 and (s > 0 or nset.closed)),
                       min_size=1, max_size=3, unique=True))
    vs = sorted(draw(st.lists(_unit, min_size=len(xs), max_size=len(xs))))
    bps = [(a + (1 - a) * s, v) for s, v in zip(sorted(xs), vs)]
    if draw(st.booleans()):
        bps.append((F(1), F(1)))
    return chain, piecewise_op(chain, bps, kind)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_standard_values_match_reference(chains, data):
    chain, op = data.draw(standard_ops(chains))
    marks = [F(0), F(1)] + [c.lo for c in chain.components]
    marks += [x for x, _ in op.breakpoints]
    if op.threshold is not None:
        marks.append(op.threshold)
    x = data.draw(st.one_of(st.sampled_from(marks), _unit))
    assert op.value(x) == _reference_value(chain, op, x)
    assert (x in chain.n_set()) == (x != 1 and chain.negation(x) == 0)
    k = data.draw(st.integers(min_value=1, max_value=7))
    n, d = F(x).numerator * k, F(x).denominator * k
    assert F(*op.value_pair(n, d)) == op.value(x)
    assert chain.n_set().contains_pair(n, d) == (x in chain.n_set())


@pytest.mark.parametrize("grid", [60, 1000])
def test_critical_points_keep_the_sample_points(chains, grid):
    # the breakpoints/threshold snippet each grid scan used to inline
    for name, chain, op in _example_standard_ops(chains):
        extra = [x for x, _ in op.breakpoints]
        if op.threshold is not None:
            extra.append(op.threshold)
        expected = chain.sample_points(grid, extra=extra)
        assert chain.sample_points(grid, extra=op.critical_points()) == expected
        bullet = dual(op)
        assert bullet.critical_points() == op.critical_points()
        assert chain.sample_points(grid, extra=bullet.critical_points()) == expected
    b3 = bullet_table_op(chains["L3"], [0, 1, 0])
    assert b3.critical_points() == []


def _reference_propagation_failure(chain, op, pairs, fuse):
    """The criterion-5 loop on Fractions through the public value, tnorm
    and residuum, as the suite ran it before the pair kernel."""
    for x, y in pairs:
        lhs = min(op.value(x), op.value(y))
        if lhs > op.value(min(x, y)) or lhs > op.value(chain.residuum(x, y)):
            return "/\\ or ->", x, y
        if fuse and lhs > op.value(chain.tnorm(x, y)):
            return "&", x, y
    return None


def _seeded_pairs(seed, count):
    drawn = _grid_indices(random.Random(seed), 2 * count)
    return list(zip(drawn[0::2], drawn[1::2]))


@pytest.mark.parametrize("seed", [202, 7])
@pytest.mark.parametrize("fuse", [True, False])
def test_propagation_scan_matches_fraction_loop(chains, seed, fuse):
    pairs = _seeded_pairs(seed, 1500)
    points = [(_GRID_VALUES[i], _GRID_VALUES[j]) for i, j in pairs]
    ll = chains["LL"]
    # not a valid operator: it drops from 1 to 0 at 3/4, so -> fails
    decreasing = ConsistencyOp(ll, "piecewise", interpolation="step",
                               breakpoints=((F(1, 2), F(1)), (F(3, 4), F(0))),
                               name="decreasing")
    for name, chain, op in _example_standard_ops(chains) + [("LL", ll, decreasing)]:
        got = _propagation_failure(chain, op, pairs, fuse)
        assert got == _reference_propagation_failure(chain, op, points, fuse), name
        if (name, op.name, fuse) == ("LP", "crisp:3/4", True):
            assert got is not None and got[0] == "&"
        if (name, op.name) == ("LG", "min"):
            assert got is None
        if op is decreasing:
            assert got is not None and got[0] == "/\\ or ->"


@given(data=st.data(),
       bad=st.one_of(st.sampled_from([F(-1), F(-1, 60), F(61, 60), F(2)]),
                     st.fractions(max_value=0).filter(lambda v: v < 0),
                     st.fractions(min_value=1).filter(lambda v: v > 1)))
@settings(max_examples=50, deadline=None)
def test_standard_values_reject_points_outside_the_carrier(chains, data, bad):
    _, op = data.draw(standard_ops(chains))
    with pytest.raises(OutOfCarrier):
        op.value(bad)
    with pytest.raises(NonRationalEndpoint):
        op.value(0.5)


def _brute_force_ops(chain) -> list:
    """The value vectors of every map on a finite chain that passes
    validate_c, found by trying all n**n maps in lexicographic order."""
    return [combo for combo in itertools.product(chain.elements, repeat=chain.size)
            if validate_c(chain, ConsistencyOp(chain, "table", values=combo)).valid]


@st.composite
def small_ordinal_sums(draw):
    """Ordinal sums of Lukasiewicz and Goedel components, at most 6 elements."""
    components, size = [], 1
    while size < 6:
        s = draw(st.integers(2, 7 - size))
        components.append((draw(st.sampled_from([LUKASIEWICZ, GODEL])), s))
        size += s - 1
        if not draw(st.booleans()):
            break
    return FiniteChain.ordinal_sum(components)


class TestEnumeration:
    def test_involutive_chains_have_one_operator(self, chains):
        assert len(enumerate_ops(chains["L3"])) == 1
        assert len(enumerate_ops(chains["B2"])) == 1
        assert len(enumerate_ops(chains["L5"])) == 1

    def test_counts_match_the_combinatorial_formula(self, chains):
        # free choices: one non-decreasing tuple over the zero-negation
        # region, values anywhere in the chain
        g8 = FiniteChain.from_family(GODEL, 8)
        names = ("B2", "L3", "G3", "L4", "G5", "L3G3")
        for chain in [chains[name] for name in names] + [g8]:
            free = len(chain.n_set().elements)
            expected = comb(chain.size + free - 1, free)
            assert len(enumerate_ops(chain)) == expected
        assert len(enumerate_ops(g8)) == comb(13, 6) == 1716

    def test_all_enumerated_are_valid_and_deterministic(self, chains):
        g3 = chains["G3"]
        ops = enumerate_ops(g3)
        assert [op.values for op in ops] == [op.values for op in enumerate_ops(g3)]
        for op in ops:
            assert validate_c(g3, op).valid

    def test_construction_equals_brute_force_on_fixture_chains(self, chains):
        small = [c for c in chains.values() if c.is_finite and c.size <= 6]
        assert {c.name for c in small} >= {"B2", "L3", "G3", "L4", "L5", "G5",
                                           "NM6", "L3G3"}
        for chain in small:
            assert [op.values for op in enumerate_ops(chain)] == _brute_force_ops(chain)

    @given(chain=small_ordinal_sums())
    @settings(max_examples=25, deadline=None)
    def test_construction_equals_brute_force_on_ordinal_sums(self, chain):
        assert [op.values for op in enumerate_ops(chain)] == _brute_force_ops(chain)

    def test_budget_cap(self):
        big = StandardChain([(LUKASIEWICZ, 0, 1)])
        with pytest.raises(StandardChainUnsupported):
            enumerate_ops(big)
        # G12 has C(21, 10) = 352 716 operators, over the budget
        with pytest.raises(TooLarge):
            enumerate_ops(FiniteChain.from_family(GODEL, 12))

    def test_budget_is_checked_before_building(self, monkeypatch):
        g8 = FiniteChain.from_family(GODEL, 8)
        monkeypatch.setattr(operators, "ENUMERATION_BUDGET", 1716)
        assert len(enumerate_ops(g8)) == 1716
        monkeypatch.setattr(operators, "ENUMERATION_BUDGET", 1715)
        built = []
        monkeypatch.setattr(operators, "validate_c", lambda *args: built.append(args))
        with pytest.raises(TooLarge):
            enumerate_ops(g8)
        assert built == []


def _cubic_validate_algebraic(chain, op):
    """validate_algebraic before its innermost loop was collapsed: o3 is
    tried at every triple (x, y, z)."""
    els, n = chain.elements, chain.size
    top, neg, res = n - 1, chain._neg_i, chain._res_i
    vi = tuple(chain._idx(v) for v in op.values)
    for i in range(n):
        if min(i, neg[i], vi[i]) != 0:
            return operators.ValidationReport(False, "o1", (els[i],))
    if vi[top] != top or vi[0] != top:
        w = els[top] if vi[top] != top else els[0]
        return operators.ValidationReport(False, "o2", (w,))
    for i in range(n):
        nn_i = neg[neg[i]]
        for j in range(n):
            hyp_core = min(nn_i, res[i][j])
            concl_core = res[vi[i]][vi[j]]
            for k in range(n):
                if max(hyp_core, k) == top and max(concl_core, k) != top:
                    return operators.ValidationReport(False, "o3",
                                                      (els[i], els[j], els[k]))
    return operators.ValidationReport(True)


def test_validate_algebraic_equals_the_cubic_reference(chains):
    tables = 0
    for name in ("B2", "L3", "G3", "L4", "L5", "G5", "L3G3"):
        chain = chains[name]
        for combo in itertools.product(chain.elements, repeat=chain.size):
            op = ConsistencyOp(chain, "table", values=combo)
            assert validate_algebraic(chain, op) == _cubic_validate_algebraic(chain, op)
            tables += 1
    assert tables == 9689


def _ladder(chain):
    """The indices of the zero-negation region N, then the top: where an
    operator must rise (c3) and its dual fall (b3)."""
    top = chain.size - 1
    return [i for i in range(1, top) if chain._neg_i[i] == 0] + [top]


def _fraction_validate_c(chain, op):
    """validate_c on a finite chain before the element-index table: the
    postulates compared on op.values."""
    vals, n, neg = op.values, chain.size, chain._neg_i
    top = n - 1
    for i in range(n):
        if i != 0 and neg[i] != 0 and vals[i] != 0:
            return operators.ValidationReport(False, "c1", (chain.elements[i],))
    if vals[0] != 1 or vals[top] != 1:
        w = chain.elements[0] if vals[0] != 1 else chain.elements[top]
        return operators.ValidationReport(False, "c2", (w,))
    ladder = _ladder(chain)
    for a, b in zip(ladder, ladder[1:]):
        if vals[a] > vals[b]:
            return operators.ValidationReport(
                False, "c3", (chain.elements[a], chain.elements[b]))
    return operators.ValidationReport(True)


def _fraction_validate_bullet(chain, bop):
    """validate_bullet on a finite chain before the element-index table:
    the postulates on bop.value at every element."""
    els = chain.elements
    vals = [bop.value(x) for x in els]
    for x, v in zip(els, vals):
        if max(chain.negation(min(x, chain.negation(x))), v) != 1:
            return operators.ValidationReport(False, "b1", (x,))
    for i in (0, -1):
        if vals[i] != 0:
            return operators.ValidationReport(False, "b2", (els[i],))
    ladder = _ladder(chain)
    for a, b in zip(ladder, ladder[1:]):
        if vals[a] < vals[b]:
            return operators.ValidationReport(False, "b3", (els[a], els[b]))
    return operators.ValidationReport(True)


def _assert_table_paths_agree(chain, combo):
    """The operators on the index tuple combo, built from indices and from
    values, against the Fraction validators and the old dual."""
    els = chain.elements
    values = tuple(els[i] for i in combo)
    op = ConsistencyOp(chain, "table", indices=combo)
    from_values = ConsistencyOp(chain, "table", values=values)
    assert op.indices == from_values.indices == combo
    assert op.values == values
    assert validate_c(chain, op) == _fraction_validate_c(chain, from_values)
    assert (validate_algebraic(chain, op)
            == _cubic_validate_algebraic(chain, from_values))
    bop = dual(op)
    assert bop.values == tuple(chain.negation(v) for v in values)
    assert validate_bullet(chain, bop) == _fraction_validate_bullet(chain, bop)
    table = bullet_table_op(chain, values)
    assert table.indices == combo
    assert validate_bullet(chain, table) == _fraction_validate_bullet(chain, table)


def test_table_paths_agree_on_every_map_up_to_four_elements(chains):
    four = FiniteChain.ordinal_sum([(GODEL, 2), (LUKASIEWICZ, 3)])
    maps = 0
    for chain in (chains["B2"], chains["L3"], chains["G3"], chains["L4"], four):
        for combo in itertools.product(range(chain.size), repeat=chain.size):
            _assert_table_paths_agree(chain, combo)
            maps += 1
    assert maps == 4 + 2 * 27 + 2 * 256


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_table_paths_agree_on_larger_chains(chains, data):
    chain = data.draw(st.one_of(
        small_ordinal_sums(),
        st.sampled_from(["L5", "G5", "NM6", "W15"]).map(chains.get)))
    index = st.integers(0, chain.size - 1)
    combo = data.draw(st.one_of(
        st.lists(index, min_size=chain.size, max_size=chain.size),
        # mostly valid maps: min_op's table with some entries moved
        st.lists(st.tuples(index, index), max_size=3).map(
            lambda moves: _moved(min_op(chain).indices, moves))))
    _assert_table_paths_agree(chain, tuple(combo))
    top = chain.size - 1
    nset = chain.n_set()
    assert min_op(chain).values == tuple(
        1 if i in (0, top) else 0 for i in range(chain.size))
    assert max_op(chain).values == tuple(
        1 if (i in (0, top) or x in nset) else 0
        for i, x in enumerate(chain.elements))


def _moved(indices, moves):
    out = list(indices)
    for i, v in moves:
        out[i] = v
    return out


# -- the finite constructors before value_pair became the rule of every kind

def _old_min_indices(chain):
    top = chain.size - 1
    return tuple(top if i in (0, top) else 0 for i in range(chain.size))


def _old_max_indices(chain):
    top, neg = chain.size - 1, chain._neg_i
    return tuple(top if (i == 0 or neg[i] == 0) else 0 for i in range(chain.size))


def _old_crisp_values(chain, t, closed):
    """crisp_op's threshold check and value closure on a finite chain."""
    nset = chain.n_set()
    if not (0 <= t <= 1):
        raise ThresholdOutsideN(f"threshold {t} is outside [0,1]")
    for x in chain.elements:
        hit = x >= t if closed else x > t
        if 0 < x < 1 and hit and x not in nset:
            raise ThresholdOutsideN(f"threshold {t} turns on at {x}")

    def fn(x):
        if x == 0 or x == 1:
            return F(1)
        if x not in nset:
            return F(0)
        return F(1) if (x >= t if closed else x > t) else F(0)

    return tuple(fn(x) for x in chain.elements)


def _old_piecewise_values(chain, bps, interpolation):
    """piecewise_op's value closure on a finite chain, for sorted, checked
    breakpoints."""
    nset = chain.n_set()

    def fn(x):
        if x == 0 or x == 1:
            return F(1)
        if x not in nset:
            return F(0)
        if not bps or x < bps[0][0]:
            return F(0)
        for (x0, v0), (x1, v1) in zip(bps, bps[1:]):
            if x0 <= x < x1:
                if interpolation == "step":
                    return v0
                return v0 + (v1 - v0) * (x - x0) / (x1 - x0)
        return bps[-1][1]

    vals = tuple(fn(x) for x in chain.elements)
    for v in vals:
        chain._idx(v)  # OutOfCarrier for an interpolated value off the grid
    return vals


def _outcome(build):
    """The values of the operator build() makes, or the class it raised."""
    try:
        return build()
    except (ThresholdOutsideN, OutOfCarrier) as exc:
        return type(exc)


def _profiles(chain):
    """Every profile with one or two breakpoints on N + {1} and
    non-decreasing element values, the value at 1 being 1."""
    xs = sorted(chain.n_set().elements) + [F(1)]
    for size in (1, 2):
        for at in itertools.combinations(xs, size):
            for vs in itertools.combinations_with_replacement(chain.elements, size):
                if at[-1] == 1 and vs[-1] != 1:
                    continue
                yield list(zip(at, vs))


def _assert_value_rule_matches_old_constructors(chain):
    assert min_op(chain).indices == _old_min_indices(chain)
    assert max_op(chain).indices == _old_max_indices(chain)
    els = chain.elements
    thresholds = list(els) + [(a + b) / 2 for a, b in zip(els, els[1:])]
    raised = {ThresholdOutsideN: 0, OutOfCarrier: 0}
    for t in thresholds:
        for closed in (True, False):
            new = _outcome(lambda: crisp_op(chain, t, closed).values)
            assert new == _outcome(lambda: _old_crisp_values(chain, t, closed)), (t, closed)
            raised[new] = raised.get(new, 0) + 1
    for bps in _profiles(chain):
        for interpolation in ("step", "linear"):
            new = _outcome(lambda: piecewise_op(chain, bps, interpolation).values)
            old = _outcome(lambda: _old_piecewise_values(chain, bps, interpolation))
            assert new == old, (bps, interpolation)
            raised[new] = raised.get(new, 0) + 1
    return raised


def test_value_rule_matches_the_old_finite_constructors(chains):
    finite = [c for c in chains.values() if c.is_finite]
    assert {c.name for c in finite} >= {"B2", "L3", "L4", "L5", "G3", "G5",
                                        "NM6", "W15", "L3G3"}
    raised = {ThresholdOutsideN: 0, OutOfCarrier: 0}
    for chain in finite:
        for key, count in _assert_value_rule_matches_old_constructors(chain).items():
            raised[key] = raised.get(key, 0) + count
    # both refusals are reached, not only the agreeing tables
    assert raised[ThresholdOutsideN] > 0 and raised[OutOfCarrier] > 0


@given(chain=small_ordinal_sums())
@settings(max_examples=25, deadline=None)
def test_value_rule_matches_the_old_finite_constructors_on_ordinal_sums(chain):
    _assert_value_rule_matches_old_constructors(chain)


def test_finite_piecewise_value_off_the_carrier(chains):
    # 1/4 -> 0 and 1 -> 1, linear: 1/3 at 1/2, which G5 lacks
    g5 = chains["G5"]
    bps = [(F(1, 4), F(0)), (F(1), F(1))]
    with pytest.raises(OutOfCarrier, match="operator value 1/3 is not a chain element"):
        piecewise_op(g5, bps, "linear")
    with pytest.raises(OutOfCarrier):
        _old_piecewise_values(g5, bps, "linear")


def test_finite_crisp_keeps_its_threshold(chains):
    op = crisp_op(chains["L3G3"], F(3, 4), closed=False)
    assert (op.threshold, op.closed) == (F(3, 4), False)
    assert op.values == (1, 0, 0, 0, 1)


# -- the standard-chain postulate loops before the shared scan

def _old_standard_validate_c(chain, op, grid):
    nset = chain.n_set()
    pts = chain.sample_points(grid, extra=op.critical_points())
    if op.value(0) != 1:
        return operators.ValidationReport(False, "c2", (F(0),))
    if op.value(1) != 1:
        return operators.ValidationReport(False, "c2", (F(1),))
    prev = None
    for x in pts:
        v = op.value(x)
        if x not in nset and 0 < x < 1 and v != 0:
            return operators.ValidationReport(False, "c1", (x,))
        if x in nset:
            if prev is not None and v < prev[1]:
                return operators.ValidationReport(False, "c3", (prev[0], x))
            prev = (x, v)
    return operators.ValidationReport(True)


def _old_standard_validate_bullet(chain, bop, grid):
    nset = chain.n_set()
    pts = chain.sample_points(grid, extra=bop.critical_points())
    if bop.value(0) != 0:
        return operators.ValidationReport(False, "b2", (F(0),))
    if bop.value(1) != 0:
        return operators.ValidationReport(False, "b2", (F(1),))
    prev = None
    for x in pts:
        v = bop.value(x)
        if 0 < x < 1 and x not in nset and v != 1:
            return operators.ValidationReport(False, "b1", (x,))
        if x in nset:
            if prev is not None and v > prev[1]:
                return operators.ValidationReport(False, "b3", (prev[0], x))
            prev = (x, v)
    return operators.ValidationReport(True)


@pytest.mark.parametrize("grid", [7, 12, 60, 1000])
@pytest.mark.parametrize("name", ["LG", "LP", "LL"])
def test_standard_postulates_match_the_old_loops(chains, name, grid):
    chain = chains[name]
    # drops from 1 to 0 at 3/4 inside N = [1/2, 1): not a valid operator
    decreasing = ConsistencyOp(chain, "piecewise", interpolation="step",
                               breakpoints=((F(1, 2), F(1)), (F(3, 4), F(0))),
                               name="decreasing")
    ops = [min_op(chain), max_op(chain), crisp_op(chain, F(3, 4)),
           crisp_op(chain, F(3, 4), closed=False), crisp_op(chain, F(1, 2)),
           piecewise_op(chain, [(F(1, 2), F(1, 2)), (1, 1)], "linear"),
           piecewise_op(chain, [(F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))], "step"),
           decreasing]
    for op in ops:
        report = validate_c(chain, op, grid)
        assert report == _old_standard_validate_c(chain, op, grid), op.name
        bop = dual(op)
        bullet = validate_bullet(chain, bop, grid)
        assert bullet == _old_standard_validate_bullet(chain, bop, grid), op.name
        assert report.valid == bullet.valid == (op is not decreasing)
    assert validate_c(chain, decreasing, grid).clause == "c3"
    assert validate_bullet(chain, dual(decreasing), grid).clause == "b3"


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_operator_values_must_be_exact_rationals(chains, bad):
    # a float or bool used to be looked up in a dict by hash, where 0.5 is
    # 1/2 and True is 1
    l3 = chains["L3"]
    for build in (lambda: ConsistencyOp(l3, "table", values=(1, bad, 1)),
                  lambda: InconsistencyOp(l3, values=(0, bad, 0)),
                  lambda: table_op(l3, [1, bad, 1]),
                  lambda: bullet_table_op(l3, [0, bad, 0])):
        with pytest.raises(NonRationalEndpoint, match="not an exact rational"):
            build()


def test_op_from_spec_names_each_operator(chains):
    l3, lp, w15 = chains["L3"], chains["LP"], chains["W15"]
    assert op_from_spec(l3, "min").values == min_op(l3).values
    assert op_from_spec(l3, "max").values == max_op(l3).values
    assert op_from_spec(l3, "delta").values == op_from_delta(l3).values
    assert op_from_spec(w15, "auto").values == enumerate_ops(w15)[0].values
    for spec, closed in (("crisp:3/4", True), ("crisp:3/4:open", False)):
        op = op_from_spec(lp, spec)
        assert (op.kind, op.threshold, op.closed) == ("crisp", F(3, 4), closed)
    with pytest.raises(StandardChainUnsupported,
                       match="^operator spec 'auto' needs a finite chain$"):
        op_from_spec(lp, "auto")
    with pytest.raises(OperatorSpecError,
                       match="^G3 admits 3 operators; pick one explicitly$"):
        op_from_spec(chains["G3"], "auto")
    with pytest.raises(OperatorSpecError,
                       match="^unknown operator spec 'mid'$"):
        op_from_spec(l3, "mid")


def test_fixture_pairings_resolve_through_op_from_spec(chains):
    from mtlfi.proofs import _op_for
    nm6 = chains["NM6"]
    assert _op_for(nm6, None) == (None, None)
    cop, bop = _op_for(nm6, "max")
    assert (cop.values, bop) == (max_op(nm6).values, None)
    cop, bop = _op_for(nm6, "dual-min")
    assert (cop, bop.values) == (None, dual(min_op(nm6)).values)
    with pytest.raises(ValueError, match="unknown operator spec 'dual-mid'"):
        _op_for(nm6, "dual-dual-mid")


def test_operator_values_must_be_chain_elements(chains):
    l3 = chains["L3"]
    for build in (lambda: ConsistencyOp(l3, "table", values=(1, F(1, 3), 1)),
                  lambda: bullet_table_op(l3, [0, F(1, 3), 0]),
                  lambda: table_op(l3, [1, F(1, 3), 1])):
        with pytest.raises(OutOfCarrier, match="1/3 is not a chain element"):
            build()


class TestDuality:
    def test_involutive_dual_values(self, chains):
        l3 = chains["L3"]
        bop = dual(table_op(l3, [1, 0, 1]))
        assert bop.values == (0, 1, 0)
        assert validate_bullet(l3, bop).valid

    def test_dual_of_max_on_standard_chain(self, chains):
        lg = chains["LG"]
        bop = dual(max_op(lg))
        assert bop.value(0) == 0 and bop.value(1) == 0
        assert bop.value(F(1, 2)) == 0 and bop.value(F(3, 4)) == 0
        assert bop.value(F(1, 4)) == 1
        assert validate_bullet(lg, bop).valid

    def test_every_enumerated_dual_is_valid(self, chains):
        for name in ("B2", "L3", "G3", "L3G3"):
            chain = chains[name]
            for op in enumerate_ops(chain):
                assert validate_bullet(chain, dual(op)).valid

    def test_invalid_bullet_table(self, chains):
        b2 = chains["B2"]
        for values, witness in (([1, 0], 0), ([0, 1], 1)):
            report = validate_bullet(b2, bullet_table_op(b2, values))
            assert not report.valid and report.clause == "b2"
            assert report.witness == (witness,)

    def test_bullet_is_not_validate_c_on_the_negation(self, chains):
        # on G5 the negation is not involutive: this table fails b3 while
        # validate_c passes its pointwise negation
        g5 = chains["G5"]
        table = [0, F(1, 4), F(1, 4), F(1, 2), 0]
        report = validate_bullet(g5, bullet_table_op(g5, table))
        assert not report.valid and report.clause == "b3"
        assert report.witness == (F(1, 2), F(3, 4))
        negated = [g5.negation(v) for v in table]
        assert negated == [1, 0, 0, 0, 1]
        assert validate_c(g5, table_op(g5, negated)).valid

    def test_bullet_antitonicity_violation(self, chains):
        l3g3 = chains["L3G3"]
        report = validate_bullet(l3g3, bullet_table_op(l3g3, [0, 1, 0, F(1, 2), 0]))
        assert not report.valid and report.clause == "b3"


class TestCrispness:
    def test_crisp_values_validate_the_boolean_axiom(self, chains):
        """On a crisp operator, O(x) \\/ ~O(x) evaluates to 1 at every point."""
        for name, op_builder in (("LP", lambda c: crisp_op(c, F(3, 4))),
                                 ("LG", lambda c: crisp_op(c, F(1, 2))),
                                 ("LL", max_op), ("LP", min_op)):
            chain = chains[name]
            op = op_builder(chain)
            for i in range(61):
                x = F(i, 60)
                v = op.value(x)
                assert v in (F(0), F(1))
                assert max(v, chain.negation(v)) == 1

    def test_double_negation_recovers_crisp_values(self, chains):
        lp = chains["LP"]
        op = crisp_op(lp, F(3, 4))
        for i in range(61):
            x = F(i, 60)
            v = op.value(x)
            assert lp.negation(lp.negation(v)) == v

    def test_double_negation_is_not_asserted_for_general_ops(self, chains):
        # with the identity profile the operator value 3/4 collapses to 0
        # under negation and comes back as 1, so no recovery claim is made
        ll = chains["LL"]
        op = piecewise_op(ll, [(F(1, 2), F(1, 2)), (1, 1)], "linear")
        v = op.value(F(3, 4))
        assert ll.negation(ll.negation(v)) != v


class TestDeltaInterplay:
    def test_delta_route_is_the_minimal_operator(self, chains):
        for name in ("L3", "G3", "NM6", "L3G3", "W15"):
            chain = chains[name]
            assert op_from_delta(chain).values == min_op(chain).values
        lg = chains["LG"]
        from_delta = op_from_delta(lg)
        for i in range(61):
            x = F(i, 60)
            assert from_delta.value(x) == min_op(lg).value(x)

    def test_projection_recovered_from_minimal_operator(self, chains):
        for name in ("B2", "L3", "G3", "L5", "G5", "NM6", "L3G3"):
            chain = chains[name]
            op = min_op(chain)
            for x in chain.elements:
                assert delta_from_op(chain, op, x) == chain.delta(x)

    def test_spot_values(self, chains):
        l3 = chains["L3"]
        op = min_op(l3)
        assert delta_from_op(l3, op, 1) == 1
        assert delta_from_op(l3, op, F(1, 2)) == 0


class TestExtremality:
    def test_every_valid_operator_is_between_min_and_max(self, chains):
        for name in ("B2", "L3", "G3", "L4", "L3G3"):
            chain = chains[name]
            lo, hi = min_op(chain), max_op(chain)
            for op in enumerate_ops(chain):
                for x in chain.elements:
                    assert lo.value(x) <= op.value(x) <= hi.value(x)


class TestOpFiles:
    def test_crisp_file(self, chains):
        name, op = parse_op_file(
            "op example on LP\nkind: crisp\nthreshold: 3/4\nclosed: true\n",
            chains)
        assert name == "example"
        assert op.value(F(3, 4)) == 1 and op.value(F(2, 3)) == 0

    def test_piecewise_file(self, chains):
        _, op = parse_op_file(
            "op ramp on LL\nkind: piecewise\n"
            "breakpoints: 1/2=1/2, 1=1\ninterpolation: linear\n",
            chains)
        assert op.value(F(3, 5)) == F(3, 5)

    def test_table_file(self, chains):
        _, op = parse_op_file(
            "op t on L3\nkind: table\nvalues: 1 0 1\n", chains)
        assert validate_c(chains["L3"], op).valid

    def test_unknown_chain(self, chains):
        with pytest.raises(ValueError):
            parse_op_file("op x on NOPE\nkind: min\n", chains)
