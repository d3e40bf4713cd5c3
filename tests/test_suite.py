"""The suite's grid sampler against the stdlib calls it replays, and the
sampled criteria 1 and 5 against the loops they replaced."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mtlfi.chain import StandardChain, builtin_chains, validate_mtl_laws
from mtlfi.operators import ConsistencyOp
from mtlfi.suite import (_DENOMS, _GRID, _GRID_VALUES, _example_standard_ops,
                         _grid_indices, _random_rational, criterion_1,
                         criterion_5)


def _stdlib_point(rng):
    den = rng.choice(_DENOMS)
    return rng.randint(0, den), den


def _assert_same_stream(seed, count):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = [_GRID[i] for i in _grid_indices(ours, count)]
    assert got == [_stdlib_point(theirs) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


def test_grid_table():
    assert len(_GRID) == len(set(_GRID)) == sum(d + 1 for d in _DENOMS) == 616
    assert all(_GRID_VALUES[k] == F(i, d) for k, (i, d) in enumerate(_GRID))


@pytest.mark.parametrize("seed", [101, 202])
def test_sampler_replays_choice_then_randint(seed):
    _assert_same_stream(seed, 100_000)


@given(seed=st.integers(min_value=0, max_value=2**64),
       count=st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_sampler_replays_choice_then_randint_on_any_seed(seed, count):
    _assert_same_stream(seed, count)


def test_random_rational_is_one_draw():
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(1000):
        assert _random_rational(ours) == F(*_stdlib_point(theirs))
    assert ours.getstate() == theirs.getstate()


# ---------------------------------------------------------------------------
# Criteria 1 and 5 against their loops before the grid table, with a
# broken kernel

def _reference_propagation_failure(chain, op, pairs, fuse):
    """The criterion-5 scan before tabulation: Fraction pairs, O evaluated
    at both points of every pair, no pair skipped."""
    value, tnorm, residuum = op.value_pair, chain.tnorm_pair, chain.residuum_pair
    for x, y in pairs:
        xn, xd = x.numerator, x.denominator
        yn, yd = y.numerator, y.denominator
        ox, oy = value(xn, xd), value(yn, yd)
        ln, ld = ox if ox[0] * oy[1] <= oy[0] * ox[1] else oy
        vn, vd = ox if xn * yd <= yn * xd else oy
        if ln * vd > vn * ld:
            return "/\\ or ->", x, y
        vn, vd = value(*residuum(xn, xd, yn, yd))
        if ln * vd > vn * ld:
            return "/\\ or ->", x, y
        if fuse:
            vn, vd = value(*tnorm(xn, xd, yn, yd))
            if ln * vd > vn * ld:
                return "&", x, y
    return None


def _reference_criterion_5_detail():
    """The detail of criterion 5's standard-chain part as it ran before the
    grid table, with points drawn by choice and randint; None when it
    passes."""
    rng = random.Random(202)
    for name, chain, op in _example_standard_ops(builtin_chains()):
        pairs = [(F(*_stdlib_point(rng)), F(*_stdlib_point(rng)))
                 for _ in range(10000)]
        failure = _reference_propagation_failure(chain, op, pairs,
                                              op.kind in ("min", "max"))
        if failure is not None:
            connective, x, y = failure
            if connective == "&":
                return f"& fails for {op.name} on {name} at ({x},{y})"
            return f"/\\ or -> fails on {name} at ({x},{y})"
    return None


def _reference_criterion_1_detail():
    """The detail of criterion 1's standard-chain part as it ran before the
    grid table."""
    rng = random.Random(101)
    chains = builtin_chains()
    for name in ("LG", "LP", "LL"):
        triples = [tuple(F(*_stdlib_point(rng)) for _ in range(3))
                   for _ in range(10000)]
        bad = validate_mtl_laws(chains[name], triples)
        if bad:
            return f"{name}: {bad[0]}"
    return None


_value_pair = ConsistencyOp.value_pair
_tnorm_pair = StandardChain.tnorm_pair


# Each breakage depends only on the rational a pair stands for, so reduced
# and unreduced pairs see the same bug.
def _max_drops_near_top(op, n, d):
    if op.kind == "max" and 9 * d < 10 * n < 10 * d:
        return 0, 1
    return _value_pair(op, n, d)


def _crisp_has_a_gap(op, n, d):
    if op.kind == "crisp" and 13 * d <= 16 * n < 14 * d:  # 13/16 <= x < 7/8
        return 0, 1
    return _value_pair(op, n, d)


def _product_squares_upper_half(chain, a, b, c, d):
    n, m = _tnorm_pair(chain, a, b, c, d)
    if chain.name == "LP" and m < 2 * n < 2 * m:
        return n * n, m * m
    return n, m


@pytest.mark.parametrize("broken", [_max_drops_near_top, _crisp_has_a_gap])
def test_broken_value_gives_the_reference_criterion_5_detail(monkeypatch, broken):
    monkeypatch.setattr(ConsistencyOp, "value_pair", broken)
    expected = _reference_criterion_5_detail()
    assert expected is not None
    result = criterion_5()
    assert not result.passed and result.detail == expected


def test_broken_tnorm_gives_the_reference_criterion_details(monkeypatch):
    monkeypatch.setattr(StandardChain, "tnorm_pair", _product_squares_upper_half)
    for run, reference in ((criterion_1, _reference_criterion_1_detail),
                           (criterion_5, _reference_criterion_5_detail)):
        expected = reference()
        assert expected is not None
        result = run()
        assert not result.passed and result.detail == expected
