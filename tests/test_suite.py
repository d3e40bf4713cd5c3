"""The suite's grid sampler against the stdlib calls it replays, the
sampled criteria 1 and 5 against the loops they replaced, and run_suite's
worker pool against its in-process loop."""

import multiprocessing
import os
import random
import signal
import threading
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import mtlfi.suite as suite
from mtlfi.chain import (StandardChain, TableNotTnorm, builtin_chains,
                         validate_mtl_laws)
from mtlfi.formula import FormulaSyntaxError
from mtlfi.operators import ConsistencyOp
from mtlfi.semantics import SemanticsError
from mtlfi.suite import (_DENOMS, _GRID, _GRID_VALUES, CriterionResult,
                         _example_standard_ops, _grid_indices,
                         _random_rational, criterion_1, criterion_5,
                         run_suite)


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


# ---------------------------------------------------------------------------
# run_suite: the worker pool against the in-process loop

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(signal, "alarm"),
    reason="the pool forks; the guard against a hang uses SIGALRM")


@contextmanager
def _path(monkeypatch, cpus):
    """Run what follows as on `cpus` usable CPUs: 1 forces the in-process
    loop, 2 the pool, whatever the machine has.  A pool that stops
    answering fails the test after 60 s instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError("run_suite did not return within 60 s")

    with monkeypatch.context() as patch:
        patch.setattr(suite, "_usable_cpus", lambda: cpus)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _identity(results):
    return [(r.number, r.title, r.passed, r.detail) for r in results]


def _report_pid(number):
    def criterion():
        return CriterionResult(number, "pid", True, str(os.getpid()))
    return criterion


def test_dispatch_order_covers_every_criterion():
    assert sorted(suite._LONGEST_FIRST) == sorted(suite.CRITERIA)


@needs_fork
@pytest.mark.parametrize("numbers", [None, [12, 3, 7, 1, 5]])
def test_pool_returns_the_in_process_results(monkeypatch, numbers):
    with _path(monkeypatch, 1):
        alone = run_suite(numbers)
    with _path(monkeypatch, 2):
        pooled = run_suite(numbers)
    assert _identity(pooled) == _identity(alone)
    assert [r.number for r in alone] == sorted(numbers or suite.CRITERIA)
    assert all(r.seconds > 0 for r in alone + pooled)
    assert multiprocessing.active_children() == []


@needs_fork
def test_pool_runs_criteria_in_other_processes(monkeypatch):
    for number in suite.CRITERIA:
        monkeypatch.setitem(suite.CRITERIA, number, _report_pid(number))
    with _path(monkeypatch, 2):
        pooled = run_suite()
    with _path(monkeypatch, 1):
        alone = run_suite()
    here = str(os.getpid())
    assert all(r.detail != here for r in pooled)
    assert all(r.detail == here for r in alone)
    assert multiprocessing.active_children() == []


@needs_fork
def test_pool_is_not_forked_beside_another_thread(monkeypatch):
    for number in (3, 7):
        monkeypatch.setitem(suite.CRITERIA, number, _report_pid(number))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        with _path(monkeypatch, 2):
            results = run_suite([3, 7])
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert [r.detail for r in results] == [str(os.getpid())] * 2


def _raising(exc):
    def criterion():
        raise exc
    return criterion


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("exc", [
    SemanticsError("criterion 5 broke"),
    RuntimeError("criterion 5 broke"),
    # its constructor takes (law, witness) rather than its message, so this
    # case checks an exception with extra constructor arguments
    TableNotTnorm("associativity", (1, 2, 3)),
], ids=lambda e: type(e).__name__)
def test_a_raising_criterion_raises_on_both_paths(monkeypatch, cpus, exc):
    monkeypatch.setitem(suite.CRITERIA, 5, _raising(exc))
    with _path(monkeypatch, cpus):
        with pytest.raises(type(exc)) as info:
            run_suite([1, 5, 11])
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_the_lowest_raising_criterion_wins(monkeypatch, cpus):
    # 9 is dispatched to the pool before 3
    monkeypatch.setitem(suite.CRITERIA, 3, _raising(RuntimeError("three")))
    monkeypatch.setitem(suite.CRITERIA, 9, _raising(SemanticsError("nine")))
    with _path(monkeypatch, cpus):
        with pytest.raises(RuntimeError, match="three"):
            run_suite([9, 3, 7])
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # raises only outside this process, so only the worker's own exception
    # can make run_suite raise
    here = os.getpid()

    def criterion():
        if os.getpid() == here:
            return CriterionResult(5, "here", True)
        raise FormulaSyntaxError("unexpected token", 3, ("VAR",))

    monkeypatch.setitem(suite.CRITERIA, 5, criterion)
    monkeypatch.setitem(suite.CRITERIA, 7, _report_pid(7))
    with _path(monkeypatch, 2):
        with pytest.raises(FormulaSyntaxError) as info:
            run_suite([5, 7])
    assert (info.value.offset, info.value.expected) == (3, ("VAR",))
    assert multiprocessing.active_children() == []
