"""The bundled reproduction suite, also exposed as `suite paper` on the CLI.

Every criterion is either an exhaustive finite check or an exact rational
computation; nothing here needs the network or files outside the package.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .chain import (LUKASIEWICZ, FiniteChain, builtin_chains,
                    law_violations, quotient_by_filter, upward_filter,
                    validate_mtl_laws)
from .formula import And, Const, Formula, Fuse, Imp, Not, Or, Var, parse
from .hilbert import parse_proof, soundness_bridge, verify_proof
from .operators import (ConsistencyOp, crisp_op, dual, enumerate_ops, max_op,
                        min_op, piecewise_op, validate_algebraic,
                        validate_bullet, validate_c)
from .proofs import FIXTURES, MUTANTS, fixture_chains, fixture_models
from .semantics import (ChainModel, Evaluation, bridge_check, check_dat_axiom,
                        check_lfi, check_propagation, classical_taut,
                        deduction_power_bound, evaluate, pdat_search,
                        truth_consequence)

__all__ = ["CriterionResult", "run_suite", "CRITERIA", "random_formula"]

_HALF = Fraction(1, 2)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str = ""
    # wall seconds the criterion took in the process that ran it; set by
    # run_suite, and not part of the result's identity
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        out = f"{tag}  criterion {self.number:2d}  {self.title}"
        if self.detail:
            out += f"  [{self.detail}]"
        return out


# ---------------------------------------------------------------------------
# Shared helpers

_DENOMS = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 60, 97, 120]

# Criterion 1 draws points i/den, den in _DENOMS and 0 <= i <= den.
# _GRID holds those 616 points unreduced, as pairs (i, den), grid by grid,
# and _GRID_VALUES holds the same points as Fractions; a sample is an index
# into both.  _GRID_ROWS holds (den + 1, (den + 1).bit_length(), offset of
# 0/den in _GRID) for each den, in the order of _DENOMS.
_GRID = tuple((i, den) for den in _DENOMS for i in range(den + 1))
_GRID_VALUES = tuple(Fraction(i, den) for i, den in _GRID)
_GRID_ROWS = tuple((den + 1, (den + 1).bit_length(), _GRID.index((0, den)))
                   for den in _DENOMS)


def _grid_indices(rng: random.Random, count: int) -> list:
    """count samples, as indices into _GRID: each is the point i/den of
    den = rng.choice(_DENOMS) followed by i = rng.randint(0, den).

    CPython draws a uniform integer below n for both calls with one
    rejection rule: k = n.bit_length() bits from rng.getrandbits, drawn
    again while the result is n or more.  This loop consumes getrandbits in
    exactly that way, so it returns the same samples and leaves rng in the
    same state as the two calls, at a fraction of their per-call cost.  The
    random module does not promise that rule across versions;
    tests/test_suite.py checks the two streams draw for draw.
    """
    bits, rows = rng.getrandbits, _GRID_ROWS
    n = len(rows)
    k = n.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        j = bits(k)
        while j >= n:
            j = bits(k)
        size, width, offset = rows[j]
        i = bits(width)
        while i >= size:
            i = bits(width)
        append(offset + i)
    return out


def random_formula(rng: random.Random, names, depth: int,
                   allow_const: bool = True) -> Formula:
    """Small random formula in the plain language, for randomized suites."""
    if depth <= 0 or rng.random() < 0.25:
        if allow_const and rng.random() < 0.15:
            return Const(rng.randint(0, 1))
        return Var(rng.choice(names))
    pick = rng.randrange(5)
    if pick == 0:
        return Not(random_formula(rng, names, depth - 1, allow_const))
    ctor = (And, Or, Imp, Fuse)[pick - 1]
    return ctor(random_formula(rng, names, depth - 1, allow_const),
                random_formula(rng, names, depth - 1, allow_const))


def _small_chains() -> dict:
    """Finite chains of size at most five, for the exhaustive criteria: the
    built-in and fixture chains of that size, and L4."""
    chains = fixture_chains()
    chains["L4"] = FiniteChain.from_family(LUKASIEWICZ, 4, name="L4")
    return {name: chains[name]
            for name in ("B2", "L3", "G3", "L4", "L5", "G5", "L3G3")}


def _example_standard_ops(chains) -> list:
    """(name, chain, operator) triples for the worked standard-chain setups."""
    lg, lp, ll = chains["LG"], chains["LP"], chains["LL"]
    out = []
    for name, chain in (("LG", lg), ("LP", lp), ("LL", ll)):
        out.append((name, chain, min_op(chain)))
        out.append((name, chain, max_op(chain)))
    out.append(("LP", lp, crisp_op(lp, Fraction(3, 4))))
    out.append(("LL", ll, piecewise_op(ll, [(_HALF, _HALF), (1, 1)], "linear")))
    out.append(("LG", lg, crisp_op(lg, _HALF)))
    return out


# ---------------------------------------------------------------------------
# Criteria

def criterion_1() -> CriterionResult:
    title = "algebra laws hold exhaustively (finite) and on 10^4 exact triples (standard)"
    chains = builtin_chains()
    for name in ("B2", "L3", "L5", "G3", "G5", "NM6", "W15"):
        bad = validate_mtl_laws(chains[name])
        if bad:
            return CriterionResult(1, title, False, f"{name}: {bad[0]}")
    rng = random.Random(101)
    for name in ("LG", "LP", "LL"):
        drawn = _grid_indices(rng, 30000)
        triples = zip(drawn[0::3], drawn[1::3], drawn[2::3])
        bad = law_violations(chains[name], _GRID, triples, _GRID_VALUES)
        if bad:
            return CriterionResult(1, title, False, f"{name}: {bad[0]}")
    return CriterionResult(1, title, True, "7 finite chains + 3x10^4 triples")


def criterion_2() -> CriterionResult:
    title = "pointwise and equational operator validation agree on all n^n maps (n <= 5)"
    total = 0
    for chain in _small_chains().values():
        for combo in itertools.product(range(chain.size), repeat=chain.size):
            op = ConsistencyOp(chain, "table", indices=combo)
            total += 1
            if validate_c(chain, op).valid != validate_algebraic(chain, op).valid:
                return CriterionResult(2, title, False,
                                       f"{chain.name}: disagreement at {op.values}")
    return CriterionResult(2, title, True, f"{total} candidate maps, 100% agreement")


def criterion_3() -> CriterionResult:
    title = "involutive chains admit exactly one operator"
    chains = _small_chains()
    counts = {name: len(enumerate_ops(chains[name])) for name in ("L3", "L5", "B2")}
    ok = all(c == 1 for c in counts.values())
    return CriterionResult(3, title, ok, f"counts {counts}")


def criterion_4() -> CriterionResult:
    title = "every valid operator sits between the minimal and maximal ones"
    for chain in _small_chains().values():
        lo, hi = min_op(chain), max_op(chain)
        for op in enumerate_ops(chain):
            for x in chain.elements:
                if not (lo.value(x) <= op.value(x) <= hi.value(x)):
                    return CriterionResult(4, title, False,
                                           f"{chain.name} at {x}")
    return CriterionResult(4, title, True, "0 violations")


def criterion_5() -> CriterionResult:
    title = "propagation: /\\ and -> always; & for min/max; & fails on LP crisp 3/4"
    for chain in _small_chains().values():
        for op in enumerate_ops(chain):
            model = ChainModel(chain.name, chain, op)
            for token in ("/\\", "->"):
                if check_propagation(model, token).holds is not True:
                    return CriterionResult(5, title, False,
                                           f"{token} fails on {chain.name}")
        for op in (min_op(chain), max_op(chain)):
            model = ChainModel(chain.name, chain, op)
            if check_propagation(model, "&").holds is not True:
                return CriterionResult(5, title, False,
                                       f"& fails for {op.name} on {chain.name}")
    chains = builtin_chains()
    for name, chain, op in _example_standard_ops(chains):
        model = ChainModel(name, chain, op)
        for token in ("->", "&") if op.kind in ("min", "max") else ("->",):
            res = check_propagation(model, token)
            if res.holds is not True:
                at = (" fails at (" + ", ".join(map(str, res.pair)) + ")"
                      if res.holds is False else ": not certified")
                return CriterionResult(5, title, False,
                                       f"{token} for {op.name} on {name}{at}")
    lp = chains["LP"]
    model = ChainModel("LP", lp, crisp_op(lp, Fraction(3, 4)))
    res = check_propagation(model, "&")
    if res.holds is not False:
        return CriterionResult(5, title, False, "no counterpair found on LP")
    x, y = Fraction(5, 6), Fraction(3, 4)
    op = model.consistency
    value = lp.residuum(min(op.value(x), op.value(y)), op.value(lp.tnorm(x, y)))
    if value != 0:
        return CriterionResult(5, title, False,
                               f"pair (5/6, 3/4) evaluates to {value}, not 0")
    pair_text = ", ".join(str(v) for v in res.pair)
    return CriterionResult(5, title, True,
                           f"counterpair ({pair_text}) certified; (5/6, 3/4) value 0")


def criterion_6() -> CriterionResult:
    title = "LL with the identity operator: excluded-middle bound and powered failures"
    chains = builtin_chains()
    ll = chains["LL"]
    op = piecewise_op(ll, [(_HALF, _HALF), (1, 1)], "linear")
    model = ChainModel("LL", ll, op)
    if not check_dat_axiom(model).holds:
        return CriterionResult(6, title, False, "the pointwise bound fails")
    em = parse("O p -> (p \\/ ~p)")
    res1 = truth_consequence([model], [], em, 60)
    if res1.verdict == "fails":
        return CriterionResult(6, title, False,
                               f"k=1 form refuted at {res1.assignment}")
    em2 = parse("O p -> (p \\/ ~p) & (p \\/ ~p)")
    res2 = truth_consequence([model], [], em2, 60)
    if res2.verdict != "fails":
        return CriterionResult(6, title, False, "squared form not refuted")
    pinned = evaluate(Evaluation(ll, {"p": Fraction(3, 5)}, op), em2)
    if pinned != Fraction(9, 10):
        return CriterionResult(6, title, False,
                               f"value at p=3/5 is {pinned}, not 9/10")
    k1 = pdat_search(model, parse("p \\/ ~p"), 8, 60)
    k2 = pdat_search(model, parse("(p \\/ ~p) & (p \\/ ~p)"), 8, 60)
    if k1.k != 1 or k2.k != 2:
        return CriterionResult(6, title, False, f"k values {k1.k}, {k2.k}")
    return CriterionResult(6, title, True,
                           "bound holds; p=3/5 gives exactly 9/10; k=1 and k=2")


def criterion_7() -> CriterionResult:
    title = "classical recapture on B2: tautologies at k=1, non-tautology never"
    chains = builtin_chains()
    b2 = chains["B2"]
    model = ChainModel("B2", b2, min_op(b2))
    tautologies = [
        "p \\/ ~p",
        "(p -> q) \\/ (q -> p)",
        "((p -> q) -> p) -> p",
        "~(p /\\ ~p) \\/ (p \\/ ~p)",
        "p -> (q -> p)",
    ]
    for text in tautologies:
        phi = parse(text)
        if not classical_taut(phi):
            return CriterionResult(7, title, False, f"{text} not a tautology")
        res = pdat_search(model, phi, 8)
        if res.k != 1:
            return CriterionResult(7, title, False, f"{text}: k={res.k}")
    phi = parse("p -> q")
    if classical_taut(phi):
        return CriterionResult(7, title, False, "p -> q misclassified")
    res = pdat_search(model, phi, 8)
    if res.k is not None or res.reason != "refuted":
        return CriterionResult(7, title, False, f"p -> q: k={res.k}")
    return CriterionResult(7, title, True, "5 tautologies at k=1; p -> q refuted for all k <= 8")


def criterion_8() -> CriterionResult:
    title = "W15 collapses through the filter [12/15, 1] onto a chain with a new zero-negation element"
    chains = builtin_chains()
    w15 = chains["W15"]
    if not w15.n_set().empty:
        return CriterionResult(8, title, False, "W15 already has zero-negation elements")
    quotient, projection = quotient_by_filter(w15, upward_filter(w15, Fraction(12, 15)))
    bad = validate_mtl_laws(quotient)
    if bad:
        return CriterionResult(8, title, False, f"quotient violates {bad[0]}")
    witnesses = [z for z in quotient.elements
                 if z != 1 and quotient.negation(z) == 0]
    if not witnesses:
        return CriterionResult(8, title, False, "no zero-negation element below 1")
    return CriterionResult(8, title, True,
                           f"quotient size {quotient.size}, witness z={witnesses[0]}")


def criterion_9() -> CriterionResult:
    title = "formal-inconsistency clauses pass on the worked models; clause (i) fails on G3"
    chains = builtin_chains()
    l3 = chains["L3"]
    # the unique operator on L3 is the minimal one
    setups = [
        ("L3", ChainModel("L3", l3, min_op(l3))),
        ("LG", ChainModel("LG", chains["LG"], max_op(chains["LG"]))),
        ("LP", ChainModel("LP", chains["LP"], crisp_op(chains["LP"], Fraction(3, 4)))),
    ]
    for name, model in setups:
        report = check_lfi(model)
        if report.is_lfi is not True:
            bad = {k: c.passed for k, c in report.clauses.items()}
            return CriterionResult(9, title, False, f"{name}: {bad}")
    g3 = chains["G3"]
    report = check_lfi(ChainModel("G3", g3, min_op(g3)))
    if report.clauses["i"].passed is not False:
        return CriterionResult(9, title, False, "clause (i) did not fail on G3")
    return CriterionResult(9, title, True, "all clauses pass on L3/LG/LP; (i) fails on G3")


def criterion_10() -> CriterionResult:
    title = "the dual of every valid operator passes the inconsistency postulates"
    total = 0
    for chain in _small_chains().values():
        for op in enumerate_ops(chain):
            total += 1
            if not validate_bullet(chain, dual(op)).valid:
                return CriterionResult(10, title, False,
                                       f"failure on {chain.name}")
    return CriterionResult(10, title, True, f"{total} duals, 0 failures")


def criterion_11() -> CriterionResult:
    title = "degree/truth bridge on 10^3 random queries; bounded deduction on 10^2"
    chains = builtin_chains()
    pool = [chains[n] for n in ("L3", "G3", "L5", "NM6")]
    rng = random.Random(303)
    names = ["p", "q", "r"]
    for _ in range(1000):
        chain = rng.choice(pool)
        model = ChainModel(chain.name, chain)
        premises = [random_formula(rng, names, rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
        goal = random_formula(rng, names, rng.randint(1, 3))
        if not bridge_check(model, premises, goal):
            return CriterionResult(11, title, False,
                                   f"bridge disagrees on {chain.name}")
    rng = random.Random(404)
    pool = [chains[n] for n in ("L3", "L5", "G3")]
    for _ in range(100):
        chain = rng.choice(pool)
        model = ChainModel(chain.name, chain)
        sigma = [random_formula(rng, names, 2)
                 for _ in range(rng.randint(0, 2))]
        phi = random_formula(rng, names, 2)
        psi = random_formula(rng, names, 2)
        direct = truth_consequence([model], sigma + [phi], psi).verdict == "holds"
        bound = deduction_power_bound(model, sigma, phi, psi)
        if direct != (bound is not None):
            return CriterionResult(11, title, False,
                                   f"deduction bound disagrees on {chain.name}")
    return CriterionResult(11, title, True, "0 disagreements")


def criterion_12() -> CriterionResult:
    title = "proof fixtures verify, confirm semantically, and mutants are rejected"
    chains = fixture_chains()
    if len(FIXTURES) < 20:
        return CriterionResult(12, title, False, f"only {len(FIXTURES)} fixtures")
    for name, spec in FIXTURES.items():
        result = verify_proof(parse_proof(spec["text"]))
        if not result.ok:
            return CriterionResult(12, title, False,
                                   f"{name}: line {result.line}: {result.reason}")
        report = soundness_bridge(result, fixture_models(name, chains))
        if not report.ok:
            return CriterionResult(12, title, False, f"{name}: {report.detail}")
    for mutant in MUTANTS:
        result = verify_proof(parse_proof(mutant["text"]))
        if result.ok or result.line != mutant["expected_line"]:
            got = "ok" if result.ok else f"line {result.line}"
            return CriterionResult(12, title, False,
                                   f"{mutant['name']}: expected rejection at "
                                   f"line {mutant['expected_line']}, got {got}")
    return CriterionResult(12, title, True,
                           f"{len(FIXTURES)} fixtures verified and confirmed; "
                           f"{len(MUTANTS)} mutants rejected")


# each criterion by the number in its function's name
CRITERIA = {n: globals()[f"criterion_{n}"] for n in range(1, 13)}


# The order in which the worker pool is handed the criteria: longest first,
# so the short ones fill in behind the long ones and the workers finish close
# together.  Pinned to one CPU of a shared 2 vCPU machine, criterion 1 takes
# about 0.20 s, 11 0.17 s, 5 0.13 s, 12 and 2 0.07 s each, 9 0.02 s and the
# rest less; at times the machine runs all of them about 40% faster.
_LONGEST_FIRST = (1, 11, 5, 12, 2, 9, 6, 7, 4, 8, 10, 3)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(number: int) -> CriterionResult:
    """Run one criterion and record the seconds it took."""
    start = time.perf_counter()
    result = CRITERIA[number]()
    result.seconds = time.perf_counter() - start
    return result


def run_suite(numbers=None) -> list:
    """Run the selected criteria (all by default) and return their results,
    ordered by number.

    The criteria share no state, so with more than one usable CPU they run
    in a pool of min(CPUs, criteria) worker processes.  The pool forks, so
    the workers start with every module already imported; it is used only
    where fork exists and no other thread is running, since a forked child
    gets a copy of locks that another thread may hold.  Otherwise, or with
    one usable CPU, the criteria run one after another in this process.
    Either way each result is the criterion's own and the list comes back
    in the same order, so the output does not depend on the scheduling.  A
    criterion that raises makes run_suite raise the same exception; with
    several, the one of the lowest number.
    """
    selected = sorted(CRITERIA) if numbers is None else sorted(numbers)
    workers = min(_usable_cpus(), len(selected))
    if workers > 1:
        import multiprocessing
        import threading
        if (threading.active_count() == 1
                and "fork" in multiprocessing.get_all_start_methods()):
            return _run_pooled(multiprocessing.get_context("fork"),
                               selected, workers)
    return [_timed(n) for n in selected]


def _run_pooled(context, selected: list, workers: int) -> list:
    rank = {n: k for k, n in enumerate(_LONGEST_FIRST)}
    dispatch = sorted(range(len(selected)),
                      key=lambda k: rank.get(selected[k], len(rank)))
    results, raised = [], []
    with context.Pool(workers) as pool:
        pending = {k: pool.apply_async(_timed, (selected[k],))
                   for k in dispatch}
        # get() raises a worker's exception.  Every result is collected and
        # the pool closed and joined before one is raised: leaving the block
        # on an exception terminates the pool, which can hang while its task
        # thread is still handing out work.  Reading in criterion order
        # makes the lowest raising number win, as in the in-process loop.
        for k in range(len(selected)):
            try:
                results.append(pending[k].get())
            except Exception as exc:
                raised.append(exc)
        pool.close()
        pool.join()
    if raised:
        raise raised[0]
    return results
