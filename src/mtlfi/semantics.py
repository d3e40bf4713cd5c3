"""Evaluation and consequence checking over chains with attached operators.

Two consequence relations are decided by countermodel search: the
truth-preserving one (premises at value 1 force the conclusion to 1) and the
degree-preserving one (every lower bound of the premise values bounds the
conclusion).  On a chain the degree condition collapses to comparing the
conclusion against the minimum of the premise values, which is what the
search uses.

Every search runs one loop, finite_scan, over index tuples: into a finite
chain's elements, or into a standard chain's sorted rational grid points.
It is also the one place that builds the full product of those indices,
when it is given no tuples; the Hilbert checks and classical_taut call it
so.  The formulas are compiled once (compile_finite, compile_standard), a
constant to a closure as any other node, with no folding, and an unbound O
or # raises before any tuple is checked.  The tuples are every combination
up to the variable cap of the chain's kind (FINITE_VAR_CAP or
STANDARD_VAR_CAP), and above the cap SAMPLING_BUDGET draws from one seeded
sampler.
Finite exhaustive verdicts are exact.  A countermodel is always a certified
failure (all arithmetic is exact); any other clean scan is unknown, except
a standard-chain query without variables, which holds.  The pointwise
operator laws (propagation, the excluded-middle bound, and gentle explosion,
clause (iv) of check_lfi) are degree-mode queries on the same scan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from . import InputError
from .chain import GODEL, FiniteChain, rat
from .formula import (MAX_DEPTH, And, Bullet, Circ, Const, Delta, Formula,
                      Fuse, Iff, Imp, Not, Or, Var, ONE, ZERO, depth,
                      power, variables)
from .operators import (ConsistencyOp, HostMismatch, InconsistencyOp,
                        validate_c)

__all__ = [
    "SemanticsError", "UnboundVariable", "OperatorNotBound",
    "TooManyVariables", "DatAxiomFails", "NotClassical", "BadPowerBound",
    "ChainModel", "Evaluation", "evaluate", "finite_scan", "ConsequenceResult",
    "truth_consequence", "degree_consequence",
    "LfiReport", "check_lfi", "PropagationResult", "check_propagation",
    "DatResult", "check_dat_axiom", "PdatResult", "pdat_search",
    "classical_taut", "bridge_check", "deduction_power_bound",
    "CONNECTIVE_TOKENS",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

FINITE_VAR_CAP = 6
STANDARD_VAR_CAP = 4
SAMPLING_BUDGET = 20000


class SemanticsError(InputError):
    pass


class UnboundVariable(SemanticsError):
    pass


class OperatorNotBound(SemanticsError):
    pass


class TooManyVariables(SemanticsError):
    pass


class DatAxiomFails(SemanticsError):
    pass


class NotClassical(SemanticsError, ValueError):
    """A goal outside the classical fragment."""


class BadPowerBound(SemanticsError):
    """A power search asked to stop below k = 1."""


@dataclass
class ChainModel:
    """A chain together with optional consistency/inconsistency bindings."""

    name: str
    chain: object
    consistency: Optional[ConsistencyOp] = None
    inconsistency: Optional[InconsistencyOp] = None

    def __post_init__(self):
        if self.consistency is not None and self.consistency.chain is not self.chain:
            raise HostMismatch("consistency operator lives on a different chain")
        if self.inconsistency is not None and self.inconsistency.chain is not self.chain:
            raise HostMismatch("inconsistency operator lives on a different chain")


@dataclass
class Evaluation:
    """A variable assignment over a chain, with operator bindings."""

    chain: object
    assignment: dict
    consistency: Optional[ConsistencyOp] = None
    inconsistency: Optional[InconsistencyOp] = None


def _operator(ev, t):
    """The operator that ev (an Evaluation or a ChainModel) binds for the
    node type t, Circ (O) or Bullet (#)."""
    op = ev.consistency if t is Circ else ev.inconsistency
    if op is None:
        sym = "O" if t is Circ else "#"
        raise OperatorNotBound(f"the formula uses {sym} but no operator is bound")
    return op


def evaluate(ev: Evaluation, f: Formula) -> Fraction:
    """Homomorphic extension of the assignment; exact rational output."""
    chain = ev.chain
    if isinstance(f, Var):
        try:
            return rat(ev.assignment[f.name])
        except KeyError:
            raise UnboundVariable(f.name) from None
    if isinstance(f, Const):
        return _ONE if f.value else _ZERO
    if isinstance(f, Not):
        return chain.negation(evaluate(ev, f.arg))
    if isinstance(f, (Circ, Bullet)):
        return _operator(ev, type(f)).value(evaluate(ev, f.arg))
    if isinstance(f, Delta):
        return chain.delta(evaluate(ev, f.arg))
    if isinstance(f, And):
        return min(evaluate(ev, f.left), evaluate(ev, f.right))
    if isinstance(f, Or):
        return max(evaluate(ev, f.left), evaluate(ev, f.right))
    if isinstance(f, Fuse):
        return chain.tnorm(evaluate(ev, f.left), evaluate(ev, f.right))
    if isinstance(f, Imp):
        return chain.residuum(evaluate(ev, f.left), evaluate(ev, f.right))
    if isinstance(f, Iff):
        a, b = evaluate(ev, f.left), evaluate(ev, f.right)
        return min(chain.residuum(a, b), chain.residuum(b, a))
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation over index tuples (for the search loop)

# the binary connectives; one on two Vars is a pair
_PAIRS = frozenset((And, Or, Fuse, Imp, Iff))


def compile_finite(model: ChainModel, f: Formula, var_order: Sequence[str]):
    """Compile a formula into a closure mapping an index tuple to an index.

    Every connective is one lookup in an index table of the chain, or in
    the element-index table (indices) of the bound O or # operator, and a
    constant is a closure like any other node: no subformula is folded.  A
    parent reads a Var child inline as env[k] instead of calling a closure
    for it.  A binary parent also reads a pair child, a binary connective on
    two Vars, inline as T[env[i]][env[j]] when its other child is a Var or
    a pair too, so that (p & q) -> (r & s) is one closure with three
    lookups; no deeper subformula is read inline.  An unbound O or # raises
    OperatorNotBound here, also inside a constant subformula.
    """
    chain: FiniteChain = model.chain
    tables = {And: chain._meet_i, Or: chain._join_i, Fuse: chain._tnorm_i,
              Imp: chain._res_i, Iff: chain._iff_i,
              Not: chain._neg_i, Delta: chain._delta_i}
    pos = {name: i for i, name in enumerate(var_order)}
    return _finite_node(model, tables, pos, f)


def _finite_node(model, tables, pos, node):
    """The closure from env to node's index.

    A module-level function, so that a compiled formula holds no reference
    cycle, and one call per level of the formula: a Var child is read
    inline and never compiled on its own, and so is a pair child of a
    binary node whose other child is a Var or a pair (_pair_node).  Each
    child is classified by type checks in line, not by a call.
    """
    t = type(node)
    if t is Var:
        k = pos[node.name]
        return lambda env: env[k]
    if t is Const:
        v = model.chain.size - 1 if node.value else 0
        return lambda env: v
    tab = tables.get(t)
    if tab is None:
        if t is not Circ and t is not Bullet:
            raise TypeError(f"not a formula node: {node!r}")
        tab = tables[t] = _operator(model, t).indices
    if t is Not or t is Delta or t is Circ or t is Bullet:
        if type(node.arg) is Var:
            k = pos[node.arg.name]
            return lambda env: tab[env[k]]
        g = _finite_node(model, tables, pos, node.arg)
        return lambda env: tab[g(env)]
    left, right = node.left, node.right
    tl, tr = type(left), type(right)
    lpair = tl in _PAIRS and type(left.left) is Var and type(left.right) is Var
    rpair = tr in _PAIRS and type(right.left) is Var and type(right.right) is Var
    if (lpair or rpair) and (lpair or tl is Var) and (rpair or tr is Var):
        return _pair_node(tab, tables, pos, left, right, lpair, rpair)
    a = pos[left.name] if tl is Var else None
    b = pos[right.name] if tr is Var else None
    l = _finite_node(model, tables, pos, left) if a is None else None
    r = _finite_node(model, tables, pos, right) if b is None else None
    if a is None:
        if b is None:
            return lambda env: tab[l(env)][r(env)]
        return lambda env: tab[l(env)][env[b]]
    if b is None:
        return lambda env: tab[env[a]][r(env)]
    return lambda env: tab[env[a]][env[b]]


def _pair_node(tab, tables, pos, left, right, lpair, rpair):
    """The closure of a binary node with table tab whose sides are each a
    Var or a pair, and at least one a pair: a pair is read as
    T[env[i]][env[j]], a Var as env[k].  A function apart from _finite_node,
    so that the cells these closures need cost nothing where no pair is."""
    if lpair:
        lt, i, j = tables[type(left)], pos[left.left.name], pos[left.right.name]
    if rpair:
        rt, m, n = tables[type(right)], pos[right.left.name], pos[right.right.name]
    if lpair and rpair:
        return lambda env: tab[lt[env[i]][env[j]]][rt[env[m]][env[n]]]
    if lpair:
        b = pos[right.name]
        return lambda env: tab[lt[env[i]][env[j]]][env[b]]
    a = pos[left.name]
    return lambda env: tab[env[a]][rt[env[m]][env[n]]]


def compile_standard(model: ChainModel, f: Formula, var_order: Sequence[str],
                     points: Sequence[Fraction]):
    """Compile a formula on a standard chain into a closure mapping an index
    tuple to the formula's exact value.

    A Var, or a unary connective on a Var, reads its table over points; any
    other connective applies the chain's exact arithmetic (min, max, or the
    bound O or #) to its children's values as evaluate does, and a /\\ or &
    is 0 where its left side is.  An unbound O or # raises OperatorNotBound.
    """
    chain = model.chain
    res = chain.residuum
    ops = {And: min, Or: max, Fuse: chain.tnorm, Imp: res,
           Iff: lambda x, y: min(res(x, y), res(y, x)),
           Not: chain.negation, Delta: chain.delta}
    pos = {name: i for i, name in enumerate(var_order)}
    return _standard_node(model, ops, pos, {Var: points}, f)


def _standard_node(model, ops, pos, tabs, node):
    """The closure from env to node's value (module level, as _finite_node)."""
    t = type(node)
    if t is Var:
        k, points = pos[node.name], tabs[Var]
        return lambda env: points[env[k]]
    if t is Const:
        v = _ONE if node.value else _ZERO
        return lambda env: v
    op = ops.get(t)
    if op is None:
        if t is not Circ and t is not Bullet:
            raise TypeError(f"not a formula node: {node!r}")
        op = ops[t] = _operator(model, t).value
    if t is Not or t is Delta or t is Circ or t is Bullet:
        if type(node.arg) is Var:
            k, tab = pos[node.arg.name], tabs.get(t)
            if tab is None:
                tab = tabs[t] = tuple([op(x) for x in tabs[Var]])
            return lambda env: tab[env[k]]
        g = _standard_node(model, ops, pos, tabs, node.arg)
        return lambda env: op(g(env))
    l = _standard_node(model, ops, pos, tabs, node.left)
    r = _standard_node(model, ops, pos, tabs, node.right)
    if t is And or t is Fuse:  # 0 /\ y = 0 & y = 0: y is not evaluated
        return lambda env: (x := l(env)) and op(x, r(env))
    return lambda env: op(l(env), r(env))


# ---------------------------------------------------------------------------
# Consequence search

@dataclass
class ConsequenceResult:
    verdict: str                      # holds | fails | unknown
    mode: str                         # truth | degree
    chain_name: Optional[str] = None
    assignment: Optional[dict] = None
    witness: Optional[Fraction] = None
    grid_denominator: Optional[int] = None
    checked: int = 0

    def records(self) -> list:
        out = [f"verdict={self.verdict}", f"mode={self.mode}"]
        if self.chain_name:
            out.append(f"chain={self.chain_name}")
        if self.assignment is not None:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(self.assignment.items()))
            out.append(f"assignment={pairs}")
        if self.witness is not None:
            out.append(f"witness_a={self.witness}")
        if self.grid_denominator is not None:
            out.append(f"grid_denominator={self.grid_denominator}")
        out.append(f"checked_count={self.checked}")
        return out


def finite_scan(model: ChainModel, premises, conclusion, mode: str,
                vars_: Sequence[str], envs=None, points=None):
    """Walk the index tuples envs (positions as in vars_) in order and stop
    at the first countermodel; the one loop of every countermodel search.

    An index names an element of a finite chain (compile_finite) or one of
    points on a standard chain (compile_standard); envs defaults to every
    tuple of those indices, in itertools.product order.  Returns (env,
    checked, witness): the first failing tuple or None, the number of tuples
    looked at, and in degree mode the least premise value at env, as an
    element index or a value (else None).  Every formula is compiled first, so an
    unbound O or # raises whatever envs holds.  The premises are compiled
    as one lattice conjunction, their least value: truth mode tests it
    against the top, degree mode (above the bottom) against the conclusion.
    """
    if model.chain.is_finite:
        top, compile_, extra = model.chain.size - 1, compile_finite, ()
    else:
        top, compile_, extra = _ONE, compile_standard, (points,)
    prem = (compile_(model, reduce(And, premises), vars_, *extra)
            if premises else None)
    concl_fn = compile_(model, conclusion, vars_, *extra)
    if envs is None:
        n = model.chain.size if points is None else len(points)
        envs = itertools.product(range(n), repeat=len(vars_))
    checked = 0
    if prem is None:
        # both modes fail exactly where the conclusion is below the top,
        # and the empty minimum is the top
        witness = top if mode == "degree" else None
        for checked, env in enumerate(envs, 1):
            if concl_fn(env) != top:
                return env, checked, witness
    elif mode == "truth":
        for checked, env in enumerate(envs, 1):
            if prem(env) == top and concl_fn(env) != top:
                return env, checked, None
    else:
        for checked, env in enumerate(envs, 1):
            a = prem(env)
            if a and a > concl_fn(env):  # a is 0 at the bottom
                return env, checked, a
    return None, checked, None


def _points(chain, ops, grid_denominator: int):
    """The values a pointwise scan visits: a finite chain's elements, or a
    standard chain's grid points joined with the critical points of the
    bound operators among ops."""
    if chain.is_finite:
        return chain.elements
    extra = [x for op in ops if op is not None for x in op.critical_points()]
    return chain.sample_points(grid_denominator, extra=extra)


def _search_vars(premises, conclusion) -> list:
    return sorted(variables(conclusion, *premises))


def _scan_result(model: ChainModel, premises, conclusion, mode: str, vars_,
                 points, envs, clean: str, grid_denominator) -> ConsequenceResult:
    """finite_scan over envs as a ConsequenceResult: verdict clean when no
    tuple fails, else the countermodel with its values read from points."""
    env, checked, witness = finite_scan(model, premises, conclusion, mode,
                                        vars_, envs, points)
    if env is None:
        return ConsequenceResult(clean, mode, model.name,
                                 grid_denominator=grid_denominator,
                                 checked=checked)
    if witness is not None and model.chain.is_finite:
        witness = points[witness]
    return ConsequenceResult("fails", mode, model.name,
                             {v: points[i] for v, i in zip(vars_, env)},
                             witness, grid_denominator, checked)


def _var_cap(chain) -> int:
    """The most variables a search on chain's kind scans exhaustively."""
    return FINITE_VAR_CAP if chain.is_finite else STANDARD_VAR_CAP


def _product_search(model: ChainModel, premises, conclusion, mode: str,
                    points, grid_denominator):
    """Every tuple of points up to the chain kind's variable cap,
    _sampled_search above it.  A clean scan holds on a finite chain or
    without variables, and is unknown on a standard chain's grid otherwise."""
    vars_ = _search_vars(premises, conclusion)
    if len(vars_) > _var_cap(model.chain):
        return _sampled_search(model, premises, conclusion, mode, points,
                               grid_denominator)
    clean = "holds" if model.chain.is_finite or not vars_ else "unknown"
    return _scan_result(model, premises, conclusion, mode, vars_, points,
                        None, clean, grid_denominator)


def _finite_search(model: ChainModel, premises, conclusion, mode: str):
    return _product_search(model, premises, conclusion, mode,
                           model.chain.elements, None)


def _standard_search(model: ChainModel, premises, conclusion, mode: str,
                     grid_denominator: int):
    points = _points(model.chain, (model.consistency, model.inconsistency),
                     grid_denominator)
    return _product_search(model, premises, conclusion, mode, points,
                           grid_denominator)


def _sampled_search(model: ChainModel, premises, conclusion, mode: str,
                    points, grid_denominator):
    """The fallback above the variable caps: SAMPLING_BUDGET index tuples
    into points drawn from Random(0), each variable (in sorted order) by
    randrange(len(points)), which draws as choice(points) does.  A clean
    run is unknown."""
    vars_ = _search_vars(premises, conclusion)
    n, k = len(points), len(vars_)
    draw = random.Random(0).randrange
    envs = (tuple(map(draw, itertools.repeat(n, k)))
            for _ in range(SAMPLING_BUDGET))
    return _scan_result(model, premises, conclusion, mode, vars_, points,
                        envs, "unknown", grid_denominator)


def _consequence(models, premises, conclusion, mode: str, grid_denominator: int):
    models = [models] if isinstance(models, ChainModel) else list(models)
    if not models:
        raise SemanticsError("consequence needs at least one model to check")
    premises = list(premises)
    # the first failure, else the last unknown, else the last result
    out, total = None, 0
    for model in models:
        if model.chain.is_finite:
            res = _finite_search(model, premises, conclusion, mode)
        else:
            res = _standard_search(model, premises, conclusion, mode,
                                   grid_denominator)
        total += res.checked
        if out is None or out.verdict == "holds" or res.verdict != "holds":
            out = res
        if res.verdict == "fails":
            break
    out.checked = total
    return out


def truth_consequence(models, premises: Iterable[Formula], conclusion: Formula,
                      grid_denominator: int = 60) -> ConsequenceResult:
    """Does every evaluation sending all premises to 1 send the conclusion
    to 1, on every supplied chain?"""
    return _consequence(models, premises, conclusion, "truth", grid_denominator)


def degree_consequence(models, premises: Iterable[Formula], conclusion: Formula,
                       grid_denominator: int = 60) -> ConsequenceResult:
    """Does every common lower bound of the premise values bound the
    conclusion value?  Decided through the minimum of the premise values."""
    return _consequence(models, premises, conclusion, "degree", grid_denominator)


# ---------------------------------------------------------------------------
# Formal-inconsistency report

@dataclass
class LfiClause:
    passed: Optional[bool]            # None when the grid search was inconclusive
    assignment: Optional[dict] = None
    witness: Optional[Fraction] = None


@dataclass
class LfiReport:
    clauses: dict = field(default_factory=dict)

    @property
    def is_lfi(self) -> Optional[bool]:
        vals = [c.passed for c in self.clauses.values()]
        if any(v is False for v in vals):
            return False
        if any(v is None for v in vals):
            return None
        return True


def check_lfi(model: ChainModel, grid_denominator: int = 60) -> LfiReport:
    """The four defining clauses, decided over the degree-preserving relation.

    The first three ask for non-derivations and pass when a countermodel
    with a fresh goal variable exists; the fourth (gentle explosion) is the
    law O p, p, ~p |=_<= 0, scanned over the operator's points.
    """
    p, q = Var("p"), Var("q")
    op = _operator(model, Circ)
    report = LfiReport()
    groups = {
        "i": [p, Not(p)],
        "ii": [Circ(p), p],
        "iii": [Circ(p), Not(p)],
    }
    for key, premises in groups.items():
        res = degree_consequence([model], premises, q, grid_denominator)
        # a countermodel passes the clause; only unknown leaves it open
        passed = {"fails": True, "holds": False}.get(res.verdict)
        report.clauses[key] = LfiClause(passed, res.assignment, res.witness)
    chain = model.chain
    res = _product_search(model, [Circ(p), p, Not(p)], ZERO, "degree",
                          _points(chain, (op,), grid_denominator), None)
    passed = res.verdict != "fails"
    if res.verdict == "unknown" and not validate_c(chain, op).valid:
        passed = None  # a clean grid proves the law only for a valid operator
    at = res.assignment
    report.clauses["iv"] = LfiClause(passed, witness=at and at["p"])
    return report


# ---------------------------------------------------------------------------
# Propagation

CONNECTIVE_TOKENS = ("/\\", "&", "->", "~", "0")


@dataclass
class PropagationResult:
    holds: Optional[bool]
    pair: Optional[tuple] = None
    value: Optional[Fraction] = None  # value of the implication at the pair
    checked: int = 0


def check_propagation(model: ChainModel, connective: str,
                      grid_denominator: int = 60) -> PropagationResult:
    """Does min(O(x), O(y)) <= O(x # y) hold for the chosen connective?

    Decided as O p, O q |=_<= O(p # q), or O p |=_<= O ~p for ~, over the
    operator's points; 0 checks O(0) = 1.  Finite chains are exhaustive.  A
    clean scan of a standard chain's grid upgrades to a definite yes only
    where the structural argument applies (the lattice conjunction always,
    the implication and negation for validated operators, the strong
    conjunction for the min and max kinds).
    """
    op = _operator(model, Circ)
    chain = model.chain
    if connective not in CONNECTIVE_TOKENS:
        raise ValueError(f"connective must be one of {CONNECTIVE_TOKENS}")
    if connective == "0":
        ok = op.value(_ZERO) == _ONE
        return PropagationResult(ok, None if ok else (_ZERO,), checked=1)
    p, q = Var("p"), Var("q")
    if connective == "~":
        premises, law = [Circ(p)], Circ(Not(p))
    else:
        node = {"/\\": And, "&": Fuse, "->": Imp}[connective]
        premises, law = [Circ(p), Circ(q)], Circ(node(p, q))
    res = _product_search(model, premises, law, "degree",
                          _points(chain, (op,), grid_denominator), None)
    if res.verdict == "fails":
        at = res.assignment
        rhs = evaluate(Evaluation(chain, at, op), law)
        return PropagationResult(False, tuple(at[v] for v in sorted(at)),
                                 chain.residuum(res.witness, rhs), res.checked)
    if chain.is_finite or connective == "/\\":
        holds = True
    elif connective in ("->", "~"):
        holds = validate_c(chain, op).valid or None
    else:
        holds = (op.kind in ("min", "max")
                 or _is_effectively_max(chain, op) or None)
    return PropagationResult(holds, checked=res.checked)


def _is_effectively_max(chain, op: ConsistencyOp) -> bool:
    """A crisp operator switching on at the start of the zero-negation
    region coincides with the maximal one."""
    if op.kind != "crisp":
        return False
    nset = chain.n_set()
    if nset.empty:
        return op.threshold == _ONE and op.closed
    a = nset.infimum()
    if nset.closed:
        return op.closed and op.threshold == a
    return (not op.closed and op.threshold == a) or (op.closed and op.threshold <= a)


# ---------------------------------------------------------------------------
# Excluded-middle bound and classical recapture

@dataclass
class DatResult:
    holds: bool
    witness: Optional[Fraction] = None
    checked: int = 0


def check_dat_axiom(model: ChainModel, grid_denominator: int = 60) -> DatResult:
    """O p |=_<= p \\/ ~p, the pointwise bound O(x) <= x \\/ ~x."""
    op = _operator(model, Circ)
    chain = model.chain
    if chain.is_finite:
        points = chain.elements
    else:
        # Breakpoints and midpoints pin down piecewise-linear segments; the
        # comparison against the identity is linear on each one.
        extra = op.critical_points()
        if op.threshold is not None:
            extra.append((op.threshold + 1) / 2)
        bps = [x for x, _ in op.breakpoints]
        extra.extend((a + b) / 2 for a, b in zip(bps, bps[1:]))
        nset = chain.n_set()
        if not nset.empty:
            extra += [nset.infimum(), (nset.infimum() + 1) / 2]
        points = chain.sample_points(grid_denominator, extra=extra)
    p = Var("p")
    res = _product_search(model, [Circ(p)], Or(p, Not(p)), "degree", points,
                          None)
    at = res.assignment
    return DatResult(at is None, at and at["p"], res.checked)


def _classical_language(f: Formula) -> bool:
    if isinstance(f, (Var, Const)):
        return True
    if isinstance(f, Not):
        return _classical_language(f.arg)
    if isinstance(f, (And, Or, Imp, Fuse, Iff)):
        return _classical_language(f.left) and _classical_language(f.right)
    return False


@dataclass
class PdatResult:
    k: Optional[int]
    certainty: Optional[str] = None   # exhaustive | grid | sampled
    refuted: tuple = ()
    reason: Optional[str] = None      # refuted | budget
    checked: int = 0


def pdat_search(model: ChainModel, phi: Formula, k_max: int = 8,
                grid_denominator: int = 60) -> PdatResult:
    """Smallest k with (the conjunction of O p_i, to the k-th power) -> phi
    a tautology on the model.

    phi must be in the classical fragment and the excluded-middle bound
    O(x) <= x \\/ ~x must hold for the bound operator.  Refutations are
    certified countermodels.  A clean scan that proves nothing reports
    certainty 'sampled' above the variable cap of the chain's kind, and
    'grid' on a standard chain's full grid.  A k_max below 1 raises
    BadPowerBound: no power would be checked, so no refutation could be
    certified.  So does a k_max whose implication would be deeper than
    MAX_DEPTH, which evaluation could not recurse through.
    """
    if k_max < 1:
        raise BadPowerBound(f"k_max must be at least 1, not {k_max}")
    names = sorted(variables(phi))
    conj = reduce(And, [Circ(Var(name)) for name in names]) if names else ONE
    # Imp(power(conj, k_max), phi), without building it
    deepest = 1 + max(depth(conj) + k_max - 1, depth(phi))
    if deepest > MAX_DEPTH:
        raise BadPowerBound(f"k_max {k_max} would build a formula {deepest} "
                            f"levels deep, more than {MAX_DEPTH}")
    if not _classical_language(phi):
        raise NotClassical("the goal must use only classical connectives")
    dat = check_dat_axiom(model, grid_denominator)
    if not dat.holds:
        raise DatAxiomFails(f"O(x) <= x \\/ ~x fails at {dat.witness}")
    refuted = []
    total = 0
    for k in range(1, k_max + 1):
        implication = Imp(power(conj, k), phi)
        res = truth_consequence([model], [], implication, grid_denominator)
        total += res.checked
        if res.verdict == "holds":
            return PdatResult(k, "exhaustive", tuple(refuted), checked=total)
        if res.verdict == "unknown":
            how = "sampled" if len(names) > _var_cap(model.chain) else "grid"
            return PdatResult(k, how, tuple(refuted), checked=total)
        refuted.append(k)
    return PdatResult(None, None, tuple(refuted), reason="refuted", checked=total)


def classical_taut(phi: Formula) -> bool:
    """Exhaustive two-valued check; up to 20 variables."""
    if not _classical_language(phi):
        raise NotClassical("the formula must use only classical connectives")
    names = sorted(variables(phi))
    if len(names) > 20:
        raise TooManyVariables(f"{len(names)} variables exceed the cap of 20")
    model = ChainModel("B2", FiniteChain.from_family(GODEL, 2, name="B2"))
    return finite_scan(model, [], phi, "truth", names)[0] is None


# ---------------------------------------------------------------------------
# Bridge and bounded deduction

def bridge_check(model: ChainModel, premises: Sequence[Formula],
                 conclusion: Formula) -> bool:
    """Degree-preserving consequence from finitely many premises must agree
    with the truth of the single implication from their lattice conjunction."""
    if not model.chain.is_finite:
        raise ValueError("the bridge check is decided on finite chains")
    premises = list(premises)
    left = degree_consequence([model], premises, conclusion)
    implication = (Imp(reduce(And, premises), conclusion) if premises
                   else conclusion)
    right = truth_consequence([model], [], implication)
    return left.verdict == right.verdict


def deduction_power_bound(model: ChainModel, sigma: Sequence[Formula],
                          phi: Formula, psi: Formula) -> Optional[int]:
    """Smallest n, at most the chain size, with sigma forcing phi^n -> psi
    in the truth-preserving sense; None when no such n exists.  Every check
    is exhaustive: more than FINITE_VAR_CAP variables raise
    TooManyVariables before any search."""
    if not model.chain.is_finite:
        raise ValueError("the bounded deduction check needs a finite chain")
    count = len(variables(phi, psi, *sigma))
    if count > FINITE_VAR_CAP:
        raise TooManyVariables(f"{count} variables exceed the cap of "
                               f"{FINITE_VAR_CAP}")
    for n in range(model.chain.size + 1):
        res = truth_consequence([model], list(sigma), Imp(power(phi, n), psi))
        if res.verdict == "holds":
            return n
    return None
