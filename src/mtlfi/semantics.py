"""Evaluation and consequence checking over chains with attached operators.

Two consequence relations are decided by countermodel search: the
truth-preserving one (premises at value 1 force the conclusion to 1) and the
degree-preserving one (every lower bound of the premise values bounds the
conclusion).  On a chain the degree condition collapses to comparing the
conclusion against the minimum of the premise values, which is what the
search uses.

Finite chains are searched exhaustively up to FINITE_VAR_CAP variables, so
holds/fails verdicts there are exact; above the cap SAMPLING_BUDGET seeded
samples are checked, a countermodel found is exact and a clean run is
reported as unknown.  Standard chains are searched on a rational grid: a
countermodel found there is a certified failure (all arithmetic is exact),
while a clean scan is reported as unknown unless the query has no variables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .chain import GODEL, FiniteChain, rat
from .formula import (And, Bullet, Circ, Const, Delta, Formula, Fuse, Iff,
                      Imp, Not, Or, Var, ONE, power, subformulas, variables)
from .operators import (ConsistencyOp, HostMismatch, InconsistencyOp,
                        validate_c)

__all__ = [
    "SemanticsError", "UnboundVariable", "OperatorNotBound",
    "TooManyVariables", "DatAxiomFails", "ChainModel", "Evaluation",
    "evaluate", "finite_scan", "ConsequenceResult", "truth_consequence",
    "degree_consequence",
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


class SemanticsError(Exception):
    pass


class UnboundVariable(SemanticsError):
    pass


class OperatorNotBound(SemanticsError):
    pass


class TooManyVariables(SemanticsError):
    pass


class DatAxiomFails(SemanticsError):
    pass


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
    if isinstance(f, Circ):
        if ev.consistency is None:
            raise OperatorNotBound("the formula uses O but no operator is bound")
        return ev.consistency.value(evaluate(ev, f.arg))
    if isinstance(f, Bullet):
        if ev.inconsistency is None:
            raise OperatorNotBound("the formula uses # but no operator is bound")
        return ev.inconsistency.value(evaluate(ev, f.arg))
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
# Compiled evaluation on finite chains (index space, for search loops)

def compile_finite(model: ChainModel, f: Formula, var_order: Sequence[str]):
    """Compile a formula into a closure mapping an index tuple to an index.

    Every connective is one lookup in an index table of the chain (or of
    the bound O and # operators).  A parent reads a Var child inline as
    env[k] instead of calling a closure for it, and a constant subformula
    is folded: a binary node with one constant side becomes a lookup in
    that table's row or column.  An unbound O or # raises OperatorNotBound
    here, also inside a constant subformula.
    """
    chain: FiniteChain = model.chain
    top = chain.size - 1
    pos = {name: i for i, name in enumerate(var_order)}
    binary = {And: chain._meet_i, Or: chain._join_i, Fuse: chain._tnorm_i,
              Imp: chain._res_i, Iff: chain._iff_i}
    unary = {Not: chain._neg_i, Delta: chain._delta_i, Circ: None, Bullet: None}
    if model.consistency is not None:
        unary[Circ] = tuple(chain.index[v] for v in model.consistency.values)
    if model.inconsistency is not None:
        unary[Bullet] = tuple(chain.index[model.inconsistency.value(x)]
                              for x in chain.elements)

    def lookup(vec, child, g):
        # vec[child's index], as a constant or a closure
        if type(g) is int:
            return vec[g]
        if type(child) is Var:
            k = pos[child.name]
            return lambda env: vec[env[k]]
        return lambda env: vec[g(env)]

    def build(node):
        # the constant index of node, or a closure from env to its index
        t = type(node)
        if t is Var:
            k = pos[node.name]
            return lambda env: env[k]
        if t is Const:
            return top if node.value else 0
        if t in binary:
            tab = binary[t]
            l, r = build(node.left), build(node.right)
            if type(r) is int:
                return lookup(tuple(row[r] for row in tab), node.left, l)
            if type(l) is int:
                return lookup(tab[l], node.right, r)
            a = pos[node.left.name] if type(node.left) is Var else None
            b = pos[node.right.name] if type(node.right) is Var else None
            if a is not None and b is not None:
                return lambda env: tab[env[a]][env[b]]
            if a is not None:
                return lambda env: tab[env[a]][r(env)]
            if b is not None:
                return lambda env: tab[l(env)][env[b]]
            return lambda env: tab[l(env)][r(env)]
        if t not in unary:
            raise TypeError(f"not a formula node: {node!r}")
        if unary[t] is None:
            sym = "O" if t is Circ else "#"
            raise OperatorNotBound(f"the formula uses {sym} but no operator is bound")
        return lookup(unary[t], node.arg, build(node.arg))

    out = build(f)
    if type(out) is int:
        return lambda env: out
    return out


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


def _models_list(models) -> list:
    if isinstance(models, ChainModel):
        return [models]
    return list(models)


def finite_scan(model: ChainModel, premises, conclusion, mode: str,
                vars_: Sequence[str], envs):
    """Walk the index tuples envs (positions as in vars_) in order and stop
    at the first countermodel.

    Returns (env, checked, witness): the first failing index tuple or None,
    the number of tuples looked at, and in degree mode the index of the
    least premise value at env (None in truth mode or when nothing fails).
    Every formula is compiled before the first tuple is looked at, so an
    unbound O or # raises OperatorNotBound whatever envs holds.  The
    premises are compiled as one lattice conjunction, whose value is their
    least value: truth mode tests it against the top, degree mode against
    the conclusion.
    """
    top = model.chain.size - 1
    prem = compile_finite(model, _conjoin(premises), vars_) if premises else None
    concl_fn = compile_finite(model, conclusion, vars_)
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
            if a > concl_fn(env):
                return env, checked, a
    return None, checked, None


def _finite_search(model: ChainModel, premises, conclusion, mode: str):
    """Exhaustive up to FINITE_VAR_CAP variables; above it, SAMPLING_BUDGET
    assignments drawn from Random(0), each variable (in sorted order) by
    randrange(size), which draws as choice(chain.elements) does."""
    chain = model.chain
    vars_ = sorted(set().union(variables(conclusion),
                               *[variables(p) for p in premises]))
    n, k = chain.size, len(vars_)
    exhaustive = k <= FINITE_VAR_CAP
    if exhaustive:
        envs = itertools.product(range(n), repeat=k)
    else:
        draw = random.Random(0).randrange
        envs = (tuple(map(draw, itertools.repeat(n, k)))
                for _ in range(SAMPLING_BUDGET))
    env, checked, witness = finite_scan(model, premises, conclusion, mode,
                                        vars_, envs)
    if env is None:
        return ConsequenceResult("holds" if exhaustive else "unknown", mode,
                                 model.name, checked=checked)
    assignment = {v: chain.elements[i] for v, i in zip(vars_, env)}
    if witness is not None:
        witness = chain.elements[witness]
    return ConsequenceResult("fails", mode, model.name, assignment,
                             witness=witness, checked=checked)


def _require_operators(model: ChainModel, formulas) -> None:
    """Raise OperatorNotBound, with the messages of evaluate, when a formula
    uses O or # and the model binds no such operator."""
    for f in formulas:
        for node in subformulas(f):
            if isinstance(node, Circ) and model.consistency is None:
                raise OperatorNotBound("the formula uses O but no operator is bound")
            if isinstance(node, Bullet) and model.inconsistency is None:
                raise OperatorNotBound("the formula uses # but no operator is bound")


def _standard_search(model: ChainModel, premises, conclusion, mode: str,
                     grid_denominator: int):
    chain = model.chain
    vars_ = sorted(set().union(variables(conclusion),
                               *[variables(p) for p in premises]))
    # checked up front, as compile_finite does on finite chains: the scan
    # below evaluates lazily and may never reach an unbound operator
    _require_operators(model, [*premises, conclusion])
    extra = []
    for op in (model.consistency, model.inconsistency):
        if op is not None:
            extra.extend(op.critical_points())
    points = chain.sample_points(grid_denominator, extra=extra)
    if len(vars_) > STANDARD_VAR_CAP:
        return _sampled_search(model, premises, conclusion, mode, points,
                               grid_denominator)
    checked = 0
    for combo in itertools.product(points, repeat=len(vars_)):
        checked += 1
        assignment = dict(zip(vars_, combo))
        ev = Evaluation(chain, assignment, model.consistency, model.inconsistency)
        if mode == "truth":
            if all(evaluate(ev, p) == _ONE for p in premises) \
                    and evaluate(ev, conclusion) != _ONE:
                return ConsequenceResult("fails", mode, model.name, assignment,
                                         grid_denominator=grid_denominator,
                                         checked=checked)
        else:
            vals = [evaluate(ev, p) for p in premises]
            a = min(vals) if vals else _ONE
            if a > evaluate(ev, conclusion):
                return ConsequenceResult("fails", mode, model.name, assignment,
                                         witness=a,
                                         grid_denominator=grid_denominator,
                                         checked=checked)
    verdict = "holds" if not vars_ else "unknown"
    return ConsequenceResult(verdict, mode, model.name,
                             grid_denominator=grid_denominator, checked=checked)


def _sampled_search(model: ChainModel, premises, conclusion, mode: str,
                    points, grid_denominator: int):
    """Randomized fallback above STANDARD_VAR_CAP on a standard chain's grid
    points; deterministic seed."""
    chain = model.chain
    vars_ = sorted(set().union(variables(conclusion),
                               *[variables(p) for p in premises]))
    rng = random.Random(0)
    checked = 0
    for _ in range(SAMPLING_BUDGET):
        checked += 1
        assignment = {v: rng.choice(points) for v in vars_}
        ev = Evaluation(chain, assignment, model.consistency, model.inconsistency)
        if mode == "truth":
            bad = all(evaluate(ev, p) == _ONE for p in premises) \
                and evaluate(ev, conclusion) != _ONE
            a = None
        else:
            vals = [evaluate(ev, p) for p in premises]
            a = min(vals) if vals else _ONE
            bad = a > evaluate(ev, conclusion)
        if bad:
            return ConsequenceResult("fails", mode, model.name, assignment,
                                     witness=a,
                                     grid_denominator=grid_denominator,
                                     checked=checked)
    return ConsequenceResult("unknown", mode, model.name,
                             grid_denominator=grid_denominator, checked=checked)


def _consequence(models, premises, conclusion, mode: str, grid_denominator: int):
    models = _models_list(models)
    if not models:
        raise SemanticsError("consequence needs at least one model to check")
    premises = list(premises)
    best_unknown = None
    total = 0
    last = None
    for model in models:
        if model.chain.is_finite:
            res = _finite_search(model, premises, conclusion, mode)
        else:
            res = _standard_search(model, premises, conclusion, mode,
                                   grid_denominator)
        total += res.checked
        last = res
        if res.verdict == "fails":
            res.checked = total
            return res
        if res.verdict == "unknown":
            best_unknown = res
    if best_unknown is not None:
        best_unknown.checked = total
        return best_unknown
    last.checked = total
    return last


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
    pointwise law min(O(x), x, ~x) = 0.
    """
    p, q = Var("p"), Var("q")
    op = model.consistency
    if op is None:
        raise OperatorNotBound("an operator binding is required")
    report = LfiReport()
    groups = {
        "i": [p, Not(p)],
        "ii": [Circ(p), p],
        "iii": [Circ(p), Not(p)],
    }
    for key, premises in groups.items():
        res = degree_consequence([model], premises, q, grid_denominator)
        if res.verdict == "fails":
            report.clauses[key] = LfiClause(True, res.assignment, res.witness)
        elif res.verdict == "holds":
            report.clauses[key] = LfiClause(False)
        else:
            report.clauses[key] = LfiClause(None)
    chain = model.chain
    if chain.is_finite:
        ok = True
        witness = None
        for x in chain.elements:
            if min(op.value(x), x, chain.negation(x)) != _ZERO:
                ok, witness = False, x
                break
        report.clauses["iv"] = LfiClause(ok, witness=witness)
    else:
        ok = True
        witness = None
        for x in chain.sample_points(grid_denominator,
                                     extra=op.critical_points()):
            if min(op.value(x), x, chain.negation(x)) != _ZERO:
                ok, witness = False, x
                break
        if ok and not validate_c(chain, op).valid:
            report.clauses["iv"] = LfiClause(None)
        else:
            report.clauses["iv"] = LfiClause(ok, witness=witness)
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


def _combine(chain, token: str, x, y):
    if token == "/\\":
        return min(x, y)
    if token == "&":
        return chain.tnorm(x, y)
    if token == "->":
        return chain.residuum(x, y)
    raise ValueError(f"unknown connective {token!r}")


def check_propagation(model: ChainModel, connective: str,
                      grid_denominator: int = 60) -> PropagationResult:
    """Does min(O(x), O(y)) <= O(x # y) hold for the chosen connective?

    Unary ~ checks O(x) <= O(~x) and the constant 0 checks O(0) = 1.
    Finite chains are exhaustive.  Standard chains scan grid pairs; a clean
    scan upgrades to a definite yes only where the structural argument
    applies (the lattice conjunction always, the implication and negation
    for validated operators, the strong conjunction for the min and max
    kinds).
    """
    op = model.consistency
    if op is None:
        raise OperatorNotBound("an operator binding is required")
    chain = model.chain
    if connective not in CONNECTIVE_TOKENS:
        raise ValueError(f"connective must be one of {CONNECTIVE_TOKENS}")
    if connective == "0":
        ok = op.value(_ZERO) == _ONE
        return PropagationResult(ok, None if ok else (_ZERO,), checked=1)
    if chain.is_finite:
        points = chain.elements
    else:
        points = chain.sample_points(grid_denominator,
                                     extra=op.critical_points())
    checked = 0
    if connective == "~":
        for x in points:
            checked += 1
            lhs, rhs = op.value(x), op.value(chain.negation(x))
            if lhs > rhs:
                return PropagationResult(False, (x,), chain.residuum(lhs, rhs),
                                         checked=checked)
    else:
        for x in points:
            ox = op.value(x)
            if ox == _ZERO:
                checked += len(points)
                continue
            for y in points:
                checked += 1
                lhs = min(ox, op.value(y))
                rhs = op.value(_combine(chain, connective, x, y))
                if lhs > rhs:
                    return PropagationResult(False, (x, y),
                                             chain.residuum(lhs, rhs),
                                             checked=checked)
    if chain.is_finite:
        return PropagationResult(True, checked=checked)
    if connective == "/\\":
        return PropagationResult(True, checked=checked)
    if connective in ("->", "~"):
        ok = validate_c(chain, op).valid
        return PropagationResult(True if ok else None, checked=checked)
    if op.kind in ("min", "max") or _is_effectively_max(chain, op):
        return PropagationResult(True, checked=checked)
    return PropagationResult(None, checked=checked)


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
    """Pointwise check of O(x) <= x \\/ ~x."""
    op = model.consistency
    if op is None:
        raise OperatorNotBound("an operator binding is required")
    chain = model.chain
    if chain.is_finite:
        points = list(chain.elements)
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
            extra.append(nset.infimum())
            extra.append((nset.infimum() + 1) / 2)
        points = chain.sample_points(grid_denominator, extra=extra)
    checked = 0
    for x in points:
        checked += 1
        if op.value(x) > max(x, chain.negation(x)):
            return DatResult(False, x, checked)
    return DatResult(True, checked=checked)


_CLASSICAL_NODES = (Var, Const, Not, And, Or, Imp, Fuse)


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
    certainty: Optional[str] = None   # exhaustive | grid
    refuted: tuple = ()
    reason: Optional[str] = None      # refuted | budget
    checked: int = 0


def pdat_search(model: ChainModel, phi: Formula, k_max: int = 8,
                grid_denominator: int = 60) -> PdatResult:
    """Smallest k with (the conjunction of O p_i, to the k-th power) -> phi
    a tautology on the model.

    phi must be in the classical fragment and the excluded-middle bound
    O(x) <= x \\/ ~x must hold for the bound operator.  Refutations are
    certified countermodels; on standard chains a clean grid pass reports
    certainty 'grid'.
    """
    if not _classical_language(phi):
        raise ValueError("the goal must use only classical connectives")
    dat = check_dat_axiom(model, grid_denominator)
    if not dat.holds:
        raise DatAxiomFails(f"O(x) <= x \\/ ~x fails at {dat.witness}")
    names = sorted(variables(phi))
    if names:
        conj = Circ(Var(names[0]))
        for name in names[1:]:
            conj = And(conj, Circ(Var(name)))
    else:
        conj = ONE
    refuted = []
    total = 0
    for k in range(1, k_max + 1):
        implication = Imp(power(conj, k), phi)
        res = truth_consequence([model], [], implication, grid_denominator)
        total += res.checked
        if res.verdict == "holds":
            return PdatResult(k, "exhaustive", tuple(refuted), checked=total)
        if res.verdict == "unknown":
            return PdatResult(k, "grid", tuple(refuted), checked=total)
        refuted.append(k)
    return PdatResult(None, None, tuple(refuted), reason="refuted", checked=total)


def classical_taut(phi: Formula) -> bool:
    """Exhaustive two-valued check; up to 20 variables."""
    if not _classical_language(phi):
        raise ValueError("the formula must use only classical connectives")
    names = sorted(variables(phi))
    if len(names) > 20:
        raise TooManyVariables(f"{len(names)} variables exceed the cap of 20")
    model = ChainModel("B2", FiniteChain.from_family(GODEL, 2, name="B2"))
    envs = itertools.product(range(2), repeat=len(names))
    return finite_scan(model, [], phi, "truth", names, envs)[0] is None


# ---------------------------------------------------------------------------
# Bridge and bounded deduction

def _conjoin(premises: Sequence[Formula]) -> Formula:
    out = premises[0]
    for p in premises[1:]:
        out = And(out, p)
    return out


def bridge_check(model: ChainModel, premises: Sequence[Formula],
                 conclusion: Formula) -> bool:
    """Degree-preserving consequence from finitely many premises must agree
    with the truth of the single implication from their lattice conjunction."""
    if not model.chain.is_finite:
        raise ValueError("the bridge check is decided on finite chains")
    premises = list(premises)
    left = degree_consequence([model], premises, conclusion)
    implication = Imp(_conjoin(premises), conclusion) if premises else conclusion
    right = truth_consequence([model], [], implication)
    return left.verdict == right.verdict


def deduction_power_bound(model: ChainModel, sigma: Sequence[Formula],
                          phi: Formula, psi: Formula) -> Optional[int]:
    """Smallest n, at most the chain size, with sigma forcing phi^n -> psi
    in the truth-preserving sense; None when no such n exists."""
    if not model.chain.is_finite:
        raise ValueError("the bounded deduction check needs a finite chain")
    for n in range(model.chain.size + 1):
        res = truth_consequence([model], list(sigma), Imp(power(phi, n), psi))
        if res.verdict == "holds":
            return n
    return None
