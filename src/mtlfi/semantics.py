"""Evaluation and consequence checking over chains with attached operators.

Two consequence relations are decided by countermodel search: the
truth-preserving one (premises at value 1 force the conclusion to 1) and the
degree-preserving one (every lower bound of the premise values bounds the
conclusion).  On a chain the degree condition collapses to comparing the
conclusion against the minimum of the premise values, which is what the
search uses, and the truth relation is the degree relation from D of that
minimum, so one failure test decides both (finite_scan).

Every search runs one scan, finite_scan, over index tuples: into a finite
chain's elements, or into a standard chain's sorted rational grid points.
It is also the one place that builds the full product of those indices,
when it is given no tuples; the Hilbert checks and classical_taut call it
so.  The formulas are compiled once, with no folding, and an unbound O or
# raises before any tuple is checked.  On a finite chain of at most 16
elements compile_finite computes a formula's column, its index at every
tuple, with one bytes.translate per connective, two indices packed into a
byte, for a full product below _GENERATE_FROM tuples.  Any other tuples, a
larger chain's or product's, a standard chain's or a caller's such as the
sampler's, are scanned a tuple at a time, by one straight-line function per
formula that generate writes from fixed names and integer positions only:
index tables on a finite chain, the exact operations on a standard one.
Both compilers find each connective through one map, _TABLES.  The tuples
are every combination up to the variable cap of the chain's kind
(FINITE_VAR_CAP or STANDARD_VAR_CAP), and above the cap SAMPLING_BUDGET
draws from one seeded sampler.
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
                      Fuse, Iff, Imp, Not, Or, Var, ONE, ZERO, _CONST,
                      _INFIX, _PREFIX, _SYNTAX, depth, power, subformulas,
                      variables)
from .operators import (ConsistencyOp, HostMismatch, InconsistencyOp,
                        validate_c)

__all__ = [
    "SemanticsError", "UnboundVariable", "OperatorNotBound",
    "TooManyVariables", "DatAxiomFails", "NotClassical", "BadPowerBound",
    "UnknownConnective",
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
# the fewest tuples of a full finite product that finite_scan scans a tuple
# at a time with generate, not a column at a time; set where code
# generation paid off against the per-tuple closures the columns replaced
_GENERATE_FROM = 2048


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


class UnknownConnective(SemanticsError, ValueError):
    """A propagation check asked of a token outside CONNECTIVE_TOKENS."""


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
        raise OperatorNotBound(f"the formula uses {_SYNTAX[t][0]} but no "
                               "operator is bound")
    return op


def evaluate(ev: Evaluation, f: Formula) -> Fraction:
    """Homomorphic extension of the assignment; exact rational output."""
    chain = ev.chain
    if isinstance(f, Var):
        try:
            return rat(ev.assignment[f.name])
        except KeyError:
            raise UnboundVariable(f"variable {f.name} has no value") from None
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
# Compiled evaluation over columns of index tuples (for the search loop)

# each node type's fixed name in a generated function, the FiniteChain
# attribute holding its index table, and its operation on a standard chain:
# a builtin or a StandardChain attribute (None: the bound O or #'s indices
# or value; <-> reads the residuum both ways)
_TABLES = {And: ("MEET", "_meet_i", min), Or: ("JOIN", "_join_i", max),
           Fuse: ("FUSE", "_tnorm_i", "tnorm"),
           Imp: ("RES", "_res_i", "residuum"),
           Iff: ("IFF", "_iff_i", "residuum"),
           Not: ("NEG", "_neg_i", "negation"),
           Delta: ("DELTA", "_delta_i", "delta"), Circ: ("CIRC", None, None),
           Bullet: ("BULLET", None, None)}


def _table(model, node):
    """node's fixed name, and its index table on model's finite chain or its
    operation on a standard one, for both compilers: TypeError for a node
    that is not a formula, and OperatorNotBound for an unbound O or #."""
    if type(node) not in _TABLES:
        raise TypeError(f"not a formula node: {node!r}")
    name, attr, op = _TABLES[type(node)]
    chain = model.chain
    if attr is None:
        op = _operator(model, type(node))
        return name, op.indices if chain.is_finite else op.value
    if chain.is_finite:
        return name, getattr(chain, attr)
    return name, getattr(chain, op) if type(op) is str else op


def _kernel_table(rows):
    """An index table as _step reads it, 256 bytes: at an index, or at a
    pair 16a + b of indices of a chain of at most 16 elements."""
    if type(rows[0]) is tuple:
        rows = b"".join([bytes(row).ljust(16, b"\0") for row in rows])
    return bytes(rows).ljust(256, b"\0")


def _kept(chain: FiniteChain, key, build):
    """build(), kept on the chain under key from the first call on."""
    if key not in chain._kernel:
        chain._kernel[key] = build()
    return chain._kernel[key]


def _step(tab, a, b=None):
    """The _kernel_table tab at each index of the column a, or at each pair
    of indices of the columns a and b, as one bytes.  The pairs pack as
    16a + b by one integer shift and addition for the whole column: no byte
    carries, since 16a + b <= 255."""
    if b is not None:
        a = ((int.from_bytes(a, "big") << 4)
             + int.from_bytes(b, "big")).to_bytes(len(b), "big")
    return a.translate(tab)


def compile_finite(model: ChainModel, f: Formula, var_order: Sequence[str]):
    """Compile a formula into a function from the columns of var_order's
    variables, and their length, to the formula's column: one element index
    per scanned tuple, in one bytes.  Each distinct node, by identity, is
    one _step per call, and a constant is a column too.  A chain above 16
    elements, whose index pairs do not pack into a byte, raises ValueError,
    and an unbound O or # OperatorNotBound, also inside a constant."""
    chain, steps = model.chain, []
    if chain.size > 16:
        raise ValueError(f"a column scan packs two indices into a byte: "
                         f"{chain.size} elements, more than 16")
    tables = _kept(chain, "tables", lambda: {
        t: _kernel_table(getattr(chain, attr))
        for t, (_, attr, _) in _TABLES.items() if attr})
    result = _column_node(model, tables, {v: i for i, v in
                                          enumerate(var_order)}, {}, steps, f)

    def run(cols, count):
        v = [*cols]
        for tab, a, b in steps:  # a is None for a constant, b for unary
            v.append(tab * count if a is None else
                     _step(tab, v[a], None if b is None else v[b]))
        return v[result]
    return run


def _column_node(model, tables, pos, slots, steps, node) -> int:
    """node's slot among a run's columns (the variables', then one per
    step), appending a step (table, slot, slot) for each node whose id is
    not in slots; tables maps node types to the chain's _kernel_tables."""
    t = type(node)
    if t is Var:
        return pos[node.name]
    if id(node) in slots:
        return slots[id(node)]
    if t is Const:
        step = (bytes([model.chain.size - 1 if node.value else 0]), None, None)
    else:
        tab = tables.get(t) or _kernel_table(_table(model, node)[1])
        if t is Not or t is Delta or t is Circ or t is Bullet:
            step = (tab, _column_node(model, tables, pos, slots, steps,
                                      node.arg), None)
        else:
            step = (tab, _column_node(model, tables, pos, slots, steps,
                                      node.left),
                    _column_node(model, tables, pos, slots, steps, node.right))
    steps.append(step)
    s = slots[id(node)] = len(pos) + len(steps) - 1
    return s


def generate(model: ChainModel, f: Formula, var_order: Sequence[str],
             points: Optional[Sequence[Fraction]] = None):
    """Compile a formula into one generated Python function mapping an
    index tuple, of exactly len(var_order) indices, to the formula's
    element index on a finite chain, or to its exact value on a standard
    chain, where an index names one of points.

    The function's source is straight-line: it unpacks the tuple into
    v0, v1, ..., assigns one temporary per node occurrence (such as t0 = v2
    or t3 = RES[t1][t2]) and returns the last.  It is written only from fixed
    names and integer positions, so no variable name or other input text
    reaches the source.  On a finite chain the names are the chain's index
    tables and the bound O/# element-index tables; on a standard chain a
    Var reads P[vk], a unary connective on a Var its _Table over points, and
    any other connective is a call of min, max or the chain's exact
    operation, as evaluate does it, with <-> the min of both residua and
    a /\\ or & its left side where that is 0.  TOP and BOT are the top and
    the bottom.  Those names are the function's globals, and it holds no
    reference cycle.  An unbound O or # raises OperatorNotBound here, also
    inside a constant subformula.
    """
    pos = {name: i for i, name in enumerate(var_order)}
    if model.chain.is_finite:
        ns = {"TOP": model.chain.size - 1, "BOT": 0}
    else:
        ns = {"TOP": _ONE, "BOT": _ZERO, "P": points}
    lines = []
    result = _generated_node(model, pos, ns, lines, f)
    if var_order:
        unpack = ", ".join(f"v{k}" for k in range(len(var_order)))
        lines.insert(0, f"{unpack}{',' if len(var_order) == 1 else ''} = e")
    body = "".join(f"    {line}\n" for line in lines)
    exec(compile(f"def f(e):\n{body}    return {result}\n",
                 "<generate>", "exec"), ns)
    return ns.pop("f")  # ns, its globals, no longer holds it: no cycle


def _generated_node(model, pos, ns, lines, node):
    """Append the lines computing node's value, one per node occurrence,
    and return the temporary of the last: a Var reads v<k> (P[v<k>] on a
    standard chain), a constant TOP or BOT, a unary connective on a Var its
    table at v<k>, and any other connective its table at, or its operation
    on, its children's temporaries.  ns collects each name the lines read."""
    t, finite = type(node), model.chain.is_finite
    if t is Var:
        expr = f"v{pos[node.name]}" if finite else f"P[v{pos[node.name]}]"
    elif t is Const:
        expr = "TOP" if node.value else "BOT"
    else:
        name, op = _table(model, node)
        if t is Not or t is Delta or t is Circ or t is Bullet:
            if type(node.arg) is Var:
                if not finite:  # filled as the scan first reads each point
                    name = f"{name}_P"
                    op = ns[name] if name in ns else _Table(op, ns["P"])
                expr = f"{name}[v{pos[node.arg.name]}]"
            else:
                a = _generated_node(model, pos, ns, lines, node.arg)
                expr = f"{name}[{a}]" if finite else f"{name}({a})"
        else:
            a = _generated_node(model, pos, ns, lines, node.left)
            b = _generated_node(model, pos, ns, lines, node.right)
            if finite:
                expr = f"{name}[{a}][{b}]"
            elif t is Iff:  # the min of both residua; op is the residuum
                name, ns["MEET"] = "RES", min
                expr = f"MEET(RES({a}, {b}), RES({b}, {a}))"
            elif t is And or t is Fuse:  # 0 /\ y = 0 & y = 0
                expr = f"{a} and {name}({a}, {b})"
            else:
                expr = f"{name}({a}, {b})"
        ns[name] = op
    lines.append(f"t{len(lines)} = {expr}")
    return f"t{len(lines) - 1}"


class _Table(dict):
    """op's value at each index into points, computed at its first read."""

    __slots__ = ("op", "points")

    def __init__(self, op, points):
        self.op, self.points = op, points

    def __missing__(self, i):
        v = self[i] = self.op(self.points[i])
        return v


# ---------------------------------------------------------------------------
# Consequence search

@dataclass(slots=True)
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

    An index names an element of a finite chain or one of points on a
    standard chain; envs defaults to every tuple of those indices, in
    itertools.product order.  Returns (env, checked, witness): the first
    failing tuple or None, the number of tuples looked at, and in degree
    mode the least premise value at env, as an element index or a value
    (else None).  Every formula is compiled first, so an unbound O or #
    raises whatever envs holds.  Both modes test one failure mark,
    0 < A and C < A, C the conclusion and A the premise side: the premises'
    meet P (_meet) in degree mode, D(P) in truth mode, and the top without
    premises, where a tuple fails if C is below the top.  The conclusion is
    not read where A is the bottom.  On a finite chain of at most 16
    elements a full product below _GENERATE_FROM tuples is scanned a column
    at a time (_column_scan); any other tuples, a larger chain's or
    product's, a standard chain's or a caller's, are scanned one at a time
    by the functions generate writes, so a caller's scan stops at its first
    failing tuple.  Both give the same result.
    """
    chain = model.chain
    n = chain.size if chain.is_finite else len(points)
    top = n - 1 if chain.is_finite else _ONE
    compile_, extra = generate, (points,)
    if (envs is None and chain.is_finite and n <= 16
            and n ** len(vars_) < _GENERATE_FROM):
        compile_, extra = compile_finite, ()
    prem = None
    if premises:  # the premise side A
        side = _meet(premises)
        prem = compile_(model, Delta(side) if mode == "truth" else side,
                        vars_, *extra)
    concl_fn = compile_(model, conclusion, vars_, *extra)
    report = mode == "degree"  # A's value is reported as the witness
    if compile_ is compile_finite:
        env, checked, a = _column_scan(chain, prem, concl_fn, len(vars_))
        return env, checked, a if report else None
    if envs is None:
        envs = itertools.product(range(n), repeat=len(vars_))
    checked = 0
    if prem is None:
        for checked, env in enumerate(envs, 1):
            if concl_fn(env) != top:
                return env, checked, top if report else None
    else:
        for checked, env in enumerate(envs, 1):
            a = prem(env)
            if a and a > concl_fn(env):  # a is 0 at the bottom
                return env, checked, a if report else None
    return None, checked, None


def _meet(formulas):
    """The lattice conjunction of a nonempty list of formulas, each object
    once (by identity: hashing a parsed formula walks it as a tree), folded
    as a balanced tree: ceil(log2 k) levels deeper than the deepest of k."""
    formulas = list({id(f): f for f in formulas}.values())
    if len(formulas) == 1:
        return formulas[0]
    half = len(formulas) // 2
    return And(_meet(formulas[:half]), _meet(formulas[half:]))


def _column_scan(chain: FiniteChain, prem, concl, k: int):
    """finite_scan's (env, checked, A) on the full product of chain's
    indices over k variables, from compile_finite's premise side prem (or
    None) and concl: one _step of the failure table to a column that is 1
    where a tuple fails, and its first 1.  The product's columns and the
    table are kept on the chain."""
    n, top = chain.size, chain.size - 1
    count, cols = n ** k, _kept(chain, k, lambda: _columns(k, n))
    # the premise side; the empty meet is the top
    a = prem(cols, count) if prem else bytes([top]) * count
    fails = _step(_kept(chain, "fails", lambda: _kernel_table(tuple([
        tuple([0 < x and y < x for y in range(n)]) for x in range(n)]))),
        a, concl(cols, count))
    j = fails.find(1)
    if j < 0:
        return None, count, None
    return tuple([col[j] for col in cols]), j + 1, a[j]


def _columns(k: int, n: int) -> list:
    """The k columns of the full product of n indices over k variables."""
    flat = bytes(itertools.chain.from_iterable(
        itertools.product(range(n), repeat=k)))
    return [flat[i::k] for i in range(k)]


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
    law O p, p, ~p |=_<= 0, scanned over the operator's points: a clean
    standard grid passes it only if validate_c passes on that grid.
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
    if (res.verdict == "unknown"
            and not validate_c(chain, op, grid_denominator).valid):
        passed = None  # a clean grid proves the law only for a valid operator
    at = res.assignment
    report.clauses["iv"] = LfiClause(passed, witness=at and at["p"])
    return report


# ---------------------------------------------------------------------------
# Propagation

# the tokens check_propagation reads, each as parse reads it
CONNECTIVE_TOKENS = tuple(_SYNTAX[t][0] for t in (And, Fuse, Imp, Not, ZERO))


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
    the implication and negation for operators that validate_c passes on
    the same grid, the strong conjunction for the min and max kinds).
    """
    if connective not in CONNECTIVE_TOKENS:
        raise UnknownConnective(f"unknown connective {connective!r}; known: "
                                + ", ".join(CONNECTIVE_TOKENS))
    op = _operator(model, Circ)
    chain = model.chain
    if connective in _CONST:
        ok = op.value(_ZERO) == _ONE
        return PropagationResult(ok, None if ok else (_ZERO,), checked=1)
    unary = connective in _PREFIX
    node = (_PREFIX if unary else _INFIX)[connective][1]
    args = (Var("p"),) if unary else (Var("p"), Var("q"))
    premises, law = [Circ(a) for a in args], Circ(node(*args))
    res = _product_search(model, premises, law, "degree",
                          _points(chain, (op,), grid_denominator), None)
    if res.verdict == "fails":
        at = res.assignment
        rhs = evaluate(Evaluation(chain, at, op), law)
        return PropagationResult(False, tuple(at[v] for v in sorted(at)),
                                 chain.residuum(res.witness, rhs), res.checked)
    if chain.is_finite or node is And:
        holds = True
    elif node is Imp or node is Not:
        holds = validate_c(chain, op, grid_denominator).valid or None
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
    return not any(type(node) in (Circ, Bullet, Delta)
                   for node in subformulas(f))


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
    implication = Imp(_meet(premises), conclusion) if premises else conclusion
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
