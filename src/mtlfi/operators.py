r"""Consistency and inconsistency operators attached to chains.

A consistency operator marks how classically an element behaves: it must
vanish on contradictory elements (those x with x /\ ~x != 0), take the value
1 at the bounds, and be non-decreasing on the region N where the negation is
0.  Inconsistency operators are the pointwise negated duals, with the mirror
postulates: InconsistencyOp is ConsistencyOp's table kind (an explicit
vector) or its dual kind (the negation of a base operator).

Each symbolic kind (min, max, crisp, piecewise, dual) has one value rule,
value_pair, on every chain; a finite chain tabulates it once at its
elements.  validate_c and validate_bullet share one postulate scan, over a
finite chain's elements or a standard chain's sample points; the
inconsistency side passes its values upside down (top - v), an order
reversal rather than the chain's negation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional, Sequence

from . import InputError
from .chain import (FiniteChain, OutOfCarrier, _grid_index, _parse_rationals,
                    rat, read_spec)

__all__ = [
    "OperatorError", "HostMismatch", "ThresholdOutsideN", "BreakpointOutsideN",
    "NotNondecreasing", "TooLarge", "StandardChainUnsupported",
    "OperatorSpecError",
    "ValidationReport", "ConsistencyOp", "InconsistencyOp",
    "table_op", "min_op", "max_op", "crisp_op", "piecewise_op",
    "enumerate_ops", "validate_c", "validate_algebraic", "dual",
    "bullet_table_op", "validate_bullet", "op_from_delta", "delta_from_op",
    "op_from_spec", "parse_op_file",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
ENUMERATION_BUDGET = 100_000  # the most operators enumerate_ops builds


class OperatorError(InputError):
    pass


class HostMismatch(OperatorError):
    pass


class ThresholdOutsideN(OperatorError):
    pass


class BreakpointOutsideN(OperatorError):
    pass


class NotNondecreasing(OperatorError):
    pass


class TooLarge(OperatorError):
    """An enumeration refused over its budget: an unknown, not a usage error."""

    exit_code = 2


class StandardChainUnsupported(OperatorError):
    pass


class OperatorSpecError(OperatorError, ValueError):
    """A malformed operator file or interpolation name."""


class ValidationReport(NamedTuple):
    valid: bool
    clause: Optional[str] = None
    witness: tuple = ()

    def __repr__(self) -> str:
        if self.valid:
            return "ValidationReport(valid)"
        w = ", ".join(str(x) for x in self.witness)
        return f"ValidationReport(invalid, clause={self.clause}, witness=({w}))"


def _element_indices(chain: FiniteChain, pairs) -> tuple:
    """The index in chain.elements of each value, given as a pair (n, d),
    by the chain's carrier rule."""
    indices = tuple([_grid_index(n, d, chain.size - 1) for n, d in pairs])
    if None in indices:
        n, d = pairs[indices.index(None)]
        raise OutOfCarrier(
            f"operator value {Fraction(n, d)} is not a chain element")
    return indices


def _table_indices(chain, values) -> tuple:
    """The index table of a value vector, an exact rational for each
    element of a finite chain."""
    if not chain.is_finite:
        raise StandardChainUnsupported("value tables need a finite chain")
    vals = [rat(v) for v in values]
    if len(vals) != chain.size:
        raise OperatorError(f"expected {chain.size} values, got {len(vals)}")
    return _element_indices(chain, [(v.numerator, v.denominator) for v in vals])


class ConsistencyOp:
    """A unary map on a chain, evaluated exactly at rational points.

    The symbolic kinds are min, max, crisp(threshold) and piecewise
    (breakpoints with step or linear interpolation on the zero-negation
    region); value_pair is the rule of each, on every chain.  Finite chains
    store the map as an element-index table: indices[i] is the index of the
    value at chain.elements[i].  It is given directly, built once from a
    value vector, or else built from value_pair at every element; values
    reads it back as elements.  Standard chains evaluate value_pair itself.
    """

    def __init__(self, chain, kind: str, values: Optional[tuple] = None,
                 threshold: Optional[Fraction] = None, closed: bool = True,
                 breakpoints: tuple = (), interpolation: str = "linear",
                 name: str = "", indices: Optional[tuple] = None):
        self.chain = chain
        self.kind = kind
        self.threshold = threshold
        self.closed = closed
        self.breakpoints = tuple(breakpoints)
        self.interpolation = interpolation
        self.name = name or kind
        self._nset = chain.n_set()
        if threshold is not None:
            t = rat(threshold)
            self._threshold_nd = (t.numerator, t.denominator)
        if values is not None:
            indices = _table_indices(chain, values)
        elif indices is None and chain.is_finite:
            top = chain.size - 1
            indices = _element_indices(
                chain, [self.value_pair(i, top) for i in range(chain.size)])
        self.indices = indices

    @property
    def values(self) -> Optional[tuple]:
        """The value at each element of a finite chain; None on a standard
        chain."""
        if self.indices is None:
            return None
        els = self.chain.elements
        return tuple([els[i] for i in self.indices])

    def value(self, x) -> Fraction:
        chain = self.chain
        if chain.is_finite:
            return chain.elements[self.indices[chain._idx(x)]]
        x = chain._check(x)
        n, d = self.value_pair(x.numerator, x.denominator)
        return _ONE if n == d else _ZERO if n == 0 else Fraction(n, d)

    def value_pair(self, n: int, d: int) -> tuple:
        """The value of the symbolic kind at n/d in [0,1] (d > 0), as a pair."""
        if n == 0 or n == d:
            return 1, 1
        kind = self.kind
        if kind == "min" or not self._nset.contains_pair(n, d):
            return 0, 1
        if kind == "max":
            return 1, 1
        if kind == "crisp":
            tn, td = self._threshold_nd
            diff = n * td - tn * d  # sign of x - threshold
            return (1, 1) if (diff >= 0 if self.closed else diff > 0) else (0, 1)
        v = _interpolate(self.breakpoints, self.interpolation, Fraction(n, d))
        return v.numerator, v.denominator

    def critical_points(self) -> list:
        """The breakpoint abscissae and the threshold, where the value
        function can change shape; grid scans add them to their points."""
        points = [x for x, _ in self.breakpoints]
        if self.threshold is not None:
            points.append(self.threshold)
        return points

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name} on {self.chain.name})"


class InconsistencyOp(ConsistencyOp):
    """Dual marker: the table kind, an explicit vector on a finite chain, or
    the dual kind, the pointwise negation of a base consistency operator,
    whose critical points it keeps.  A finite dual is the base's index
    table through the chain's negation."""

    def __init__(self, chain, values: Optional[tuple] = None,
                 base: Optional[ConsistencyOp] = None, name: str = ""):
        if values is None and base is None:
            raise ValueError("an inconsistency operator needs values or a base")
        self.base = base
        indices = (tuple([chain._neg_i[i] for i in base.indices])
                   if values is None and chain.is_finite else None)
        super().__init__(chain, "table" if values is not None else "dual",
                         values=values, indices=indices,
                         name=name or (f"dual({base.name})" if base else "table"))

    def value_pair(self, n: int, d: int) -> tuple:
        """The negation of the base's value at n/d, as a pair."""
        return self.chain.residuum_pair(*self.base.value_pair(n, d), 0, 1)

    def critical_points(self) -> list:
        return self.base.critical_points() if self.base is not None else []


# ---------------------------------------------------------------------------
# Constructors

def table_op(chain: FiniteChain, values: Sequence, name: str = "") -> ConsistencyOp:
    """An arbitrary unary map on a finite chain, given as a value vector.

    Not validated here; feed it to validate_c or validate_algebraic.
    """
    return ConsistencyOp(chain, "table", values=values, name=name or "table")


def _interpolate(bps, interpolation: str, x: Fraction) -> Fraction:
    """The breakpoint profile at a point x of the zero-negation region: 0
    before the first breakpoint, the last value from the last breakpoint
    on, and step or linear interpolation in between."""
    if not bps or x < bps[0][0]:
        return _ZERO
    for (x0, v0), (x1, v1) in zip(bps, bps[1:]):
        if x0 <= x < x1:
            if interpolation == "step":
                return v0
            return v0 + (v1 - v0) * (x - x0) / (x1 - x0)
    return bps[-1][1]


def min_op(chain) -> ConsistencyOp:
    """1 exactly at the bounds, 0 elsewhere; the pointwise least valid operator."""
    return ConsistencyOp(chain, "min", name="min")


def max_op(chain) -> ConsistencyOp:
    """1 on the bounds and the whole zero-negation region; pointwise greatest."""
    return ConsistencyOp(chain, "max", name="max")


def _check_threshold(chain, t: Fraction, closed: bool):
    """The switched-on region inside (0,1) must lie within the
    zero-negation region."""
    if not (_ZERO <= t <= _ONE):
        raise ThresholdOutsideN(f"threshold {t} is outside [0,1]")
    nset = chain.n_set()
    if chain.is_finite:
        for x in chain.elements:
            hit = x >= t if closed else x > t
            if _ZERO < x < _ONE and hit and x not in nset:
                raise ThresholdOutsideN(
                    f"threshold {t} turns on at {x}, outside {nset.describe()}")
        return
    if (closed and t == _ONE) or (not closed and t >= _ONE):
        return  # the region inside (0,1) is empty
    if nset.empty:
        raise ThresholdOutsideN(f"threshold {t} but the zero-negation region is empty")
    a = nset.infimum()
    if closed:
        ok = t > a or (t == a and nset.closed) or (t <= a and not nset.closed and a == _ZERO)
    else:
        ok = t >= a
    if not ok:
        raise ThresholdOutsideN(f"threshold {t} lies outside {nset.describe()}")


def crisp_op(chain, threshold, closed: bool = True, name: str = "") -> ConsistencyOp:
    """0/1 operator that switches on at the threshold inside the
    zero-negation region."""
    t = rat(threshold)
    _check_threshold(chain, t, closed)
    label = name or f"crisp:{t}" + ("" if closed else ":open")
    return ConsistencyOp(chain, "crisp", threshold=t, closed=closed, name=label)


def piecewise_op(chain, breakpoints: Sequence, interpolation: str = "linear",
                 name: str = "") -> ConsistencyOp:
    """Non-decreasing profile over the zero-negation region given by
    breakpoints (x, value); 0 on the contradictory region, 1 at the bounds."""
    if interpolation not in ("linear", "step"):
        raise OperatorSpecError("interpolation must be linear or step")
    bps = sorted((rat(x), rat(v)) for x, v in breakpoints)
    nset = chain.n_set()
    for x, v in bps:
        if not (x in nset or x == _ONE):
            raise BreakpointOutsideN(f"breakpoint {x} lies outside {nset.describe()} + {{1}}")
        if x == _ONE and v != _ONE:
            raise NotNondecreasing("the value at 1 is forced to 1")
        if not (_ZERO <= v <= _ONE):
            raise OperatorError(f"breakpoint value {v} is outside [0,1]")
    for (x0, v0), (x1, v1) in zip(bps, bps[1:]):
        if x0 == x1:
            raise OperatorError(f"duplicate breakpoint at {x0}")
        if v1 < v0:
            raise NotNondecreasing(f"values decrease between {x0} and {x1}")
    if not bps:
        return min_op(chain)
    return ConsistencyOp(chain, "piecewise", breakpoints=bps,
                         interpolation=interpolation, name=name or "piecewise")


# ---------------------------------------------------------------------------
# Validation

def _require_host(chain, op):
    if op.chain is not chain:
        raise HostMismatch("the operator is hosted on a different chain")


def _samples(chain, op, grid: int) -> tuple:
    """The points a postulate scan visits, bottom first and top last, with
    flags that mark the interior ones in N, the operator's value at each,
    and the top of the scale the values are read on.

    A finite chain is scanned at every element, reading the index table, so
    the values are indices and the top is the last index.  A standard chain
    is scanned at its sample points, which include the critical points.
    """
    _require_host(chain, op)
    if chain.is_finite:
        return chain.elements, chain._neg_zero, op.indices, chain.size - 1
    points = chain.sample_points(grid, extra=op.critical_points())
    contains = chain.n_set().contains_pair
    in_n = [contains(x.numerator, x.denominator) for x in points]
    return points, in_n, [op.value(x) for x in points], _ONE


def _scan(points, in_n, values, top):
    """The first postulate the values break, as (clause "1", "2" or "3",
    witness), or None: (1) 0 at every interior point outside N, (2) top at
    both bounds, (3) non-decreasing over N.  Only interior points are read
    off in_n."""
    last = len(points) - 1
    for k in range(1, last):
        if not in_n[k] and values[k] != 0:
            return "1", (points[k],)
    if values[0] != top:
        return "2", (points[0],)
    if values[last] != top:
        return "2", (points[last],)
    # the top needs no step of its own: clause 2 put the greatest value there
    prev = None
    for k in range(1, last):
        if in_n[k]:
            if prev is not None and values[prev] > values[k]:
                return "3", (points[prev], points[k])
            prev = k
    return None


def _report(prefix: str, failure) -> ValidationReport:
    if failure is None:
        return ValidationReport(True)
    clause, witness = failure
    return ValidationReport(False, prefix + clause, witness)


def validate_c(chain, op: ConsistencyOp, grid: int = 1000) -> ValidationReport:
    """Check the three pointwise postulates (clauses c1, c2, c3).

    Finite chains are scanned exhaustively.  On standard chains the symbolic
    kinds meet c1 and c2 by construction, and c3 is checked exactly at the
    grid points and the critical points; a failure is always a genuine
    counterexample.
    """
    return _report("c", _scan(*_samples(chain, op, grid)))


def validate_algebraic(chain, op: ConsistencyOp) -> ValidationReport:
    """Check the quantified equational form on a finite chain.

    The first condition asks x /\\ ~x /\\ O(x) = 0 for all x, the second
    pins the bounds, and the third is the quasi-equation: whenever
    (~~x /\\ (x -> y)) \\/ z = 1 it requires (O(x) -> O(y)) \\/ z = 1.
    """
    _require_host(chain, op)
    if not chain.is_finite:
        raise StandardChainUnsupported(
            "the quantified form is checked on finite chains; "
            "use validate_c for standard chains")
    vi = op.indices
    els = chain.elements
    n = chain.size
    top = n - 1
    neg = chain._neg_i
    res = chain._res_i
    for i in range(n):
        if min(i, neg[i], vi[i]) != 0:
            return ValidationReport(False, "o1", (els[i],))
    if vi[top] != top or vi[0] != top:
        w = els[top] if vi[top] != top else els[0]
        return ValidationReport(False, "o2", (w,))
    # z = 1 satisfies both sides and z < 1 leaves them to the cores, so o3
    # fails exactly at core 1 => core < 1, first witnessed by z = 0
    for i in range(n):
        nn_i = neg[neg[i]]
        for j in range(n):
            if min(nn_i, res[i][j]) == top and res[vi[i]][vi[j]] != top:
                return ValidationReport(False, "o3", (els[i], els[j], els[0]))
    return ValidationReport(True)


def enumerate_ops(chain: FiniteChain) -> list:
    """Every unary map on a finite chain that passes validate_c, in
    lexicographic order.

    The postulates force the values of min_op except on the zero-negation
    region N, where any non-decreasing tuple will do; so the candidates are
    those C(n + |N| - 1, |N|) tuples, and validate_c certifies each one.
    """
    if not chain.is_finite:
        raise StandardChainUnsupported("enumeration needs a finite chain")
    free = [i for i in range(1, chain.size - 1) if chain._neg_zero[i]]
    count = comb(chain.size + len(free) - 1, len(free))
    if count > ENUMERATION_BUDGET:
        raise TooLarge(f"{count} operators exceed the budget of {ENUMERATION_BUDGET}")
    forced = min_op(chain).indices
    out = []
    for tup in itertools.combinations_with_replacement(range(chain.size),
                                                       len(free)):
        indices = list(forced)
        for i, v in zip(free, tup):
            indices[i] = v
        op = ConsistencyOp(chain, "table", indices=tuple(indices),
                           name="enumerated")
        if validate_c(chain, op).valid:
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# Duality

def dual(op: ConsistencyOp) -> InconsistencyOp:
    """The pointwise negation of a consistency operator."""
    return InconsistencyOp(op.chain, base=op, name=f"dual({op.name})")


def bullet_table_op(chain: FiniteChain, values: Sequence, name: str = "") -> InconsistencyOp:
    return InconsistencyOp(chain, values=values, name=name)


def validate_bullet(chain, bop: InconsistencyOp, grid: int = 1000) -> ValidationReport:
    """Check the dual postulates (clauses b1, b2, b3): ~(x /\\ ~x) \\/
    bullet(x) = 1, value 0 at the bounds, and antitonicity on the
    zero-negation region."""
    # the mirror image of the consistency postulates: the same scan over the
    # values read upside down, top - v, an order reversal (not the negation).
    # b1 is clause 1: ~(x /\ ~x) is 1 exactly where x /\ ~x is 0, so the
    # join is 1 off the contradictory elements and asks bullet(x) = 1 on them.
    points, in_n, values, top = _samples(chain, bop, grid)
    return _report("b", _scan(points, in_n, [top - v for v in values], top))


# ---------------------------------------------------------------------------
# Interplay with the top projection

def op_from_delta(chain) -> ConsistencyOp:
    """The operator x -> D(x \\/ ~x); coincides with min_op pointwise."""
    if chain.is_finite:
        vals = tuple(chain.delta(max(x, chain.negation(x))) for x in chain.elements)
        return ConsistencyOp(chain, "min", values=vals, name="from-delta")
    return ConsistencyOp(chain, "min", name="from-delta")


def delta_from_op(chain, op: ConsistencyOp, x) -> Fraction:
    """The projection recovered from a consistency operator: O(x) /\\ x."""
    _require_host(chain, op)
    x = rat(x)
    return min(op.value(x), x)


# ---------------------------------------------------------------------------
# Operator names and spec files

def _unique_op(chain) -> ConsistencyOp:
    """The unique valid operator of a finite chain, the spec auto."""
    if not chain.is_finite:
        raise StandardChainUnsupported(
            "operator spec 'auto' needs a finite chain")
    ops = enumerate_ops(chain)
    if len(ops) != 1:
        raise OperatorSpecError(f"{chain.name} admits {len(ops)} operators; "
                                "pick one explicitly")
    return ops[0]


# The built-in operator specs: each name with the operator it gives on a
# chain, and the prefix of crisp:T[:open].  op_from_spec reads them, and a
# loaded operator may take no name they give (cli.Workspace.load).
BUILTIN_SPECS = {"min": min_op, "max": max_op, "delta": op_from_delta,
                 "auto": _unique_op}
CRISP_SPEC = "crisp:"


def op_from_spec(chain, spec: str) -> ConsistencyOp:
    """The operator a built-in spec gives: min, max, delta, crisp:T[:open],
    or auto, the unique valid operator of a finite chain."""
    if spec in BUILTIN_SPECS:
        return BUILTIN_SPECS[spec](chain)
    if spec.startswith(CRISP_SPEC):
        parts = spec.split(":")
        if parts[2:] not in ([], ["open"]):
            raise OperatorSpecError(f"operator spec {spec!r}: a crisp operator "
                                    "is crisp:T or crisp:T:open")
        return crisp_op(chain, rat(parts[1]), len(parts) == 2)
    raise OperatorSpecError(f"unknown operator spec {spec!r}")


def _flag(value: str) -> bool:
    flag = {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}.get(value.lower())
    if flag is None:
        raise OperatorSpecError(
            f"closed must be true/yes/1 or false/no/0, not {value!r}")
    return flag


def _breakpoints(value: str) -> list:
    bps = []
    for part in filter(None, map(str.strip, value.split(","))):
        x, _, v = part.partition("=")
        bps.append((rat(x.strip()), rat(v.strip())))
    return bps


def parse_op_file(text: str, chains: dict):
    """Parse 'op <name> on <chain>' followed by key: value lines.

    Kinds: min | max | crisp (threshold, closed) | piecewise (breakpoints,
    interpolation) | table (values).  A repeated key, or one the kind does
    not read, is an error.  Returns (name, operator).
    """
    def header(name, chain_name):
        if chain_name not in chains:
            raise OperatorSpecError(f"unknown chain {chain_name!r}")
        return name, chains[chain_name]

    (name, host), params = read_spec(
        text, "op <name> on <chain>", "operator file", OperatorSpecError,
        {"op": header, "kind": str, "threshold": rat, "closed": _flag,
         "interpolation": str, "breakpoints": _breakpoints,
         "values": _parse_rationals})
    kind = params.pop("kind", "")
    # each kind's constructor and the keys it reads, the one it needs first
    make, reads = {"min": (min_op, ()), "max": (max_op, ()),
                   "crisp": (crisp_op, ("threshold", "closed")),
                   "piecewise": (piecewise_op, ("breakpoints", "interpolation")),
                   "table": (table_op, ("values",))}.get(kind, (None, None))
    if reads is None:
        raise OperatorSpecError(f"unknown operator kind {kind!r}")
    if reads and reads[0] not in params:
        raise OperatorSpecError(f"{kind} operators need a {reads[0]} line")
    unread = sorted(set(params) - set(reads))
    if unread:
        raise OperatorSpecError(f"operator file key {unread[0]!r} is not "
                                f"read by {kind} operators")
    op = make(host, **params)
    op.name = name or op.name
    return name, op
