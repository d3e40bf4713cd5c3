r"""Consistency and inconsistency operators attached to chains.

A consistency operator marks how classically an element behaves: it must
vanish on contradictory elements (those x with x /\ ~x != 0), take the value
1 at the bounds, and be non-decreasing on the region where the negation is 0.
Inconsistency operators are the pointwise negated duals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .chain import FiniteChain, OutOfCarrier, rat

__all__ = [
    "OperatorError", "HostMismatch", "ThresholdOutsideN", "BreakpointOutsideN",
    "NotNondecreasing", "TooLarge", "StandardChainUnsupported",
    "OperatorSpecError",
    "ValidationReport", "ConsistencyOp", "InconsistencyOp",
    "table_op", "min_op", "max_op", "crisp_op", "piecewise_op",
    "enumerate_ops", "validate_c", "validate_algebraic", "dual",
    "bullet_table_op", "validate_bullet", "op_from_delta", "delta_from_op",
    "parse_op_file",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
ENUMERATION_BUDGET = 100_000  # the most operators enumerate_ops builds


class OperatorError(Exception):
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
    pass


class StandardChainUnsupported(OperatorError):
    pass


class OperatorSpecError(OperatorError, ValueError):
    """A malformed operator file or interpolation name."""


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    clause: Optional[str] = None
    witness: tuple = ()

    def __repr__(self) -> str:
        if self.valid:
            return "ValidationReport(valid)"
        w = ", ".join(str(x) for x in self.witness)
        return f"ValidationReport(invalid, clause={self.clause}, witness=({w}))"


class ConsistencyOp:
    """A unary map on a chain, evaluated exactly at rational points.

    Finite chains store an explicit value vector.  Standard chains store one
    of the symbolic kinds: min, max, crisp(threshold) or piecewise
    (breakpoints with step or linear interpolation on the zero-negation
    region).
    """

    def __init__(self, chain, kind: str, values: Optional[tuple] = None,
                 threshold: Optional[Fraction] = None, closed: bool = True,
                 breakpoints: tuple = (), interpolation: str = "linear",
                 name: str = ""):
        self.chain = chain
        self.kind = kind
        self.values = values
        self.threshold = threshold
        self.closed = closed
        self.breakpoints = tuple(breakpoints)
        self.interpolation = interpolation
        self.name = name or kind
        if not chain.is_finite:
            self._nset = chain.n_set()
            if threshold is not None:
                t = rat(threshold)
                self._threshold_nd = (t.numerator, t.denominator)

    def value(self, x) -> Fraction:
        chain = self.chain
        if chain.is_finite:
            x = rat(x)
            try:
                return self.values[chain.index[x]]
            except KeyError:
                raise OutOfCarrier(f"{x} is not an element of {chain.name}")
        x = chain._check(x)
        n, d = self.value_pair(x.numerator, x.denominator)
        return _ONE if n == d else _ZERO if n == 0 else Fraction(n, d)

    def value_pair(self, n: int, d: int) -> tuple:
        """The value at n/d in [0,1] (d > 0) on a standard chain, as a pair."""
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

    def pointwise(self, points) -> list:
        return [self.value(x) for x in points]

    def critical_points(self) -> list:
        """The breakpoint abscissae and the threshold, where the value
        function can change shape; grid scans add them to their points."""
        points = [x for x, _ in self.breakpoints]
        if self.threshold is not None:
            points.append(self.threshold)
        return points

    def __repr__(self) -> str:
        return f"ConsistencyOp({self.name} on {self.chain.name})"


class InconsistencyOp:
    """Dual marker; either an explicit finite vector or the pointwise
    negation of a consistency operator."""

    def __init__(self, chain, values: Optional[tuple] = None,
                 base: Optional[ConsistencyOp] = None, name: str = ""):
        if values is None and base is None:
            raise ValueError("an inconsistency operator needs values or a base")
        self.chain = chain
        self.values = values
        self.base = base
        self.name = name or (f"dual({base.name})" if base else "table")

    def value(self, x) -> Fraction:
        x = rat(x)
        chain = self.chain
        if self.values is not None:
            try:
                return self.values[chain.index[x]]
            except KeyError:
                raise OutOfCarrier(f"{x} is not an element of {chain.name}")
        return chain.negation(self.base.value(x))

    def critical_points(self) -> list:
        """Those of the base operator; none for an explicit vector."""
        return self.base.critical_points() if self.base is not None else []

    def __repr__(self) -> str:
        return f"InconsistencyOp({self.name} on {self.chain.name})"


# ---------------------------------------------------------------------------
# Constructors

def table_op(chain: FiniteChain, values: Sequence, name: str = "") -> ConsistencyOp:
    """An arbitrary unary map on a finite chain, given as a value vector.

    Not validated here; feed it to validate_c or validate_algebraic.
    """
    if not chain.is_finite:
        raise StandardChainUnsupported("value tables need a finite chain")
    vals = tuple(rat(v) for v in values)
    if len(vals) != chain.size:
        raise OperatorError(f"expected {chain.size} values, got {len(vals)}")
    for v in vals:
        if v not in chain.index:
            raise OutOfCarrier(f"operator value {v} is not a chain element")
    return ConsistencyOp(chain, "table", values=vals, name=name or "table")


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


def _materialize(chain: FiniteChain, fn, kind: str, name: str = "", **params):
    vals = tuple(fn(x) for x in chain.elements)
    return ConsistencyOp(chain, kind, values=vals, name=name or kind, **params)


def min_op(chain) -> ConsistencyOp:
    """1 exactly at the bounds, 0 elsewhere; the pointwise least valid operator."""
    if chain.is_finite:
        top = chain.size - 1
        vals = tuple(_ONE if i in (0, top) else _ZERO for i in range(chain.size))
        return ConsistencyOp(chain, "min", values=vals, name="min")
    return ConsistencyOp(chain, "min", name="min")


def max_op(chain) -> ConsistencyOp:
    """1 on the bounds and the whole zero-negation region; pointwise greatest."""
    if chain.is_finite:
        nset = chain.n_set()
        top = chain.size - 1
        vals = tuple(_ONE if (i in (0, top) or x in nset) else _ZERO
                     for i, x in enumerate(chain.elements))
        return ConsistencyOp(chain, "max", values=vals, name="max")
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
    if chain.is_finite:
        nset = chain.n_set()

        def fn(x):
            if x == _ZERO or x == _ONE:
                return _ONE
            if x not in nset:
                return _ZERO
            return _ONE if (x >= t if closed else x > t) else _ZERO

        return _materialize(chain, fn, "crisp", name=label)
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
    label = name or "piecewise"
    if chain.is_finite:
        def fn(x):
            if x == _ZERO or x == _ONE:
                return _ONE
            if x not in nset:
                return _ZERO
            return _interpolate(bps, interpolation, x)

        vals = tuple(fn(x) for x in chain.elements)
        for v in vals:
            if v not in chain.index:
                raise OutOfCarrier(f"interpolated value {v} is not a chain element")
        return ConsistencyOp(chain, "piecewise", values=vals, breakpoints=bps,
                             interpolation=interpolation, name=label)
    return ConsistencyOp(chain, "piecewise", breakpoints=bps,
                         interpolation=interpolation, name=label)


# ---------------------------------------------------------------------------
# Validation

def _require_host(chain, op):
    if op.chain is not chain:
        raise HostMismatch("the operator is hosted on a different chain")


def _ladder(chain: FiniteChain) -> list:
    """The indices of the zero-negation region N, then the top: where an
    operator must rise (c3) and its dual fall (b3); elsewhere both are forced."""
    top = chain.size - 1
    neg = chain._neg_i
    return [i for i in range(1, top) if neg[i] == 0] + [top]


def validate_c(chain, op: ConsistencyOp, grid: int = 1000) -> ValidationReport:
    """Check the three pointwise postulates.

    Finite chains are scanned exhaustively.  On standard chains the verdict
    combines the structural guarantees of the symbolic kinds with exact
    checks at breakpoints and grid points; a grid failure is always a
    genuine counterexample.
    """
    _require_host(chain, op)
    if chain.is_finite:
        vals = op.values
        n = chain.size
        top = n - 1
        neg = chain._neg_i
        # c1: contradictory elements must be sent to 0
        for i in range(n):
            if i != 0 and neg[i] != 0 and vals[i] != _ZERO:
                return ValidationReport(False, "c1", (chain.elements[i],))
        if vals[0] != _ONE or vals[top] != _ONE:
            w = chain.elements[0] if vals[0] != _ONE else chain.elements[top]
            return ValidationReport(False, "c2", (w,))
        # c3: non-decreasing on the zero-negation region up to the top
        ladder = _ladder(chain)
        for a, b in zip(ladder, ladder[1:]):
            if vals[a] > vals[b]:
                return ValidationReport(False, "c3",
                                        (chain.elements[a], chain.elements[b]))
        return ValidationReport(True)

    nset = chain.n_set()
    pts = chain.sample_points(grid, extra=op.critical_points())
    if op.value(_ZERO) != _ONE:
        return ValidationReport(False, "c2", (_ZERO,))
    if op.value(_ONE) != _ONE:
        return ValidationReport(False, "c2", (_ONE,))
    prev = None
    for x in pts:
        v = op.value(x)
        if x not in nset and _ZERO < x < _ONE and v != _ZERO:
            return ValidationReport(False, "c1", (x,))
        if x in nset:
            if prev is not None and v < prev[1]:
                return ValidationReport(False, "c3", (prev[0], x))
            prev = (x, v)
    return ValidationReport(True)


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
    vals = op.values
    els = chain.elements
    n = chain.size
    top = n - 1
    neg = chain._neg_i
    res = chain._res_i
    idx = chain.index
    vi = tuple(idx[v] for v in vals)
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
    free = _ladder(chain)[:-1]
    count = comb(chain.size + len(free) - 1, len(free))
    if count > ENUMERATION_BUDGET:
        raise TooLarge(f"{count} operators exceed the budget of {ENUMERATION_BUDGET}")
    forced = min_op(chain).values
    out = []
    for tup in itertools.combinations_with_replacement(chain.elements, len(free)):
        vals = list(forced)
        for i, v in zip(free, tup):
            vals[i] = v
        op = ConsistencyOp(chain, "table", values=tuple(vals), name="enumerated")
        if validate_c(chain, op).valid:
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# Duality

def dual(op: ConsistencyOp) -> InconsistencyOp:
    """The pointwise negation of a consistency operator."""
    chain = op.chain
    if chain.is_finite:
        vals = tuple(chain.negation(v) for v in op.values)
        return InconsistencyOp(chain, values=vals, base=op, name=f"dual({op.name})")
    return InconsistencyOp(chain, base=op, name=f"dual({op.name})")


def bullet_table_op(chain: FiniteChain, values: Sequence, name: str = "") -> InconsistencyOp:
    if not chain.is_finite:
        raise StandardChainUnsupported("value tables need a finite chain")
    vals = tuple(rat(v) for v in values)
    if len(vals) != chain.size:
        raise OperatorError(f"expected {chain.size} values, got {len(vals)}")
    for v in vals:
        if v not in chain.index:
            raise OutOfCarrier(f"operator value {v} is not a chain element")
    return InconsistencyOp(chain, values=vals, name=name or "table")


def validate_bullet(chain, bop: InconsistencyOp, grid: int = 1000) -> ValidationReport:
    """Check the dual postulates: ~(x /\\ ~x) \\/ bullet(x) = 1, value 0 at the
    bounds, and antitonicity on the zero-negation region."""
    _require_host(chain, bop)
    if chain.is_finite:
        els = chain.elements
        vals = [bop.value(x) for x in els]
        for x, v in zip(els, vals):
            if max(chain.negation(min(x, chain.negation(x))), v) != _ONE:
                return ValidationReport(False, "b1", (x,))
        for i in (0, -1):
            if vals[i] != _ZERO:
                return ValidationReport(False, "b2", (els[i],))
        ladder = _ladder(chain)
        for a, b in zip(ladder, ladder[1:]):
            if vals[a] < vals[b]:
                return ValidationReport(False, "b3", (els[a], els[b]))
        return ValidationReport(True)

    nset = chain.n_set()
    pts = chain.sample_points(grid, extra=bop.critical_points())
    if bop.value(_ZERO) != _ZERO:
        return ValidationReport(False, "b2", (_ZERO,))
    if bop.value(_ONE) != _ZERO:
        return ValidationReport(False, "b2", (_ONE,))
    prev = None
    for x in pts:
        v = bop.value(x)
        if _ZERO < x < _ONE and x not in nset and v != _ONE:
            return ValidationReport(False, "b1", (x,))
        if x in nset:
            if prev is not None and v > prev[1]:
                return ValidationReport(False, "b3", (prev[0], x))
            prev = (x, v)
    return ValidationReport(True)


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
# Operator spec files

_FLAGS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def parse_op_file(text: str, chains: dict):
    """Parse 'op <name> on <chain>' followed by key: value lines.

    Kinds: min | max | crisp (threshold, closed) | piecewise (breakpoints,
    interpolation) | table (values).  Returns (name, operator).
    """
    name = ""
    host = None
    kind = ""
    params: dict = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("op "):
            rest = ln[3:].strip()
            name, _, chain_name = rest.partition(" on ")
            name, chain_name = name.strip(), chain_name.strip()
            if chain_name not in chains:
                raise OperatorSpecError(f"unknown chain {chain_name!r}")
            host = chains[chain_name]
            continue
        key, _, value = ln.partition(":")
        key, value = key.strip(), value.strip()
        if key == "kind":
            kind = value
        elif key == "threshold":
            params["threshold"] = rat(value)
        elif key == "closed":
            flag = _FLAGS.get(value.lower())
            if flag is None:
                raise OperatorSpecError(
                    f"closed must be true/yes/1 or false/no/0, not {value!r}")
            params["closed"] = flag
        elif key == "interpolation":
            params["interpolation"] = value
        elif key == "breakpoints":
            bps = []
            for part in value.split(","):
                part = part.strip()
                if not part:
                    continue
                x, _, v = part.partition("=")
                bps.append((rat(x.strip()), rat(v.strip())))
            params["breakpoints"] = bps
        elif key == "values":
            params["values"] = [rat(tok) for tok in value.split()]
        else:
            raise OperatorSpecError(f"unknown operator file key {key!r}")
    if host is None:
        raise OperatorSpecError("operator file must start with 'op <name> on <chain>'")
    needs = {"crisp": "threshold", "piecewise": "breakpoints",
             "table": "values"}.get(kind)
    if needs is not None and needs not in params:
        raise OperatorSpecError(f"{kind} operators need a {needs} line")
    if kind == "min":
        op = min_op(host)
    elif kind == "max":
        op = max_op(host)
    elif kind == "crisp":
        op = crisp_op(host, params["threshold"], params.get("closed", True))
    elif kind == "piecewise":
        op = piecewise_op(host, params["breakpoints"],
                          params.get("interpolation", "linear"))
    elif kind == "table":
        op = table_op(host, params["values"])
    else:
        raise OperatorSpecError(f"unknown operator kind {kind!r}")
    op.name = name or op.name
    return name, op
