"""Linearly ordered residuated algebras over [0,1] with exact rational arithmetic.

Two kinds of chains are supported: finite chains carried by the canonical
grid {i/(n-1)} and standard chains assembled as ordinal sums of Lukasiewicz,
Godel and product components with rational endpoints.  All operations are
exact; no floating point is used anywhere.

Finite chains work on element indices through precomputed tables.  Standard
chains evaluate the closed form of each component family on a component
[lo, hi] of width w = hi - lo:

    Lukasiewicz  x & y = max(lo, x + y - hi)       x -> y = hi - x + y
    Godel        x & y = min(x, y)                 x -> y = y
    product      x & y = lo + (x-lo)(y-lo)/w       x -> y = lo + w(y-lo)/(x-lo)

where the residua are those for x > y (x -> y = 1 when x <= y), and two
arguments that share no component combine as min(x, y) and y.

The pair kernel.  Both kinds of chain do their arithmetic on integer pairs
(n, d) standing for n/d with d > 0; a pair need not be reduced.  Comparing
a/b with c/d is the integer comparison of a*d with c*b.  A standard chain
computes each closed form above as one integer numerator over one integer
denominator.  A finite chain of size k reads its index tables at the grid
indices of the two pairs (a/b is the element i/(k-1) when a*(k-1) = i*b
for an index i; two pairs (i, k-1), the form in which validate_mtl_laws
passes a finite chain's elements, index the tables directly) and raises
OutOfCarrier for any other pair.  tnorm_pair and residuum_pair are that
kernel.  StandardChain.tnorm and residuum check their arguments, call the
kernel, and build one normalized Fraction from the result.  Loops over many
points (law_violations here, on both kinds, and the propagation scan of the
suite) read the points from a table of pairs, converted and checked once,
and take index tuples into it, so they pay for no Fraction until they
report a witness, and the witness is the caller's own value.

The value API.  Chain, the base class of both kinds, writes pair, contains,
negation (x -> 0), delta, meet, join and n_set once, on top of the carrier
check _check(x) that each kind supplies.  A kind keeps only its carrier
rule, its pair kernel, tnorm and residuum.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import InputError

__all__ = [
    "Rat", "rat", "ChainError", "OutOfCarrier", "TableNotTnorm",
    "NegationNotDecreasing", "SizeMismatch", "GapOrOverlap",
    "NonRationalEndpoint", "NotAFilter", "ChainSpecError",
    "BadGridDenominator", "LUKASIEWICZ", "GODEL", "PRODUCT",
    "Component", "NSet", "FiniteChain", "StandardChain", "Chain",
    "validate_mtl_laws", "law_violations", "is_filter",
    "upward_filter", "quotient_by_filter", "read_spec", "spec_kind",
    "parse_chain_file", "builtin_chains",
]

Rat = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints (not bools) and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # a malformed or n/0 string
            pass
    raise NonRationalEndpoint(f"not an exact rational: {x!r}")


class ChainError(InputError):
    pass


class OutOfCarrier(ChainError):
    pass


class TableNotTnorm(ChainError):
    """The candidate table violates a monoid or order law; carries a witness."""

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"{law} fails at {witness}")

    def __reduce__(self):
        # Exception pickles as type(*self.args), and args holds only the
        # formatted message
        return type(self), (self.law, self.witness)


class NegationNotDecreasing(ChainError):
    pass


class SizeMismatch(ChainError):
    pass


class GapOrOverlap(ChainError):
    pass


class NonRationalEndpoint(ChainError):
    pass


class NotAFilter(ChainError):
    pass


class ChainSpecError(ChainError, ValueError):
    """A malformed chain file, or an unknown family."""


class BadGridDenominator(ChainError):
    """A sample grid {i/d} asked for with d below 1."""


LUKASIEWICZ = "lukasiewicz"
GODEL = "godel"
PRODUCT = "product"


class Component(namedtuple("Component", "family lo hi")):
    __slots__ = ()

    def __new__(cls, family: str, lo: Fraction, hi: Fraction):
        if family not in (LUKASIEWICZ, GODEL, PRODUCT):
            raise ChainSpecError(f"unknown component family {family!r}")
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            raise NonRationalEndpoint(f"endpoints must be rational: {lo}, {hi}")
        if not lo < hi:
            raise GapOrOverlap(f"empty component [{lo}, {hi}]")
        return super().__new__(cls, family, lo, hi)


class NSet:
    """The elements below 1 whose negation is 0.

    Finite chains carry the explicit set; standard chains report either the
    empty set or the interval [a,1) / (a,1) with rational a.
    """

    def __init__(self, elements: Optional[frozenset] = None,
                 lower: Optional[Fraction] = None, closed: bool = True,
                 empty: bool = False):
        self.elements = elements
        self.lower = lower
        self.closed = closed
        self.empty = empty or (elements is not None and not elements)
        if lower is not None:
            self._lower_nd = (lower.numerator, lower.denominator)

    def __contains__(self, x) -> bool:
        if self.empty:
            return False
        if self.elements is not None:
            return x in self.elements
        x = rat(x)
        return self.contains_pair(x.numerator, x.denominator)

    def contains_pair(self, n: int, d: int) -> bool:
        """Membership of n/d (d > 0) in the N-set."""
        if self.empty or n >= d:
            return False
        if self.elements is not None:
            return Fraction(n, d) in self.elements
        ln, ld = self._lower_nd
        diff = n * ld - ln * d  # sign of n/d - lower
        return diff >= 0 if self.closed else diff > 0

    def infimum(self) -> Optional[Fraction]:
        if self.empty:
            return None
        if self.elements is not None:
            return min(self.elements)
        return self.lower

    def describe(self) -> str:
        if self.empty:
            return "empty"
        if self.elements is not None:
            return "{" + ", ".join(str(x) for x in sorted(self.elements)) + "}"
        left = "[" if self.closed else "("
        return f"{left}{self.lower}, 1)"

    def __repr__(self) -> str:
        return f"NSet({self.describe()})"


# ---------------------------------------------------------------------------
# The value API of both kinds

class Chain:
    """What both kinds of chain share: the value API over the carrier.

    Each kind supplies its carrier rule as _check(x), which gives x as a
    Fraction or raises (NonRationalEndpoint, OutOfCarrier) when x is off
    the carrier; its pair kernel, tnorm and residuum; and its N-set as
    _nset.  Every other operation is written here once.
    """

    def pair(self, x) -> tuple:
        """x as (numerator, denominator), checked against the carrier."""
        v = self._check(x)
        return v.numerator, v.denominator

    def contains(self, x) -> bool:
        try:
            self._check(x)
            return True
        except ChainError:
            return False

    def negation(self, x) -> Fraction:
        return self.residuum(x, _ZERO)

    def delta(self, x) -> Fraction:
        v = self._check(x)
        return _ONE if v.numerator == v.denominator else _ZERO

    def meet(self, x, y) -> Fraction:
        return min(self._check(x), self._check(y))

    def join(self, x, y) -> Fraction:
        return max(self._check(x), self._check(y))

    def n_set(self) -> NSet:
        return self._nset


# ---------------------------------------------------------------------------
# Finite chains

def _validate_tnorm_table(table: Sequence[Sequence[int]], n: int) -> None:
    """Check commutativity, associativity, unit and monotonicity on indices."""
    top = n - 1
    for i in range(n):
        if table[i][top] != i:
            raise TableNotTnorm("unit", (i, top))
        for j in range(i, n):
            if table[i][j] != table[j][i]:
                raise TableNotTnorm("commutativity", (i, j))
    for i in range(n):
        row = table[i]
        for j in range(1, n):
            if row[j] < row[j - 1]:
                raise TableNotTnorm("monotonicity", (i, j))
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            for k in range(n):
                if table[tij][k] != table[i][table[j][k]]:
                    raise TableNotTnorm("associativity", (i, j, k))


def _residuum_from_table(table: Sequence[Sequence[int]], n: int) -> list:
    res = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # max z with i * z <= j; exists because i * 0 = 0 <= j
            z = n - 1
            while table[i][z] > j:
                z -= 1
            res[i][j] = z
    return res


def _family_table(family: str, n: int) -> list:
    top = n - 1
    if family == LUKASIEWICZ:
        return [[max(0, i + j - top) for j in range(n)] for i in range(n)]
    if family == GODEL:
        return [[min(i, j) for j in range(n)] for i in range(n)]
    raise ChainSpecError(f"no finite table family {family!r}")


def _check_size(n: int) -> None:
    if n < 2:
        raise SizeMismatch("a chain needs at least two elements")


def _grid_index(n: int, d: int, top: int) -> Optional[int]:
    """The index i with n/d = i/top (d > 0), or None when n/d is not on the
    grid {i/top}: the carrier rule of every finite chain."""
    i, r = divmod(n * top, d)
    return i if not r and 0 <= i <= top else None


def _grid_denominator(d: int) -> int:
    """d, the denominator of a sample grid {i/d}; below 1 it raises
    BadGridDenominator."""
    if d < 1:
        raise BadGridDenominator(f"the grid denominator must be at least 1, not {d}")
    return d


def _grid_indices(values: Sequence, top: int, what: str) -> list:
    """The grid index of each of values, a table or negation row."""
    out = []
    for v in values:
        v = rat(v)
        i = _grid_index(v.numerator, v.denominator, top)
        if i is None:
            raise OutOfCarrier(f"{what} value {v} is not a grid point")
        out.append(i)
    return out


class FiniteChain(Chain):
    """A finite residuated chain on the canonical grid {i/(n-1)}."""

    is_finite = True

    def __init__(self, table: Sequence[Sequence[int]], name: str = ""):
        n = len(table)
        _check_size(n)
        for row in table:
            if len(row) != n:
                raise SizeMismatch(f"table is not {n}x{n}")
        _validate_tnorm_table(table, n)
        self.size = n
        self._top = n - 1
        self.name = name or f"chain{n}"
        self.elements = tuple(Fraction(i, n - 1) for i in range(n))
        self._tnorm_i = tuple(tuple(row) for row in table)
        self._res_i = tuple(tuple(row) for row in _residuum_from_table(table, n))
        self._neg_i = tuple(self._res_i[i][0] for i in range(n))
        # index tables of the other connectives, for compiled evaluation
        self._meet_i = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
        self._join_i = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
        self._iff_i = tuple(tuple(min(self._res_i[i][j], self._res_i[j][i])
                                  for j in range(n)) for i in range(n))
        self._delta_i = (0,) * (n - 1) + (n - 1,)
        # whether the negation is 0 at each index: N below the top, and the top
        self._neg_zero = tuple(v == 0 for v in self._neg_i)
        self._nset = NSet(frozenset(x for x, z in zip(self.elements[:-1],
                                                      self._neg_zero) if z))
        # the tables of semantics' column scan, each built when first read
        self._kernel = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_family(cls, family: str, n: int, name: str = "") -> "FiniteChain":
        return cls(_family_table(family, n), name=name or f"{family[0].upper()}{n}")

    @classmethod
    def from_values_table(cls, rows: Sequence[Sequence[Fraction]],
                          name: str = "") -> "FiniteChain":
        """Build from an n x n table of rational values on the canonical grid."""
        n = len(rows)
        _check_size(n)
        table = []
        for row in rows:
            if len(row) != n:
                raise SizeMismatch(f"table is not {n}x{n}")
            table.append(_grid_indices(row, n - 1, "table"))
        return cls(table, name=name)

    @classmethod
    def from_negation(cls, neg_values: Sequence[Fraction], name: str = "") -> "FiniteChain":
        """Weak nilpotent minimum table from a negation: x*y = 0 if y <= n(x),
        else min(x, y)."""
        n = len(neg_values)
        _check_size(n)
        neg = _grid_indices(neg_values, n - 1, "negation")
        if neg[0] != n - 1 or neg[n - 1] != 0:
            raise NegationNotDecreasing("negation must send 0 to 1 and 1 to 0")
        for i in range(1, n):
            if neg[i] > neg[i - 1]:
                raise NegationNotDecreasing(f"negation increases at index {i}")
        table = [[0 if j <= neg[i] else min(i, j) for j in range(n)] for i in range(n)]
        return cls(table, name=name)

    @classmethod
    def ordinal_sum(cls, components: Sequence[tuple], name: str = "") -> "FiniteChain":
        """Glue finite family components, identifying consecutive endpoints.

        components is a sequence of (family, size) pairs with size >= 2.
        """
        if not components:
            raise SizeMismatch("ordinal sum needs at least one component")
        sizes = [int(s) for _, s in components]
        if any(s < 2 for s in sizes):
            raise SizeMismatch("each component needs at least two elements")
        n = sum(sizes) - (len(sizes) - 1)
        offsets = []
        start = 0
        for fam, s in components:
            offsets.append((fam, start, start + s - 1))
            start += s - 1
        table = [[min(i, j) for j in range(n)] for i in range(n)]
        for fam, lo, hi in offsets:
            local = _family_table(fam, hi - lo + 1)
            for i in range(lo, hi + 1):
                for j in range(lo, hi + 1):
                    table[i][j] = lo + local[i - lo][j - lo]
        return cls(table, name=name)

    # -- operations ---------------------------------------------------------

    def _pair_idx(self, n: int, d: int) -> int:
        """The index of the element n/d (d > 0, not necessarily reduced)."""
        i = _grid_index(n, d, self._top)
        if i is None:
            raise OutOfCarrier(
                f"{Fraction(n, d)} is not an element of {self.name}")
        return i

    def _idx(self, x) -> int:
        """The index of the element x; an error names x in lowest terms."""
        v = rat(x)
        return self._pair_idx(v.numerator, v.denominator)

    def _check(self, x) -> Fraction:
        v = rat(x)
        self._pair_idx(v.numerator, v.denominator)
        return v

    def tnorm_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """x & y for elements x = a/b and y = c/d (b, d > 0), as a pair."""
        top = self._top
        if b == d == top and 0 <= a <= top and 0 <= c <= top:
            return self._tnorm_i[a][c], top  # two grid pairs (i, k-1)
        return self._tnorm_i[self._pair_idx(a, b)][self._pair_idx(c, d)], top

    def residuum_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """x -> y for elements x = a/b and y = c/d (b, d > 0), as a pair."""
        top = self._top
        if b == d == top and 0 <= a <= top and 0 <= c <= top:
            return self._res_i[a][c], top
        return self._res_i[self._pair_idx(a, b)][self._pair_idx(c, d)], top

    def tnorm(self, x, y) -> Fraction:
        return self.elements[self._tnorm_i[self._idx(x)][self._idx(y)]]

    def residuum(self, x, y) -> Fraction:
        return self.elements[self._res_i[self._idx(x)][self._idx(y)]]

    def is_smtl(self):
        """True when x /\\ ~x = 0 everywhere, else (False, witness)."""
        for i, x in enumerate(self.elements):
            if min(i, self._neg_i[i]) != 0:
                return False, x
        return True, None

    def __repr__(self) -> str:
        return f"FiniteChain({self.name}, n={self.size})"


# ---------------------------------------------------------------------------
# Standard chains

class StandardChain(Chain):
    """An ordinal sum of Lukasiewicz / Godel / product components on [0,1].

    The strong conjunction and the residuum use the per-family closed forms
    listed in the module docstring.  The arguments are located by integer
    cross-multiplication against the component endpoints: the component
    used is the first one that contains the larger argument, and it applies
    only when it also contains the smaller one, so at a shared endpoint the
    lower component wins.  Godel components need no arithmetic at all.
    """

    is_finite = False

    def __init__(self, components: Sequence, name: str = ""):
        # a Component is a (family, lo, hi) triple too
        comps = [Component(fam, rat(lo), rat(hi))
                 for fam, lo, hi in components]
        if not comps:
            raise GapOrOverlap("at least one component is required")
        if comps[0].lo != 0 or comps[-1].hi != 1:
            raise GapOrOverlap("components must start at 0 and end at 1")
        for a, b in zip(comps, comps[1:]):
            if a.hi != b.lo:
                raise GapOrOverlap(f"components do not tile at {a.hi} vs {b.lo}")
        self.components = tuple(comps)
        self.name = name or "+".join(c.family[0].upper() for c in comps)
        self.size = None
        # (family, p, q, r, s, wn, wd) with lo = p/q, hi = r/s, w = wn/wd
        self._kernel = tuple(
            (c.family, c.lo.numerator, c.lo.denominator,
             c.hi.numerator, c.hi.denominator,
             (c.hi - c.lo).numerator, (c.hi - c.lo).denominator)
            for c in comps)
        first = comps[0]
        if first.family != LUKASIEWICZ:
            self._nset = NSet(lower=_ZERO, closed=False)
        elif first.hi == _ONE:
            self._nset = NSet(empty=True)
        else:
            self._nset = NSet(lower=first.hi)

    def _check(self, x) -> Fraction:
        v = x if type(x) is Fraction else rat(x)
        if not 0 <= v.numerator <= v.denominator:
            raise OutOfCarrier(f"{x} is outside [0,1]")
        return v

    def tnorm_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """x & y for x = a/b and y = c/d in [0,1] (b, d > 0), as a pair."""
        if a * d > c * b:
            a, b, c, d = c, d, a, b
        # now x <= y; find the first component holding y
        for fam, p, q, r, s, wn, wd in self._kernel:
            if c * s <= r * d:
                break
        if fam == GODEL or a * q < p * b:
            return a, b
        if fam == LUKASIEWICZ:
            den = b * d * s
            num = (a * d + c * b) * s - r * b * d
            return (p, q) if num * q <= p * den else (num, den)
        return (p * b * d * q * wn + (a * q - p * b) * (c * q - p * d) * wd,
                b * d * q * q * wn)

    def residuum_pair(self, a: int, b: int, c: int, d: int) -> tuple:
        """x -> y for x = a/b and y = c/d in [0,1] (b, d > 0), as a pair."""
        if a * d <= c * b:
            return 1, 1
        # y < x; find the first component holding x
        for fam, p, q, r, s, wn, wd in self._kernel:
            if a * s <= r * b:
                break
        if fam == GODEL or c * q < p * d:
            return c, d
        if fam == LUKASIEWICZ:
            return r * b * d - a * d * s + c * b * s, b * d * s
        xl = a * q - p * b  # (x - lo) * b * q > 0
        return p * wd * d * xl + q * wn * b * (c * q - p * d), q * wd * d * xl

    # The wrappers hand back an argument, or the constant 0 or 1, instead
    # of building an equal Fraction: min, the Godel residuum and x -> y = 1
    # for x <= y are the common results.
    def tnorm(self, x, y) -> Fraction:
        x, y = self._check(x), self._check(y)
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        n, m = self.tnorm_pair(a, b, c, d)
        if n == a and m == b:
            return x
        if n == c and m == d:
            return y
        return _ZERO if n == 0 else Fraction(n, m)

    def residuum(self, x, y) -> Fraction:
        x, y = self._check(x), self._check(y)
        c, d = y.numerator, y.denominator
        n, m = self.residuum_pair(x.numerator, x.denominator, c, d)
        if n == m:
            return _ONE
        if n == c and m == d:
            return y
        return Fraction(n, m)

    def is_smtl(self):
        first = self.components[0]
        if first.family == LUKASIEWICZ:
            w = first.hi / 2
            return False, w
        return True, None

    def sample_points(self, denominator: int = 60, extra: Iterable = ()) -> list:
        """Grid {i/d} joined with component endpoints and any extras in
        [0,1], sorted and without repeats.

        The grid is built in order; a point p/q (in lowest terms) lies on
        it exactly when q divides d, and the few that do not are inserted
        by bisection.  A denominator below 1 raises BadGridDenominator.
        """
        _grid_denominator(denominator)
        pts = [Fraction(i, denominator) for i in range(denominator + 1)]
        off = {c.lo for c in self.components} | {c.hi for c in self.components}
        for e in extra:
            v = rat(e)
            if _ZERO <= v <= _ONE:
                off.add(v)
        for v in off:
            if denominator % v.denominator:
                bisect.insort(pts, v)
        return pts

    def __repr__(self) -> str:
        comps = ", ".join(f"{c.family}[{c.lo},{c.hi}]" for c in self.components)
        return f"StandardChain({self.name}: {comps})"


# ---------------------------------------------------------------------------
# Law checking

def validate_mtl_laws(chain, triples: Optional[Iterable] = None) -> list:
    """Check associativity, commutativity, unit, monotonicity, adjointness
    and prelinearity on triples (x, y, z) of chain elements.

    triples defaults to every element triple of a finite chain, in
    itertools.product order, and is required on a standard chain.  Each
    check is exact, so a pass certifies the laws for those triples.
    Returns a list of (law, witness) violations, with the points as given,
    empty when everything holds.
    """
    if triples is None:
        if not chain.is_finite:
            raise ValueError("standard chains need explicit triples")
        points = chain.elements
        pairs = [(i, chain.size - 1) for i in range(chain.size)]
        indexed = itertools.product(range(chain.size), repeat=3)
    else:
        points = []
        for x, y, z in triples:
            points += (x, y, z)
        pairs = [chain.pair(x) for x in points]
        n = len(points)
        indexed = zip(range(0, n, 3), range(1, n, 3), range(2, n, 3))
    return law_violations(chain, pairs, indexed, points)


def law_violations(chain, pairs: Sequence, triples: Iterable,
                   values: Sequence) -> list:
    """validate_mtl_laws over index triples (i, j, k) into a table of
    points, on either kind of chain.

    pairs[i] is point i as a pair (numerator, denominator) on the carrier,
    not necessarily reduced, and values[i] is the same point as the caller's
    own value, reported in witnesses.  Rationals are compared by
    cross-multiplication.  The unit law concerns one point, so it is
    checked once per point of the table.
    """
    bad = []
    tnorm, residuum = chain.tnorm_pair, chain.residuum_pair
    unit_fails = []
    for xn, xd in pairs:
        un, ud = tnorm(xn, xd, 1, 1)
        unit_fails.append(un * xd != xn * ud)
    for i, j, k in triples:
        xn, xd = pairs[i]
        yn, yd = pairs[j]
        zn, zd = pairs[k]
        tn, td = tnorm(xn, xd, yn, yd)  # x & y
        un, ud = tnorm(yn, yd, xn, xd)
        if tn * ud != un * td:
            bad.append(("commutativity", (values[i], values[j])))
            continue
        un, ud = tnorm(tn, td, zn, zd)
        vn, vd = tnorm(yn, yd, zn, zd)
        vn, vd = tnorm(xn, xd, vn, vd)
        if un * vd != vn * ud:
            bad.append(("associativity", (values[i], values[j], values[k])))
            continue
        if unit_fails[i]:
            bad.append(("unit", (values[i],)))
            continue
        if yn * zd <= zn * yd:
            un, ud = tnorm(xn, xd, zn, zd)
            if tn * ud > un * td:
                bad.append(("monotonicity", (values[i], values[j], values[k])))
                continue
        # adjointness both ways
        un, ud = residuum(yn, yd, zn, zd)
        if (tn * zd <= zn * td) != (xn * ud <= un * xd):
            bad.append(("adjointness", (values[i], values[j], values[k])))
            continue
        un, ud = residuum(xn, xd, yn, yd)
        vn, vd = residuum(yn, yd, xn, xd)
        if vn * ud > un * vd:
            un, ud = vn, vd
        if un != ud:  # max(x -> y, y -> x) is not 1
            bad.append(("prelinearity", (values[i], values[j])))
    return bad


# ---------------------------------------------------------------------------
# Filters and quotients

def is_filter(chain: FiniteChain, elements: Iterable) -> tuple:
    """Check that elements form an up-closed, tnorm-closed set containing 1.

    Returns (True, None) or (False, reason string).
    """
    if not chain.is_finite:
        raise NotAFilter("filters are only supported on finite chains")
    f = {rat(x) for x in elements}
    for x in f:
        if not chain.contains(x):
            return False, f"{x} is not a chain element"
    if _ONE not in f:
        return False, "1 is missing"
    for x in f:
        for y in chain.elements:
            if y >= x and y not in f:
                return False, f"not up-closed: {x} in filter but {y} above it is not"
    for x in f:
        for y in f:
            if chain.tnorm(x, y) not in f:
                return False, f"not closed under the strong conjunction: {x}*{y} = {chain.tnorm(x, y)}"
    return True, None


def upward_filter(chain: FiniteChain, a) -> frozenset:
    """The up-set [a, 1] as a candidate filter."""
    if not chain.is_finite:
        raise NotAFilter("filters are only supported on finite chains")
    a = rat(a)
    return frozenset(x for x in chain.elements if x >= a)


def quotient_by_filter(chain: FiniteChain, filter_elements: Iterable):
    """Collapse a finite chain by the congruence induced by a filter.

    x and y are identified when both residua land in the filter.  Returns
    the quotient chain (revalidated from its induced table) and the
    projection map from old values to new values.
    """
    ok, reason = is_filter(chain, filter_elements)
    if not ok:
        raise NotAFilter(reason)
    f = {rat(x) for x in filter_elements}

    def same(x, y):
        return chain.residuum(x, y) in f and chain.residuum(y, x) in f

    classes = []
    for x in chain.elements:  # ascending, so classes come out ordered
        if classes and same(classes[-1][-1], x):
            classes[-1].append(x)
        else:
            classes.append([x])
    m = len(classes)
    class_of = {}
    for ci, members in enumerate(classes):
        for x in members:
            class_of[x] = ci
    reps = [members[0] for members in classes]
    table = [[class_of[chain.tnorm(reps[i], reps[j])] for j in range(m)]
             for i in range(m)]
    quotient = FiniteChain(table, name=f"{chain.name}/F")
    projection = {x: quotient.elements[class_of[x]] for x in chain.elements}
    return quotient, projection


# ---------------------------------------------------------------------------
# Chain, operator and proof files

def _parse_rationals(text: str) -> list:
    """Exact rationals separated by commas or spaces."""
    return [rat(tok) for tok in text.replace(",", " ").split()]


def _spec_lines(text: str) -> list:
    return [ln for ln in map(str.strip, text.splitlines())
            if ln and not ln.startswith("#")]


def spec_kind(text: str) -> str:
    """The first word of a file's header, its kind ('' for no header)."""
    lines = _spec_lines(text)
    return lines[0].split(None, 1)[0] if lines else ""


def read_spec(text: str, form: str, noun: str, error, keys=None, rows=""):
    """Read a chain, operator or proof file: (fields, read).

    Blank and '#' lines are skipped.  The first line left must be the
    header, form with its <fields> filled in; no later line may start with
    its word.  A proof (keys None) reads its other lines as they are.  Else
    read maps each 'key: value' line's key to keys[key](value), converted in
    file order so that the first bad line is the one reported (keys[word]
    converts the fields first).  Lines without a colon after the rows key
    extend its list by keys[rows](line); elsewhere they are malformed.  A
    repeated or unknown key raises error, with noun naming the file.
    """
    lines = _spec_lines(text)
    word, _, blanks = form.partition(" ")
    head = word + " "
    if not lines or not lines[0].startswith(head):
        raise error(f"{noun} must start with {form!r}")
    rest = lines[0][len(head):].strip()
    sep = blanks.split(">", 1)[1].split("<", 1)[0]  # ' on ' between blanks
    fields = tuple(f.strip() for f in rest.partition(sep)[::2]) if sep else (rest,)
    if keys is None:
        if any(ln.startswith(head) for ln in lines[1:]):
            raise error(f"repeated {noun} key {word!r}")
        return fields, lines[1:]
    if word in keys:
        fields = keys[word](*fields)
    read: dict = {}
    key = word
    for ln in lines[1:]:
        if ln.startswith(head):
            key = word
        elif ":" in ln:
            key, _, value = ln.partition(":")
            key, value = key.strip(), value.strip()
        elif key == rows:
            read[rows] += keys[rows](ln)
            continue
        else:
            raise error(f"malformed {noun} line: {ln!r}")
        if key == word or key in read:
            raise error(f"repeated {noun} key {key!r}")
        if key not in keys:
            raise error(f"unknown {noun} key {key!r}")
        read[key] = keys[key](value)
    return fields, read


def _size(value: str) -> int:
    if not value.isdecimal():
        raise ChainSpecError(f"size must be a natural number, not {value!r}")
    return int(value)


def _components(value: str) -> list:
    components = []
    for part in filter(None, map(str.strip, value.split(";"))):
        fields = part.split()
        if len(fields) != 3:
            raise ChainSpecError(f"a component is '<family> <lo> <hi>', "
                                 f"not {part!r}")
        fam, lo, hi = fields
        components.append((fam, rat(lo), rat(hi)))
    return components


def parse_chain_file(text: str):
    """Parse the line-oriented chain format; returns (name, chain).

    Keys: 'chain <name>', 'kind: finite|standard', then one of
    'family:'+'size:', 'table:' followed by n rows, 'negation: <rationals>'
    or 'components: <family> <lo> <hi>; ...'.  A repeated key, or one the
    chosen form does not read, is an error.
    """
    (name,), read = read_spec(
        text, "chain <name>", "chain file", ChainSpecError,
        {"kind": str, "family": str, "size": _size, "components": _components,
         "negation": _parse_rationals,
         "table": lambda row: [_parse_rationals(row)] if row else []},
        rows="table")
    kind = read.get("kind")
    if kind == "standard":
        if not read.get("components"):
            raise ChainSpecError("standard chains need a components line")
        form, chain = ("components",), StandardChain(read["components"], name=name)
    elif kind != "finite":
        raise ChainSpecError("kind must be finite or standard")
    elif "negation" in read:
        form, chain = ("negation",), FiniteChain.from_negation(read["negation"], name=name)
    elif "table" in read:
        form, chain = ("table",), FiniteChain.from_values_table(read["table"], name=name)
    elif read.get("family") and read.get("size"):
        form, chain = ("family", "size"), FiniteChain.from_family(
            read["family"], read["size"], name=name)
    else:
        raise ChainSpecError("finite chains need family+size, a table or a negation")
    unread = sorted(set(read) - {"kind", *form})
    if unread:
        raise ChainSpecError(f"chain file key {unread[0]!r} is not read "
                             f"beside {' and '.join(map(repr, form))}")
    return name, chain


# ---------------------------------------------------------------------------
# Built-in chains

# 16-point weak nilpotent minimum chain whose negation follows 1-x near the
# ends, the constant 3/15 on [9/15, 12/15] and 12/15 - x in between.  At the
# overlap point 3/15 the 1-x branch wins; the other reading breaks
# commutativity of the induced conjunction.
_W15_NEG = [Fraction(k, 15) for k in
            [15, 14, 13, 12, 8, 7, 6, 5, 4, 3, 3, 3, 3, 2, 1, 0]]

_HALF = Fraction(1, 2)


def builtin_chains() -> dict:
    """Fresh copies of the named chains used throughout the test bench."""
    return {
        "B2": FiniteChain.from_family(GODEL, 2, name="B2"),
        "L3": FiniteChain.from_family(LUKASIEWICZ, 3, name="L3"),
        "L5": FiniteChain.from_family(LUKASIEWICZ, 5, name="L5"),
        "G3": FiniteChain.from_family(GODEL, 3, name="G3"),
        "G5": FiniteChain.from_family(GODEL, 5, name="G5"),
        "NM6": FiniteChain.from_negation(
            [Fraction(5 - k, 5) for k in range(6)], name="NM6"),
        "W15": FiniteChain.from_negation(_W15_NEG, name="W15"),
        "LG": StandardChain([(LUKASIEWICZ, 0, _HALF), (GODEL, _HALF, 1)], name="LG"),
        "LP": StandardChain([(LUKASIEWICZ, 0, _HALF), (PRODUCT, _HALF, 1)], name="LP"),
        "LL": StandardChain([(LUKASIEWICZ, 0, _HALF), (LUKASIEWICZ, _HALF, 1)], name="LL"),
    }
