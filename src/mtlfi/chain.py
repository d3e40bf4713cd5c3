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

The pair kernel.  Standard-chain arithmetic runs on integer pairs (n, d)
standing for n/d with d > 0; a pair need not be reduced.  Comparing a/b
with c/d is the integer comparison of a*d with c*b, and each closed form
above is one integer numerator over one integer denominator.
StandardChain.tnorm_pair and residuum_pair are that kernel;
StandardChain.tnorm and residuum check their arguments against the carrier,
call it, and build one normalized Fraction from the result.  Loops over
many points (validate_mtl_laws here, the propagation scan of the suite)
convert each point to a pair once and stay in pair space, so they pay for
no Fraction until they report a witness, and the witness is the caller's
own value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "Rat", "rat", "ChainError", "OutOfCarrier", "TableNotTnorm",
    "NegationNotDecreasing", "SizeMismatch", "GapOrOverlap",
    "NonRationalEndpoint", "NotAFilter", "ChainSpecError", "LUKASIEWICZ",
    "GODEL", "PRODUCT",
    "Component", "NSet", "FiniteChain", "StandardChain", "Chain",
    "validate_mtl_laws", "is_filter", "upward_filter", "quotient_by_filter",
    "parse_chain_file", "builtin_chains",
]

Rat = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # a malformed or n/0 string
            pass
    raise NonRationalEndpoint(f"not an exact rational: {x!r}")


class ChainError(Exception):
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


LUKASIEWICZ = "lukasiewicz"
GODEL = "godel"
PRODUCT = "product"


@dataclass(frozen=True)
class Component:
    family: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.family not in (LUKASIEWICZ, GODEL, PRODUCT):
            raise ChainSpecError(f"unknown component family {self.family!r}")
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            raise NonRationalEndpoint(f"endpoints must be rational: {self.lo}, {self.hi}")
        if not self.lo < self.hi:
            raise GapOrOverlap(f"empty component [{self.lo}, {self.hi}]")


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

    @classmethod
    def finite(cls, elements: Iterable[Fraction]) -> "NSet":
        return cls(elements=frozenset(elements))

    @classmethod
    def none(cls) -> "NSet":
        return cls(empty=True)

    @classmethod
    def interval(cls, lower: Fraction, closed: bool) -> "NSet":
        return cls(lower=lower, closed=closed)

    def __contains__(self, x) -> bool:
        if self.empty:
            return False
        if self.elements is not None:
            return x in self.elements
        x = rat(x)
        return self.contains_pair(x.numerator, x.denominator)

    def contains_pair(self, n: int, d: int) -> bool:
        """Membership of n/d (d > 0) in an empty or interval N-set."""
        if self.empty or n >= d:
            return False
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


class FiniteChain:
    """A finite residuated chain on the canonical grid {i/(n-1)}."""

    is_finite = True

    def __init__(self, table: Sequence[Sequence[int]], name: str = "",
                 source: str = "table"):
        n = len(table)
        if n < 2:
            raise SizeMismatch("a chain needs at least two elements")
        for row in table:
            if len(row) != n:
                raise SizeMismatch(f"table is not {n}x{n}")
        _validate_tnorm_table(table, n)
        self.size = n
        self.name = name or f"chain{n}"
        self.source = source
        self.elements = tuple(Fraction(i, n - 1) for i in range(n))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self._tnorm_i = tuple(tuple(row) for row in table)
        self._res_i = tuple(tuple(row) for row in _residuum_from_table(table, n))
        self._neg_i = tuple(self._res_i[i][0] for i in range(n))
        # index tables of the other connectives, for compiled evaluation
        self._meet_i = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
        self._join_i = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
        self._iff_i = tuple(tuple(min(self._res_i[i][j], self._res_i[j][i])
                                  for j in range(n)) for i in range(n))
        self._delta_i = (0,) * (n - 1) + (n - 1,)
        self._nset = NSet.finite(x for i, x in enumerate(self.elements)
                                 if i < n - 1 and self._neg_i[i] == 0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_family(cls, family: str, n: int, name: str = "") -> "FiniteChain":
        return cls(_family_table(family, n), name=name or f"{family[0].upper()}{n}",
                   source=family)

    @classmethod
    def from_values_table(cls, rows: Sequence[Sequence[Fraction]],
                          name: str = "") -> "FiniteChain":
        """Build from an n x n table of rational values on the canonical grid."""
        n = len(rows)
        grid = [Fraction(i, n - 1) for i in range(n)]
        pos = {x: i for i, x in enumerate(grid)}
        table = []
        for row in rows:
            if len(row) != n:
                raise SizeMismatch(f"table is not {n}x{n}")
            try:
                table.append([pos[rat(v)] for v in row])
            except KeyError as exc:
                raise OutOfCarrier(f"table value {exc.args[0]} is not a grid point")
        return cls(table, name=name, source="table")

    @classmethod
    def from_negation(cls, neg_values: Sequence[Fraction], name: str = "") -> "FiniteChain":
        """Weak nilpotent minimum table from a negation: x*y = 0 if y <= n(x),
        else min(x, y)."""
        n = len(neg_values)
        grid = [Fraction(i, n - 1) for i in range(n)]
        pos = {x: i for i, x in enumerate(grid)}
        try:
            neg = [pos[rat(v)] for v in neg_values]
        except KeyError as exc:
            raise OutOfCarrier(f"negation value {exc.args[0]} is not a grid point")
        if neg[0] != n - 1 or neg[n - 1] != 0:
            raise NegationNotDecreasing("negation must send 0 to 1 and 1 to 0")
        for i in range(1, n):
            if neg[i] > neg[i - 1]:
                raise NegationNotDecreasing(f"negation increases at index {i}")
        table = [[0 if j <= neg[i] else min(i, j) for j in range(n)] for i in range(n)]
        return cls(table, name=name, source="wnm")

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
        return cls(table, name=name, source="ordinal_sum")

    # -- operations ---------------------------------------------------------

    def _idx(self, x) -> int:
        try:
            return self.index[rat(x)]
        except KeyError:
            raise OutOfCarrier(f"{x} is not an element of {self.name}")

    def tnorm(self, x, y) -> Fraction:
        return self.elements[self._tnorm_i[self._idx(x)][self._idx(y)]]

    def residuum(self, x, y) -> Fraction:
        return self.elements[self._res_i[self._idx(x)][self._idx(y)]]

    def negation(self, x) -> Fraction:
        return self.elements[self._neg_i[self._idx(x)]]

    def delta(self, x) -> Fraction:
        return _ONE if self._idx(x) == self.size - 1 else _ZERO

    def meet(self, x, y) -> Fraction:
        return self.elements[min(self._idx(x), self._idx(y))]

    def join(self, x, y) -> Fraction:
        return self.elements[max(self._idx(x), self._idx(y))]

    def contains(self, x) -> bool:
        try:
            return rat(x) in self.index
        except ChainError:
            return False

    def n_set(self) -> NSet:
        return self._nset

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

class StandardChain:
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
        comps = []
        for c in components:
            if isinstance(c, Component):
                comps.append(c)
            else:
                fam, lo, hi = c
                comps.append(Component(fam, rat(lo), rat(hi)))
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
            self._nset = NSet.interval(_ZERO, closed=False)
        elif first.hi == _ONE:
            self._nset = NSet.none()
        else:
            self._nset = NSet.interval(first.hi, closed=True)

    def _check(self, x) -> Fraction:
        v = x if type(x) is Fraction else rat(x)
        if not 0 <= v.numerator <= v.denominator:
            raise OutOfCarrier(f"{x} is outside [0,1]")
        return v

    def pair(self, x) -> tuple:
        """x as the pair (numerator, denominator), checked against [0,1]."""
        v = self._check(x)
        return v.numerator, v.denominator

    def contains(self, x) -> bool:
        try:
            self._check(x)
            return True
        except ChainError:
            return False

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

    def is_smtl(self):
        first = self.components[0]
        if first.family == LUKASIEWICZ:
            w = first.hi / 2
            return False, w
        return True, None

    def sample_points(self, denominator: int = 60, extra: Iterable = ()) -> list:
        """Grid {i/d} joined with component endpoints and any extras, sorted."""
        pts = {Fraction(i, denominator) for i in range(denominator + 1)}
        for c in self.components:
            pts.add(c.lo)
            pts.add(c.hi)
        for e in extra:
            v = rat(e)
            if _ZERO <= v <= _ONE:
                pts.add(v)
        return sorted(pts)

    def __repr__(self) -> str:
        comps = ", ".join(f"{c.family}[{c.lo},{c.hi}]" for c in self.components)
        return f"StandardChain({self.name}: {comps})"


Chain = (FiniteChain, StandardChain)


# ---------------------------------------------------------------------------
# Law checking

def validate_mtl_laws(chain, triples: Optional[Iterable] = None) -> list:
    """Check associativity, commutativity, unit, monotonicity, adjointness
    and prelinearity.

    Finite chains are checked exhaustively over all triples, in index space;
    witnesses are reported as elements.  For standard chains the caller
    supplies rational triples; each check is exact, so a pass certifies the
    law for those triples.  Returns a list of (law, witness) violations,
    empty when everything holds.
    """
    if chain.is_finite:
        return _finite_law_violations(chain)
    if triples is None:
        raise ValueError("standard chains need explicit triples")
    return _standard_law_violations(chain, triples)


def _standard_law_violations(chain: StandardChain, triples: Iterable) -> list:
    """validate_mtl_laws on a standard chain, in pair space.

    Each point is checked against the carrier and turned into a pair once;
    rationals are compared by cross-multiplication, and witnesses are the
    caller's own values.
    """
    bad = []
    pair, tnorm, residuum = chain.pair, chain.tnorm_pair, chain.residuum_pair
    for x, y, z in triples:
        xn, xd = pair(x)
        yn, yd = pair(y)
        zn, zd = pair(z)
        tn, td = tnorm(xn, xd, yn, yd)  # x & y
        un, ud = tnorm(yn, yd, xn, xd)
        if tn * ud != un * td:
            bad.append(("commutativity", (x, y)))
            continue
        un, ud = tnorm(tn, td, zn, zd)
        vn, vd = tnorm(yn, yd, zn, zd)
        vn, vd = tnorm(xn, xd, vn, vd)
        if un * vd != vn * ud:
            bad.append(("associativity", (x, y, z)))
            continue
        un, ud = tnorm(xn, xd, 1, 1)
        if un * xd != xn * ud:
            bad.append(("unit", (x,)))
            continue
        if yn * zd <= zn * yd:
            un, ud = tnorm(xn, xd, zn, zd)
            if tn * ud > un * td:
                bad.append(("monotonicity", (x, y, z)))
                continue
        # adjointness both ways
        un, ud = residuum(yn, yd, zn, zd)
        if (tn * zd <= zn * td) != (xn * ud <= un * xd):
            bad.append(("adjointness", (x, y, z)))
            continue
        un, ud = residuum(xn, xd, yn, yd)
        vn, vd = residuum(yn, yd, xn, xd)
        if vn * ud > un * vd:
            un, ud = vn, vd
        if un != ud:  # max(x -> y, y -> x) is not 1
            bad.append(("prelinearity", (x, y)))
    return bad


def _finite_law_violations(chain: FiniteChain) -> list:
    """validate_mtl_laws over all index triples; indices order like elements."""
    bad = []
    els, tn, rs = chain.elements, chain._tnorm_i, chain._res_i
    top = chain.size - 1
    for i, j, k in itertools.product(range(chain.size), repeat=3):
        ij = tn[i][j]
        if ij != tn[j][i]:
            bad.append(("commutativity", (els[i], els[j])))
            continue
        if tn[ij][k] != tn[i][tn[j][k]]:
            bad.append(("associativity", (els[i], els[j], els[k])))
            continue
        if tn[i][top] != i:
            bad.append(("unit", (els[i],)))
            continue
        if j <= k and ij > tn[i][k]:
            bad.append(("monotonicity", (els[i], els[j], els[k])))
            continue
        if (ij <= k) != (i <= rs[j][k]):
            bad.append(("adjointness", (els[i], els[j], els[k])))
            continue
        if max(rs[i][j], rs[j][i]) != top:
            bad.append(("prelinearity", (els[i], els[j])))
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
    quotient = FiniteChain(table, name=f"{chain.name}/F", source="quotient")
    projection = {x: quotient.elements[class_of[x]] for x in chain.elements}
    return quotient, projection


# ---------------------------------------------------------------------------
# Chain spec files

def _parse_rationals(text: str) -> list:
    return [rat(tok) for tok in text.replace(",", " ").split()]


def parse_chain_file(text: str):
    """Parse the line-oriented chain format; returns (name, chain).

    Keys: 'chain <name>', 'kind: finite|standard', then one of
    'family:'+'size:', 'table:' followed by n rows, 'negation: <rationals>'
    or 'components: <family> <lo> <hi>; ...'.
    """
    name = ""
    kind = ""
    family = ""
    size = 0
    negation = None
    components = None
    table_rows = None
    lines = [ln.strip() for ln in text.splitlines()]
    i = 0
    while i < len(lines):
        ln = lines[i]
        i += 1
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("chain "):
            name = ln[len("chain "):].strip()
            continue
        if ":" not in ln:
            raise ChainSpecError(f"malformed chain file line: {ln!r}")
        key, _, value = ln.partition(":")
        key, value = key.strip(), value.strip()
        if key == "kind":
            kind = value
        elif key == "family":
            family = value
        elif key == "size":
            if not value.isdecimal():
                raise ChainSpecError(f"size must be a natural number, not {value!r}")
            size = int(value)
        elif key == "negation":
            negation = _parse_rationals(value)
        elif key == "components":
            components = []
            for part in value.split(";"):
                part = part.strip()
                if not part:
                    continue
                fields = part.split()
                if len(fields) != 3:
                    raise ChainSpecError(f"a component is '<family> <lo> <hi>', "
                                         f"not {part!r}")
                fam, lo, hi = fields
                components.append((fam, rat(lo), rat(hi)))
        elif key == "table":
            table_rows = []
            if value:
                table_rows.append(_parse_rationals(value))
            while i < len(lines) and lines[i] and ":" not in lines[i]:
                table_rows.append(_parse_rationals(lines[i]))
                i += 1
        else:
            raise ChainSpecError(f"unknown chain file key {key!r}")
    if not name:
        raise ChainSpecError("chain file must start with 'chain <name>'")
    if kind == "standard":
        if not components:
            raise ChainSpecError("standard chains need a components line")
        return name, StandardChain(components, name=name)
    if kind != "finite":
        raise ChainSpecError("kind must be finite or standard")
    if negation is not None:
        return name, FiniteChain.from_negation(negation, name=name)
    if table_rows is not None:
        return name, FiniteChain.from_values_table(table_rows, name=name)
    if family and size:
        return name, FiniteChain.from_family(family, size, name=name)
    raise ChainSpecError("finite chains need family+size, a table or a negation")


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
