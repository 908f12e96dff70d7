"""Exact rational linear algebra, linear forms and the evidence checkers.

Scalars are `fractions.Fraction` (or `int`) and nothing in this package
ever rounds.  A `LinearForm` is held as integer numerators over one common
denominator, so sums of forms are integer arithmetic, and it gives its
coefficients back as Fractions.  A positivity verdict comes with checkable evidence: a Farkas
certificate (nonnegative multipliers combining `>= 0` constraints into the
impossible relation `0 >= positive`) or a rational witness point.
`check_certificate` and `check_witness` re-verify either by exact
re-expansion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

GE = "ge"  # form(x) >= 0
EQ = "eq"  # form(x) == 0


class ShapeMismatch(ValueError):
    """Matrix dimensions do not admit the requested operation."""


class EvidenceRejected(Exception):
    """A computed claim failed its independent re-check."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@functools.cache
def var_key(name: str) -> tuple[str, int]:
    """Sort key that orders 'b2' before 'b10' (alpha prefix, numeric suffix).
    Memoized: the names are a, b1..bn and a few others."""
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    return (name[:i], int(name[i:]) if i < len(name) else -1)


class Matrix:
    """Immutable dense matrix with exact rational entries, row-major."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged rows")
        self._rows = tuple(tuple(_frac(x) for x in r) for r in rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self._rows]})"

    def __str__(self) -> str:
        return "\n".join(column_layout([[str(x) for x in r] for r in self._rows]))

    def __mul__(self, other: "Matrix | Scalar") -> "Matrix":
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ShapeMismatch(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
            cols = list(zip(*other._rows))
            return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows])
        return Matrix([[x * _frac(other) for x in r] for r in self._rows])

    def __rmul__(self, other: Scalar) -> "Matrix":
        return self * other

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _eliminate(self) -> tuple[list[Fraction], int]:
        """Exact Gaussian elimination: the pivots and the number of row swaps.
        A column with no nonzero entry left ends the pivots with a zero.
        Without swaps the k-th pivot is D_k / D_{k-1}, D_k being the k-th
        leading principal minor; a forced swap means some D_k is zero."""
        if not self.is_square():
            raise ShapeMismatch("elimination of a non-square matrix")
        n = self.nrows
        a = [list(r) for r in self._rows]
        pivots: list[Fraction] = []
        swaps = 0
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                pivots.append(Fraction(0))
                break
            if piv != col:
                a[piv], a[col] = a[col], a[piv]
                swaps += 1
            p = a[col][col]
            pivots.append(p)
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] / p
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return pivots, swaps

    def det(self) -> Fraction:
        """The swap sign times the product of the elimination pivots."""
        pivots, swaps = self._eliminate()
        return math.prod(pivots, start=Fraction((-1) ** swaps))

    def is_negative_definite(self) -> bool:
        """Leading principal minors alternate in sign starting negative,
        that is: no forced row swap and every pivot negative."""
        pivots, swaps = self._eliminate()
        return swaps == 0 and all(p < 0 for p in pivots)


def column_layout(cells: Sequence[Sequence[str]]) -> list[str]:
    """Bracketed rows of right-aligned cells, one width per column."""
    widths = [max(map(len, col)) for col in zip(*cells)]
    return ["[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]" for row in cells]


class LinearForm:
    """Immutable linear form over named variables with rational coefficients.

    A form is held as integers: the numerators of its nonzero terms in
    natural variable order, a constant numerator, and one positive common
    denominator sharing no factor with all of them.  That is canonical, so
    equal forms compare and hash equal.  `coeffs` and `const` give the
    terms back as Fractions.
    """

    __slots__ = ("_terms", "_cnum", "_den")

    def __new__(cls, coeffs: Mapping[str, Scalar] = {}, const: Scalar = 0) -> "LinearForm":
        den = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
        nums = {v: c.numerator * (den // c.denominator) for v, c in coeffs.items()}
        return _reduced(nums, const.numerator * (den // const.denominator), den)

    @classmethod
    def constant(cls, value: Scalar) -> "LinearForm":
        return cls({}, value)

    @classmethod
    def from_sorted_integers(cls, terms: tuple[tuple[str, int], ...]) -> "LinearForm":
        """The homogeneous form sum(c * v) over (v, c) pairs whose names are
        distinct and in var_key order and whose integers are nonzero.  It is
        built as given, with no Fraction, sort or gcd."""
        return _form(terms, 0, 1)

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return {v: Fraction(c, self._den) for v, c in self._terms}

    @property
    def const(self) -> Fraction:
        return Fraction(self._cnum, self._den)

    @property
    def numerators(self) -> dict[str, int]:
        """The coefficients times `denominator`, as integers."""
        return dict(self._terms)

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._terms)

    def is_homogeneous(self) -> bool:
        return self._cnum == 0

    def is_constant(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        return not self._terms and self._cnum == 0

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """The exact value at the point, whose coordinates are looked up
        (KeyError if one is missing) and skipped when zero; the integer sum
        is brought to a common denominator and divided once."""
        num, den = self._cnum, 1
        for v, c in self._terms:
            x = point[v]
            if x:
                if x.denominator != den:
                    lcm = math.lcm(den, x.denominator)
                    num *= lcm // den
                    den = lcm
                num += c * x.numerator * (den // x.denominator)
        return Fraction(num, den * self._den)

    def __add__(self, other: "LinearForm | Scalar") -> "LinearForm":
        return linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return _form(tuple((v, -c) for v, c in self._terms), -self._cnum, self._den)

    def __sub__(self, other: "LinearForm | Scalar") -> "LinearForm":
        return linear_combination(((1, self), (-1, other)))

    def __mul__(self, other: "LinearForm | Scalar") -> "LinearForm":
        if isinstance(other, LinearForm):
            if other.is_constant():
                return self * other.const
            if self.is_constant():
                return other * self.const
            raise ValueError("product of two non-constant linear forms is not linear")
        return linear_combination(((other, self),))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearForm)
            and self._terms == other._terms
            and self._cnum == other._cnum
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._terms, self._cnum, self._den))

    def __repr__(self) -> str:
        return f"LinearForm({self})"

    def __str__(self) -> str:
        den = self._den
        parts: list[str] = []
        for v, c in self._terms:
            term = v if abs(c) == den else f"{_ratio(abs(c), den)}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        cnum = self._cnum
        if cnum or not parts:
            mag = _ratio(abs(cnum), den)
            if not parts:
                parts.append(mag if cnum >= 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if cnum > 0 else f"- {mag}")
        return " ".join(parts)


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for num >= 0 and den > 0."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _form(terms: tuple[tuple[str, int], ...], cnum: int, den: int) -> LinearForm:
    """Every LinearForm is built here, from integer data that is already in
    lowest terms and in var_key order."""
    form = object.__new__(LinearForm)
    form._terms = terms
    form._cnum = cnum
    form._den = den
    return form


def _reduced(nums: dict[str, int], cnum: int, den: int) -> LinearForm:
    """The form sum(nums[v] * v) + cnum over den > 0: zero terms dropped,
    the rest sorted by var_key, and the gcd of den and every numerator
    divided out."""
    terms = [(v, nums[v]) for v in sorted(nums, key=var_key) if nums[v]]
    if den > 1:
        g = math.gcd(den, cnum, *(c for _, c in terms))
        if g > 1:
            terms = [(v, c // g) for v, c in terms]
            cnum //= g
            den //= g
    return _form(tuple(terms), cnum, den)


def linear_combination(terms: Iterable[tuple[Scalar, "LinearForm | Scalar"]]) -> LinearForm:
    """sum(weight * item) over (weight, item) pairs, each item a LinearForm or
    a scalar.  Zero weights are skipped.  Every pair is brought to the least
    common denominator, the integer numerators are added in one dict, and
    the result is reduced once.  Every sum of forms goes through here."""
    parts = []
    for weight, item in terms:
        if weight:
            item_den = item._den if isinstance(item, LinearForm) else item.denominator
            parts.append((weight.numerator, weight.denominator * item_den, item))
    den = math.lcm(*(d for _, d, _ in parts))
    acc: dict[str, int] = {}
    cnum = 0
    for wnum, d, item in parts:
        scale = wnum * (den // d)
        if isinstance(item, LinearForm):
            for v, c in item._terms:
                acc[v] = acc.get(v, 0) + scale * c
            cnum += scale * item._cnum
        else:
            cnum += scale * item.numerator
    return _reduced(acc, cnum, den)


@dataclass(frozen=True)
class Constraint:
    """A linear relation `form >= 0` (kind GE) or `form == 0` (kind EQ)."""

    form: LinearForm
    kind: str = GE

    def __post_init__(self):
        if self.kind not in (GE, EQ):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def holds_at(self, point: Mapping[str, Scalar]) -> bool:
        value = self.form.evaluate(point)
        return value == 0 if self.kind == EQ else value >= 0

    def __str__(self) -> str:
        return f"{self.form} {'== 0' if self.kind == EQ else '>= 0'}"


def combine_certificate(ge_system: Sequence[Constraint], multipliers: Sequence[Scalar]) -> LinearForm:
    """Expand the nonnegative combination sum(multiplier * form) exactly."""
    return linear_combination(zip(multipliers, (c.form for c in ge_system)))


def check_certificate(ge_system: Sequence[Constraint], multipliers: Sequence[Scalar]) -> bool:
    """True iff the multipliers are nonnegative and combine the `>= 0` forms
    into a constant negative form (the contradiction `0 >= positive`)."""
    if len(ge_system) != len(multipliers):
        return False
    if any(m < 0 for m in multipliers):
        return False
    combo = combine_certificate(ge_system, multipliers)
    return combo.is_constant() and combo.const < 0


def check_witness(constraints: Sequence[Constraint], witness: Mapping[str, Scalar]) -> bool:
    """True iff every constraint holds exactly at the witness point."""
    return all(c.holds_at(witness) for c in constraints)
