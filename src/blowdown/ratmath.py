"""Exact rational linear algebra, linear forms and the evidence checkers.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
rounds.  A positivity verdict comes with checkable evidence: a Farkas
certificate (nonnegative multipliers combining `>= 0` constraints into the
impossible relation `0 >= positive`) or a rational witness point.
`check_certificate` and `check_witness` re-verify either by exact
re-expansion.
"""

from __future__ import annotations

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


def var_key(name: str) -> tuple[str, int]:
    """Sort key that orders 'b2' before 'b10' (alpha prefix, numeric suffix)."""
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

    Zero coefficients are dropped; terms are kept in natural variable order,
    so equal forms compare and hash equal.
    """

    __slots__ = ("_terms", "_const")

    def __init__(self, coeffs: Mapping[str, Scalar] = {}, const: Scalar = 0):
        self._terms = tuple(
            sorted(((v, _frac(c)) for v, c in coeffs.items() if c), key=lambda t: var_key(t[0]))
        )
        self._const = _frac(const)

    @classmethod
    def constant(cls, value: Scalar) -> "LinearForm":
        return cls({}, value)

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return dict(self._terms)

    @property
    def const(self) -> Fraction:
        return self._const

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._terms)

    def is_homogeneous(self) -> bool:
        return self._const == 0

    def is_constant(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        return not self._terms and self._const == 0

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        return sum((c * _frac(point[v]) for v, c in self._terms), self._const)

    def __add__(self, other: "LinearForm | Scalar") -> "LinearForm":
        return linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return linear_combination(((-1, self),))

    def __sub__(self, other: "LinearForm | Scalar") -> "LinearForm":
        return linear_combination(((1, self), (-1, other)))

    def __mul__(self, other: "LinearForm | Scalar") -> "LinearForm":
        if isinstance(other, LinearForm):
            if other.is_constant():
                return self * other._const
            if self.is_constant():
                return other * self._const
            raise ValueError("product of two non-constant linear forms is not linear")
        return linear_combination(((other, self),))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearForm)
            and self._terms == other._terms
            and self._const == other._const
        )

    def __hash__(self) -> int:
        return hash((self._terms, self._const))

    def __repr__(self) -> str:
        return f"LinearForm({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self._terms:
            mag = abs(c)
            term = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        if self._const or not parts:
            mag = abs(self._const)
            if not parts:
                parts.append(str(self._const))
            else:
                parts.append(f"+ {mag}" if self._const > 0 else f"- {mag}")
        return " ".join(parts)


def linear_combination(terms: Iterable[tuple[Scalar, "LinearForm | Scalar"]]) -> LinearForm:
    """sum(weight * item) over (weight, item) pairs, each item a LinearForm or
    a scalar.  Zero weights are skipped; the terms are accumulated in one
    dict and the result is built once.  Every sum of forms goes through here."""
    acc: dict[str, Fraction] = {}
    const = Fraction(0)
    for weight, item in terms:
        if not weight:
            continue
        if isinstance(item, LinearForm):
            for v, c in item._terms:
                acc[v] = acc.get(v, 0) + weight * c
            const += weight * item._const
        else:
            const += weight * item
    return LinearForm(acc, const)


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
    if any(_frac(m) < 0 for m in multipliers):
        return False
    combo = combine_certificate(ge_system, multipliers)
    return combo.is_constant() and combo.const < 0


def check_witness(constraints: Sequence[Constraint], witness: Mapping[str, Scalar]) -> bool:
    """True iff every constraint holds exactly at the witness point."""
    return all(c.holds_at(witness) for c in constraints)
