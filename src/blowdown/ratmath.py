"""Exact rational linear algebra and a certificate-producing feasibility solver.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
rounds.  The solver decides feasibility of a system of linear relations
(`>= 0` / `= 0`) by Fourier-Motzkin elimination and returns either a rational
witness or a Farkas certificate: nonnegative multipliers combining the
constraints into an impossible relation `0 >= positive`.  Both kinds of
answer are re-verified by exact re-expansion before they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

GE = "ge"  # form(x) >= 0
EQ = "eq"  # form(x) == 0

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class ShapeMismatch(ValueError):
    """Matrix dimensions do not admit the requested operation."""


class EmptySystem(ValueError):
    """Feasibility was requested for an empty constraint system."""


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

    def __init__(
        self,
        coeffs: Mapping[str, Scalar] | Iterable[tuple[str, Scalar]] = (),
        const: Scalar = 0,
    ):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[str, Fraction] = {}
        for name, c in items:
            q = _frac(c)
            if q or name in acc:
                acc[name] = acc.get(name, Fraction(0)) + q
        self._terms = tuple(
            sorted(((v, c) for v, c in acc.items() if c), key=lambda t: var_key(t[0]))
        )
        self._const = _frac(const)

    @classmethod
    def variable(cls, name: str, coeff: Scalar = 1) -> "LinearForm":
        return cls({name: coeff})

    @classmethod
    def constant(cls, value: Scalar) -> "LinearForm":
        return cls((), value)

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return dict(self._terms)

    @property
    def const(self) -> Fraction:
        return self._const

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._terms)

    def coefficient(self, name: str) -> Fraction:
        for v, c in self._terms:
            if v == name:
                return c
        return Fraction(0)

    def is_homogeneous(self) -> bool:
        return self._const == 0

    def is_constant(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        return not self._terms and self._const == 0

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        return sum((c * _frac(point[v]) for v, c in self._terms), self._const)

    def __add__(self, other: "LinearForm | Scalar") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return LinearForm(self._terms, self._const + _frac(other))
        acc = dict(self._terms)
        for v, c in other._terms:
            acc[v] = acc.get(v, Fraction(0)) + c
        return LinearForm(acc, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return LinearForm({v: -c for v, c in self._terms}, -self._const)

    def __sub__(self, other: "LinearForm | Scalar") -> "LinearForm":
        return self + (-other if isinstance(other, LinearForm) else -_frac(other))

    def __rsub__(self, other: Scalar) -> "LinearForm":
        return (-self) + _frac(other)

    def __mul__(self, other: "LinearForm | Scalar") -> "LinearForm":
        if isinstance(other, LinearForm):
            if other.is_constant():
                return self * other._const
            if self.is_constant():
                return other * self._const
            raise ValueError("product of two non-constant linear forms is not linear")
        q = _frac(other)
        return LinearForm({v: c * q for v, c in self._terms}, self._const * q)

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


@dataclass(frozen=True)
class LpOutcome:
    """Feasibility verdict with its checkable evidence.

    `ge_system` is the directed inequality system actually decided: GE
    constraints verbatim, each EQ constraint contributing both directions.
    An infeasibility `certificate` is one nonnegative multiplier per
    `ge_system` row; a feasibility `witness` is an exact rational point.
    """

    status: str
    witness: dict[str, Fraction] | None
    certificate: tuple[Fraction, ...] | None
    ge_system: tuple[Constraint, ...]

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def combine_certificate(ge_system: Sequence[Constraint], multipliers: Sequence[Scalar]) -> LinearForm:
    """Expand the nonnegative combination sum(multiplier * form) exactly."""
    total = LinearForm()
    for constraint, m in zip(ge_system, multipliers):
        total = total + constraint.form * _frac(m)
    return total


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


class _Row:
    """Working inequality `coeffs . x + const >= 0` plus its provenance:
    `mults[j]` such that the row equals sum(mults[j] * ge_form[j])."""

    __slots__ = ("coeffs", "const", "mults")

    def __init__(self, coeffs: dict[str, Fraction], const: Fraction, mults: list[Fraction]):
        self.coeffs = {v: c for v, c in coeffs.items() if c}
        self.const = const
        self.mults = mults

    def normalized(self) -> "_Row":
        values = list(self.coeffs.values()) + ([self.const] if self.const else [])
        if not values:
            return self
        g = math.gcd(*(abs(v.numerator) for v in values))
        l = math.lcm(*(v.denominator for v in values))
        content = Fraction(g, l)
        if content == 1:
            return self
        return _Row(
            {v: c / content for v, c in self.coeffs.items()},
            self.const / content,
            [m / content for m in self.mults],
        )

    def key(self) -> tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)


def _combine(pos: _Row, neg: _Row, var: str) -> _Row:
    """Nonnegative combination of a positive- and a negative-coefficient row
    that eliminates `var`."""
    a, b = pos.coeffs[var], neg.coeffs[var]
    lam_p, lam_n = -b, a  # both positive
    coeffs: dict[str, Fraction] = {}
    for v, c in pos.coeffs.items():
        coeffs[v] = c * lam_p
    for v, c in neg.coeffs.items():
        coeffs[v] = coeffs.get(v, Fraction(0)) + c * lam_n
    coeffs.pop(var, None)
    const = pos.const * lam_p + neg.const * lam_n
    mults = [mp * lam_p + mn * lam_n for mp, mn in zip(pos.mults, neg.mults)]
    return _Row(coeffs, const, mults).normalized()


def lp_feasible(constraints: Sequence[Constraint]) -> LpOutcome:
    """Decide exact feasibility of linear GE/EQ constraints.

    This is the one gate for solver evidence: feasible outcomes carry a
    witness point re-checked against every input constraint, infeasible
    outcomes a Farkas certificate re-expanded and checked.  Raises
    EvidenceRejected if either check fails, EmptySystem for an empty input.
    """
    if not constraints:
        raise EmptySystem("no constraints given")

    ge_system: list[Constraint] = []
    for c in constraints:
        ge_system.append(Constraint(c.form, GE))
        if c.kind == EQ:
            ge_system.append(Constraint(-c.form, GE))

    m = len(ge_system)
    rows: list[_Row] = []
    for j, c in enumerate(ge_system):
        mults = [Fraction(0)] * m
        mults[j] = Fraction(1)
        rows.append(_Row(c.form.coeffs, c.form.const, mults))

    def finish_infeasible(bad: _Row) -> LpOutcome:
        scale = -bad.const  # positive; rescale so the combination is exactly -1
        certificate = tuple(mult / scale for mult in bad.mults)
        if not check_certificate(ge_system, certificate):
            raise EvidenceRejected("Farkas certificate does not combine to 0 >= 1")
        return LpOutcome(INFEASIBLE, None, certificate, tuple(ge_system))

    def split_constants(pending: list[_Row]) -> tuple[list[_Row], _Row | None]:
        kept: list[_Row] = []
        for r in pending:
            if r.coeffs:
                kept.append(r)
            elif r.const < 0:
                return kept, r
        return kept, None

    rows, bad = split_constants(rows)
    if bad is not None:
        return finish_infeasible(bad)

    stages: list[tuple[str, list[_Row]]] = []
    while True:
        live = sorted({v for r in rows for v in r.coeffs}, key=var_key)
        if not live:
            break

        def cost(v: str) -> int:
            p = sum(1 for r in rows if r.coeffs.get(v, 0) > 0)
            n = sum(1 for r in rows if r.coeffs.get(v, 0) < 0)
            return p * n

        var = min(live, key=lambda v: (cost(v), var_key(v)))
        stages.append((var, rows))
        pos = [r for r in rows if r.coeffs.get(var, 0) > 0]
        neg = [r for r in rows if r.coeffs.get(var, 0) < 0]
        nxt = [r for r in rows if var not in r.coeffs]
        seen = {r.key() for r in nxt}
        for p_row in pos:
            for n_row in neg:
                candidate = _combine(p_row, n_row, var)
                if not candidate.coeffs:
                    if candidate.const < 0:
                        return finish_infeasible(candidate)
                    continue  # trivially true, drop
                if candidate.key() not in seen:
                    seen.add(candidate.key())
                    nxt.append(candidate)
        rows, bad = split_constants(nxt)
        if bad is not None:
            return finish_infeasible(bad)

    witness: dict[str, Fraction] = {}
    for var, stage_rows in reversed(stages):
        # A variable can drop out of the system without being eliminated
        # (one-sided rows, cancellations); later-stage systems then leave it
        # unconstrained and zero is a valid choice.
        for r in stage_rows:
            for v in r.coeffs:
                if v != var:
                    witness.setdefault(v, Fraction(0))
        lower: Fraction | None = None
        upper: Fraction | None = None
        for r in stage_rows:
            a = r.coeffs.get(var)
            if not a:
                continue
            rest = r.const + sum(
                (c * witness[v] for v, c in r.coeffs.items() if v != var), Fraction(0)
            )
            bound = -rest / a
            if a > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            assert lower <= upper
            witness[var] = (lower + upper) / 2
        elif lower is not None:
            witness[var] = lower
        elif upper is not None:
            witness[var] = upper
        else:
            witness[var] = Fraction(0)

    for c in constraints:
        for v in c.form.variables:
            witness.setdefault(v, Fraction(0))
    if not check_witness(constraints, witness):
        raise EvidenceRejected("witness point violates a constraint")
    return LpOutcome(FEASIBLE, witness, None, tuple(ge_system))
