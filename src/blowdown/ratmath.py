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


# The eliminator works on primitive integer rows `coeffs . x + const >= 0`,
# `coeffs` a sparse {symbol index: nonzero int}.  A row is the tuple
# (coeffs, const, key, rid); `rid` indexes the provenance list, where the m
# input rows come first.  provenance[j] for an input row is the factor c_j > 0
# with row = c_j * ge_form[j]; for a derived row it is (pos, neg, lam_pos,
# lam_neg, g) with row = (lam_pos * pos + lam_neg * neg) / g.


def _integer_row(form: LinearForm, index: Mapping[str, int]) -> tuple[dict[int, int], int, Fraction]:
    """The primitive integer row c * form over the symbol index, and c > 0."""
    values = [*form.coeffs.values(), form.const]
    lcm = math.lcm(*(q.denominator for q in values))
    g = math.gcd(*(q.numerator * (lcm // q.denominator) for q in values)) or 1

    def scaled(q: Fraction) -> int:
        return q.numerator * (lcm // q.denominator) // g

    coeffs = {index[v]: scaled(c) for v, c in form.coeffs.items()}
    return coeffs, scaled(form.const), Fraction(lcm, g)


def _row_key(coeffs: dict[int, int], const: int) -> tuple:
    return frozenset(coeffs.items()), const


def _farkas_multipliers(bad: int, provenance: list, m: int) -> list[Fraction]:
    """The multipliers that combine the m input forms into row `bad`.

    Walks the ancestry of `bad` in reverse creation order, so each derived
    row hands its finished weight to its parents exactly once."""
    ancestors: set[int] = set()
    stack = [bad]
    while stack:
        rid = stack.pop()
        if rid not in ancestors:
            ancestors.add(rid)
            if rid >= m:
                stack.extend(provenance[rid][:2])
    weight = dict.fromkeys(ancestors, Fraction(0))
    weight[bad] = Fraction(1)
    mults = [Fraction(0)] * m
    for rid in sorted(ancestors, reverse=True):
        w = weight[rid]
        if rid < m:
            mults[rid] = w * provenance[rid]
        else:
            pos, neg, lam_pos, lam_neg, g = provenance[rid]
            weight[pos] += w * lam_pos / g
            weight[neg] += w * lam_neg / g
    return mults


def _back_substitute(stages: list[tuple[int, list[tuple]]], names: Sequence[str]) -> dict[str, Fraction]:
    """A point of the input system, from the last eliminated variable back.

    Each variable gets a value between the bounds -rest/a its stage rows put
    on it (scaling a row leaves the bound unchanged).  A variable that drops
    out of the system without being eliminated (one-sided rows,
    cancellations) is left unconstrained by later stages and stays zero."""
    point = [Fraction(0)] * len(names)
    for var, stage_rows in reversed(stages):
        lower: Fraction | None = None
        upper: Fraction | None = None
        for coeffs, const, _, _ in stage_rows:
            a = coeffs.get(var)
            if a is None:
                continue
            rest = const
            for v, c in coeffs.items():
                if v != var and point[v]:
                    rest += c * point[v]
            bound = Fraction(-rest, a)
            if a > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            assert lower <= upper
            point[var] = (lower + upper) / 2
        elif lower is not None:
            point[var] = lower
        elif upper is not None:
            point[var] = upper
    return dict(zip(names, point))


def lp_feasible(constraints: Sequence[Constraint]) -> LpOutcome:
    """Decide exact feasibility of linear GE/EQ constraints.

    Fourier-Motzkin elimination on primitive integer rows: each stage
    eliminates the variable with the fewest positive x negative row pairs
    (ties to the first in `var_key` order) and drops duplicate rows.

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
    names = sorted({v for c in ge_system for v in c.form.variables}, key=lambda v: (var_key(v), v))
    index = {v: i for i, v in enumerate(names)}

    provenance: list = []
    rows: list[tuple] = []

    def finish_infeasible(bad: int) -> LpOutcome:
        # The contradictory row is primitive, so it reads exactly 0 >= 1.
        certificate = tuple(_farkas_multipliers(bad, provenance, m))
        if not check_certificate(ge_system, certificate):
            raise EvidenceRejected("Farkas certificate does not combine to 0 >= 1")
        return LpOutcome(INFEASIBLE, None, certificate, tuple(ge_system))

    for j, c in enumerate(ge_system):
        coeffs, const, scale = _integer_row(c.form, index)
        provenance.append(scale)
        if not coeffs:
            if const < 0:
                return finish_infeasible(j)
            continue
        # Duplicates are judged on the raw input terms: an input row that had
        # to be scaled never equals a derived (primitive) row.
        rows.append((coeffs, const, _row_key(coeffs, const) if scale == 1 else None, j))

    stages: list[tuple[int, list[tuple]]] = []
    while rows:
        pos_count = [0] * len(names)
        neg_count = [0] * len(names)
        for coeffs, _, _, _ in rows:
            for v, c in coeffs.items():
                if c > 0:
                    pos_count[v] += 1
                else:
                    neg_count[v] += 1
        _, var = min((p * n, v) for v, (p, n) in enumerate(zip(pos_count, neg_count)) if p or n)
        stages.append((var, rows))

        pos: list[tuple] = []
        neg: list[tuple] = []
        nxt: list[tuple] = []
        for row in rows:
            a = row[0].get(var)
            (nxt if a is None else pos if a > 0 else neg).append(row)
        seen = {row[2] for row in nxt}
        for p_coeffs, p_const, _, p_rid in pos:
            lam_neg = p_coeffs[var]
            for n_coeffs, n_const, _, n_rid in neg:
                lam_pos = -n_coeffs[var]
                coeffs = {v: c * lam_pos for v, c in p_coeffs.items() if v != var}
                for v, c in n_coeffs.items():
                    if v != var:
                        total = coeffs.get(v, 0) + c * lam_neg
                        if total:
                            coeffs[v] = total
                        else:
                            del coeffs[v]
                const = p_const * lam_pos + n_const * lam_neg
                if not coeffs:
                    if const < 0:
                        provenance.append((p_rid, n_rid, lam_pos, lam_neg, -const))
                        return finish_infeasible(len(provenance) - 1)
                    continue  # trivially true, drop
                g = math.gcd(*coeffs.values(), const)
                if g > 1:
                    coeffs = {v: c // g for v, c in coeffs.items()}
                    const //= g
                key = _row_key(coeffs, const)
                if key not in seen:
                    seen.add(key)
                    nxt.append((coeffs, const, key, len(provenance)))
                    provenance.append((p_rid, n_rid, lam_pos, lam_neg, g))
        rows = nxt

    witness = _back_substitute(stages, names)
    if not check_witness(constraints, witness):
        raise EvidenceRejected("witness point violates a constraint")
    return LpOutcome(FEASIBLE, witness, None, tuple(ge_system))
