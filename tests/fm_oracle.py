"""Fourier-Motzkin feasibility oracle for the tests.

An exact, certificate-producing decision procedure for systems of linear
relations (`>= 0` / `= 0`), independent of the closed form that
`blowdown.cone.certify_positive` uses on the admissible cone.  It returns
either a rational witness or a Farkas certificate: nonnegative multipliers
combining the constraints into an impossible relation `0 >= positive`.  Both
kinds of answer are re-verified by exact re-expansion before they are
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from blowdown.ratmath import (
    EQ,
    GE,
    Constraint,
    EvidenceRejected,
    LinearForm,
    check_certificate,
    check_witness,
    var_key,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class EmptySystem(ValueError):
    """Feasibility was requested for an empty constraint system."""


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

    Feasible outcomes carry a witness point re-checked against every input
    constraint, infeasible outcomes a Farkas certificate re-expanded and
    checked.  Raises EvidenceRejected if either check fails, EmptySystem
    for an empty input.
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
