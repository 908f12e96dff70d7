"""Symbolic symplectic classes, the admissible cone, and exact positivity.

A symplectic class on the n-fold blow-up is handled purely symbolically as
a*h - (b_1*e_1 + ... + b_n*e_n); the admissible region is the cone
a >= b_1 >= ... >= b_n >= 0 with 3a > b_1 + ... + b_n.  Restriction to a
chain configuration expands a class against the dual basis g_1..g_{p-1}
(the basis with <g_i, u_j> = delta_ij), pairings go through the dual form
Q = P^-1, and positivity of a homogeneous form over the cone is decided by
exact linear programming with a Farkas certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from blowdown.lattice import AmbientMismatch, HomologyClass
from blowdown.plumbing import Configuration
from blowdown.ratmath import (
    EQ,
    GE,
    Constraint,
    LinearForm,
    LpOutcome,
    linear_combination,
    lp_feasible,
)

POSITIVE = "positive"
NOT_POSITIVE = "not_positive"


class MissingEmbedding(ValueError):
    """Restriction needs a configuration with embedded classes."""


class ConfigMismatch(ValueError):
    """Dual-basis coordinates from different configurations were paired."""


class NotHomogeneous(ValueError):
    """Cone machinery only accepts homogeneous linear forms."""


class MultipleStrict(ValueError):
    """Positivity certification expects exactly one strict constraint."""


def symbols(n: int) -> tuple[str, ...]:
    """The symbol universe (a, b1, ..., bn) for an n-fold blow-up."""
    return ("a",) + tuple(f"b{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class SymplecticClass:
    """The symbolic class a*h - (b_1*e_1 + ... + b_n*e_n) on Ambient(n)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("symbolic symplectic class needs n >= 1")

    @property
    def symbols(self) -> tuple[str, ...]:
        return symbols(self.n)

    def dot(self, c: HomologyClass) -> LinearForm:
        """Pairing with an integer class: a*c_h + sum(b_i * c_{e_i}).

        Follows from the defining relations omega.h = a and omega.e_i = b_i.
        """
        if c.ambient.n != self.n:
            raise AmbientMismatch(
                f"symplectic class on n={self.n} paired with class on n={c.ambient.n}"
            )
        coeffs = {"a": c.coeffs[0]}
        for i, ci in enumerate(c.coeffs[1:], start=1):
            coeffs[f"b{i}"] = ci
        return LinearForm(coeffs)


def symplectic_class(n: int) -> SymplecticClass:
    return SymplecticClass(n)


@dataclass(frozen=True)
class ConeSystem:
    """Homogeneous inequalities: `nonstrict` required >= 0, `strict` > 0."""

    n: int
    nonstrict: tuple[LinearForm, ...]
    strict: tuple[LinearForm, ...]

    def __post_init__(self):
        universe = set(symbols(self.n))
        for form in self.nonstrict + self.strict:
            if not form.is_homogeneous():
                raise NotHomogeneous(f"cone constraint {form} has a constant term")
            stray = set(form.variables) - universe
            if stray:
                raise ValueError(f"cone constraint uses unknown symbols {sorted(stray)}")

    def contains(self, point: dict[str, Fraction]) -> bool:
        """Exact membership: all nonstrict >= 0 and all strict > 0."""
        return all(g.evaluate(point) >= 0 for g in self.nonstrict) and all(
            s.evaluate(point) > 0 for s in self.strict
        )


def symplectic_cone(n: int) -> ConeSystem:
    """The admissible coefficient region a >= b_1 >= ... >= b_n >= 0,
    3a > b_1 + ... + b_n."""
    if n < 1:
        raise ValueError("symplectic cone needs n >= 1")
    chain = [LinearForm({"a": 1, "b1": -1})]
    chain += [LinearForm({f"b{i}": 1, f"b{i + 1}": -1}) for i in range(1, n)]
    chain += [LinearForm({f"b{n}": 1})]
    total = LinearForm({"a": 3, **{f"b{i}": -1 for i in range(1, n + 1)}})
    return ConeSystem(n, tuple(chain), (total,))


Coord = Union[Fraction, LinearForm]


@dataclass(frozen=True)
class DualCoords:
    """Coefficients of a restricted class against the dual basis g_1..g_{p-1}."""

    config: Configuration
    coords: tuple[Coord, ...]

    def __post_init__(self):
        if len(self.coords) != self.config.rank:
            raise ValueError(
                f"expected {self.config.rank} dual coordinates, got {len(self.coords)}"
            )


def restrict(x: HomologyClass | SymplecticClass, config: Configuration) -> DualCoords:
    """Expand x against the dual basis of the configuration: coordinate i is
    the pairing x.u_i (an integer for homology classes, a linear form in
    (a, b_i) for the symbolic symplectic class)."""
    if config.embedded_classes is None:
        raise MissingEmbedding("configuration has no embedded classes to restrict against")
    us = config.embedded_classes
    if isinstance(x, SymplecticClass):
        if x.n != us[0].ambient.n:
            raise AmbientMismatch(
                f"symplectic class on n={x.n}, embedding lives in n={us[0].ambient.n}"
            )
        return DualCoords(config, tuple(x.dot(u) for u in us))
    return DualCoords(config, tuple(Fraction(x.dot(u)) for u in us))


def _is_symbolic(x: DualCoords) -> bool:
    return any(isinstance(c, LinearForm) and not c.is_constant() for c in x.coords)


def pair_dual(x: DualCoords, y: DualCoords) -> LinearForm:
    """x^T Q y expanded over the symbols (Q being the configuration's dual
    intersection form).  Q is symmetric, so the scalar side s contracts to
    the weights Q s and the result is one linear combination of the other
    side's coordinates.  Raises ValueError when both sides are symbolic,
    since the product would be quadratic."""
    if x.config != y.config:
        raise ConfigMismatch("dual coordinates belong to different configurations")
    x_symbolic = _is_symbolic(x)
    if x_symbolic and _is_symbolic(y):
        raise ValueError("product of two non-constant linear forms is not linear")
    scalar, other = (y, x) if x_symbolic else (x, y)
    s = [c.const if isinstance(c, LinearForm) else c for c in scalar.coords]
    weights = (sum(q * si for q, si in zip(row, s) if si) for row in scalar.config.Q.rows)
    return linear_combination(zip(weights, other.coords))


def blowdown_pairing(K: HomologyClass, config: Configuration) -> LinearForm:
    """The pairing K_p . omega_p on the blown-down manifold: the ambient
    pairing K . omega minus the restricted pairing through the configuration
    (the rational-ball piece contributes nothing over the rationals)."""
    if config.embedded_classes is None:
        raise MissingEmbedding("configuration has no embedded classes")
    omega = SymplecticClass(K.ambient.n)
    ambient_term = omega.dot(K)
    restricted = pair_dual(restrict(K, config), restrict(omega, config))
    return ambient_term - restricted


@dataclass(frozen=True)
class PositivityResult:
    """Verdict on `f > 0 over the cone`, with evidence re-verified by
    `lp_feasible`: a Farkas certificate when positive, a rational
    counterexample point otherwise."""

    verdict: str
    certificate: LpOutcome | None
    witness: dict[str, Fraction] | None

    @property
    def is_positive(self) -> bool:
        return self.verdict == POSITIVE


def certify_positive(f: LinearForm, cone: ConeSystem) -> PositivityResult:
    """Decide whether f(x) > 0 for every x with nonstrict >= 0 and strict > 0.

    The strict constraint s is homogeneous, so s > 0 may be sliced to s = 1:
    the system {nonstrict >= 0, s = 1, f <= 0} is infeasible exactly when f
    is positive on the whole cone.  The evidence is re-verified once, by
    `lp_feasible`; a witness of the sliced system satisfies s = 1 and
    -f >= 0, and the symbols padded with zeros appear in no constraint, so
    it is a cone point where f <= 0.
    """
    if not f.is_homogeneous():
        raise NotHomogeneous(f"form {f} has a constant term")
    if len(cone.strict) != 1:
        raise MultipleStrict(
            f"expected exactly one strict constraint, got {len(cone.strict)}"
        )
    universe = set(symbols(cone.n))
    stray = set(f.variables) - universe
    if stray:
        raise ValueError(f"form uses symbols {sorted(stray)} outside the cone's universe")

    s = cone.strict[0]
    system = [Constraint(g, GE) for g in cone.nonstrict]
    system.append(Constraint(s - 1, EQ))
    system.append(Constraint(-f, GE))
    outcome = lp_feasible(system)

    if not outcome.feasible:
        return PositivityResult(POSITIVE, outcome, None)

    witness = dict(outcome.witness)
    for name in symbols(cone.n):
        witness.setdefault(name, Fraction(0))
    return PositivityResult(NOT_POSITIVE, None, witness)
