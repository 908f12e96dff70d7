"""Symbolic symplectic classes, the admissible cone, and exact positivity.

A symplectic class on the n-fold blow-up is handled purely symbolically as
a*h - (b_1*e_1 + ... + b_n*e_n); the admissible region is the cone
a >= b_1 >= ... >= b_n >= 0 with 3a > b_1 + ... + b_n.  Restriction to a
chain configuration expands a class against the dual basis g_1..g_{p-1}
(the basis with <g_i, u_j> = delta_ij), pairings go through the dual form
Q = P^-1, and positivity of a homogeneous form over the cone is decided in
closed form on the cone's extreme rays, with a Farkas certificate or a
counterexample point as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Union

from blowdown.lattice import AmbientMismatch, HomologyClass
from blowdown.plumbing import Configuration
from blowdown.ratmath import (
    EQ,
    Constraint,
    EvidenceRejected,
    LinearForm,
    check_certificate,
    check_witness,
    linear_combination,
)

POSITIVE = "positive"
NOT_POSITIVE = "not_positive"


class MissingEmbedding(ValueError):
    """Restriction needs a configuration with embedded classes."""


class ConfigMismatch(ValueError):
    """Dual-basis coordinates from different configurations were paired."""


class NotHomogeneous(ValueError):
    """Cone machinery only accepts homogeneous linear forms."""


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
        return LinearForm.from_sorted_integers(
            tuple((v, ci) for v, ci in zip(self.symbols, c.coeffs) if ci)
        )


def symplectic_class(n: int) -> SymplecticClass:
    return SymplecticClass(n)


@dataclass(frozen=True)
class ConeSystem:
    """The admissible cone of the n-fold blow-up: `nonstrict` holds
    g_0 = a - b1, g_k = b_k - b_{k+1} and g_n = b_n, each required >= 0, and
    `strict` the one form 3a - (b_1 + ... + b_n), required > 0.  It is built
    from n alone, because `certify_positive` decides positivity in closed
    form on this cone and on no other."""

    n: int
    nonstrict: tuple[LinearForm, ...] = field(init=False, repr=False, compare=False)
    strict: tuple[LinearForm, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("symplectic cone needs n >= 1")
        names = symbols(n)
        integral = LinearForm.from_sorted_integers
        chain = [integral(((x, 1), (y, -1))) for x, y in zip(names, names[1:])]
        chain.append(integral(((names[-1], 1),)))
        total = integral((("a", 3), *((b, -1) for b in names[1:])))
        object.__setattr__(self, "nonstrict", tuple(chain))
        object.__setattr__(self, "strict", (total,))

    def contains(self, point: dict[str, Fraction]) -> bool:
        """Exact membership: all nonstrict >= 0 and all strict > 0."""
        return all(g.evaluate(point) >= 0 for g in self.nonstrict) and all(
            s.evaluate(point) > 0 for s in self.strict
        )


def symplectic_cone(n: int) -> ConeSystem:
    """The admissible coefficient region a >= b_1 >= ... >= b_n >= 0,
    3a > b_1 + ... + b_n."""
    return ConeSystem(n)


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
class FarkasCertificate:
    """Nonnegative multipliers `certificate`, one per row of `ge_system`
    (each row reads `form >= 0`), that combine the rows into 0 >= 1."""

    ge_system: tuple[Constraint, ...]
    certificate: tuple[Fraction, ...]


@dataclass(frozen=True)
class PositivityResult:
    """Verdict on `f > 0 over the cone`, with evidence that passed its
    re-check in `certify_positive`: a Farkas certificate when positive, a
    rational counterexample point otherwise."""

    verdict: str
    certificate: FarkasCertificate | None
    witness: dict[str, Fraction] | None

    @property
    def is_positive(self) -> bool:
        return self.verdict == POSITIVE


# On the admissible cone a form f is known by F_k = f(r_k), its values on the
# extreme rays r_k (a = b_1 = ... = b_k = 1, the rest 0), and the strict form
# s = 3a - sum(b) has S_k = 3 - k there.  The slice s = 1 is the polyhedron
# with vertices r_k / S_k (k <= min(2, n)) and recession rays
# |S_k| r_j + S_j r_k (j <= min(2, n), k >= 3; for k = 3 a multiple of r_3).


def _counterexample(F: list[Fraction], names: tuple[str, ...]) -> dict[str, Fraction] | None:
    """A point of the slice s = 1 where f <= 0, over every symbol, or None
    when f is positive on the slice (F_k > 0 at every vertex and f >= 0
    along every recession ray).

    The point is the first failing vertex r_k / S_k.  When every vertex
    passes, let j be the first vertex where f is least on the slice (the
    one that sets nu in `_multipliers`); a ray |S_k| r_j' + S_j' r_k fails
    for some j' only if it fails for j.  The point then lies on the ray
    (j, k) with the first failing k: (F_k r_j - F_j r_k) / (S_j F_k - S_k F_j),
    where the line through r_j and r_k meets both s = 1 and f = 0."""
    tops = range(min(2, len(F) - 1) + 1)
    for k in tops:
        if F[k] <= 0:
            return _on_rays({k: Fraction(1, 3 - k)}, names)
    j = max(tops, key=lambda k: Fraction(3 - k) / F[k])
    for k in range(3, len(F)):
        ray = (3 - j) * F[k] - (3 - k) * F[j]  # f on |S_k| r_j + S_j r_k
        if ray < 0:
            return _on_rays({j: F[k] / ray, k: -F[j] / ray}, names)
    return None


def _on_rays(weights: dict[int, Fraction], names: tuple[str, ...]) -> dict[str, Fraction]:
    """The point sum t_k r_k over every symbol: coordinate i sums the t_k
    with k >= i."""
    point = dict.fromkeys(names, Fraction(0))
    for k, t in weights.items():
        for name in names[: k + 1]:
            point[name] += t
    return point


def _multipliers(F: list[Fraction]) -> list[Fraction]:
    """The Farkas multipliers of a positive f on the rows g_0..g_n, s - 1,
    1 - s, -f: nu = max S_k / F_k over the vertices, lambda_k = nu F_k - S_k
    on g_k, then 1, 0 and nu.  The g_k are dual to the r_k, so
    sum lambda_k g_k = nu f - s and the rows combine to -1."""
    nu = max(Fraction(3 - k) / F[k] for k in range(min(2, len(F) - 1) + 1))
    return [nu * Fk - (3 - k) for k, Fk in enumerate(F)] + [Fraction(1), Fraction(0), nu]


def certify_positive(f: LinearForm, cone: ConeSystem) -> PositivityResult:
    """Decide whether f(x) > 0 on the admissible cone, in closed form.

    The cone is simplicial: its nonstrict forms g_k are dual to its extreme
    rays r_k, so f is decided by F_k = f(r_k), the prefix sums of its
    coefficients in the order (a, b1, ..., bn).  The strict form s is
    homogeneous, so s > 0 may be sliced to s = 1, and f is positive exactly
    when {g_k >= 0, s = 1, f <= 0} is infeasible.

    POSITIVE comes with the Farkas certificate of `_multipliers` on the rows
    g_0..g_n, s - 1, 1 - s, -f.  NOT_POSITIVE comes with the witness of
    `_counterexample`, zero-padded to every symbol: the first failing vertex
    r_k / S_k, or else the point of the first failing recession ray where
    f = 0.  The evidence is re-checked once, here, also under `python -O`;
    a failed check raises EvidenceRejected.
    """
    if not f.is_homogeneous():
        raise NotHomogeneous(f"form {f} has a constant term")
    names = symbols(cone.n)
    nums = f.numerators
    stray = set(nums).difference(names)
    if stray:
        raise ValueError(f"form uses symbols {sorted(stray)} outside the cone's universe")

    F = [Fraction(t, f.denominator) for t in accumulate(nums.get(v, 0) for v in names)]
    s = cone.strict[0]
    point = _counterexample(F, names)
    if point is None:
        ge_system = tuple(Constraint(g) for g in (*cone.nonstrict, s - 1, -(s - 1), -f))
        multipliers = tuple(_multipliers(F))
        if not check_certificate(ge_system, multipliers):
            raise EvidenceRejected("Farkas certificate does not combine to 0 >= 1")
        return PositivityResult(POSITIVE, FarkasCertificate(ge_system, multipliers), None)
    sliced = [Constraint(g) for g in cone.nonstrict] + [Constraint(s - 1, EQ), Constraint(-f)]
    if not check_witness(sliced, point):
        raise EvidenceRejected("witness point violates a constraint")
    return PositivityResult(NOT_POSITIVE, None, point)
