"""Numerical topological invariants and their transforms under surgery.

Records (b2+, b2-, e, sigma, c1^2, parity, simply-connected) are carried
through blow-ups and rational blow-downs with the consistency relation
c1^2 = 3*sigma + 2*e re-verified after every step.  The gauge-theoretic
side is bookkeeping only: formal moduli dimensions, the chamber
wall-crossing jump, and the Kotschick Einstein obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from blowdown.lattice import HomologyClass, blow_up
from blowdown.ratmath import EvidenceRejected

ODD = "odd"
EVEN = "even"


class InsufficientRank(ValueError):
    """Not enough negative part to carve out the configuration."""


class NonIntegralDimension(ValueError):
    """The formal-dimension formula did not produce an integer."""


class OddDimension(ValueError):
    """Wall crossing applies only to even nonnegative dimensions."""


class NegativeDimension(ValueError):
    """A moduli dimension that must be nonnegative was negative."""


class NotSimplyConnected(ValueError):
    """Classification bookkeeping requires simple connectivity."""


@dataclass(frozen=True)
class ManifoldInvariants:
    """Closed oriented 4-manifold bookkeeping with b1 = 0 conventions."""

    b2plus: int
    b2minus: int
    euler: int
    signature: int
    c1sq: int
    parity: str
    simply_connected: bool

    def __post_init__(self):
        if self.b2plus < 0 or self.b2minus < 0:
            raise ValueError("Betti numbers are nonnegative")
        if self.parity not in (ODD, EVEN):
            raise ValueError(f"parity must be {ODD!r} or {EVEN!r}")
        if self.signature != self.b2plus - self.b2minus:
            raise ValueError("signature must equal b2+ - b2-")
        if self.c1sq != 3 * self.signature + 2 * self.euler:
            raise ValueError("c1^2 must equal 3*sigma + 2*e")
        if self.simply_connected and self.euler != 2 + self.b2plus + self.b2minus:
            raise ValueError("simply connected: e must equal 2 + b2+ + b2-")

    @classmethod
    def closed_simply_connected(cls, b2plus: int, b2minus: int, parity: str) -> "ManifoldInvariants":
        euler = 2 + b2plus + b2minus
        signature = b2plus - b2minus
        return cls(b2plus, b2minus, euler, signature, 3 * signature + 2 * euler, parity, True)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.b2plus, self.b2minus, self.euler, self.signature, self.c1sq)


def rational_surface_invariants(n: int) -> ManifoldInvariants:
    """CP^2 blown up n times: (1, n, 3+n, 1-n, 9-n), odd, simply connected."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ManifoldInvariants.closed_simply_connected(1, n, ODD)


def rational_blowdown(
    inv: ManifoldInvariants, p: int, assume_simply_connected: bool = False
) -> ManifoldInvariants:
    """Replace a chain configuration of p-1 negative-definite spheres by a
    rational ball: b2- and e drop by p-1, sigma rises by p-1 (Novikov
    additivity over the lens-space boundary), and c1^2 is recomputed.

    Simple connectivity of the result is a geometric hypothesis the caller
    must assert; it is never derived here.
    """
    if p < 2:
        raise ValueError("rational blow-down needs p >= 2")
    if inv.b2minus < p - 1:
        raise InsufficientRank(
            f"need b2- >= {p - 1} to contain the configuration, have {inv.b2minus}"
        )
    drop = p - 1
    signature = inv.signature + drop
    euler = inv.euler - drop
    out = ManifoldInvariants(
        inv.b2plus,
        inv.b2minus - drop,
        euler,
        signature,
        3 * signature + 2 * euler,
        inv.parity,
        inv.simply_connected and assume_simply_connected,
    )
    if out.c1sq != inv.c1sq + drop:
        raise EvidenceRejected(f"c1^2 rose from {inv.c1sq} to {out.c1sq}, not by {drop}")
    return out


def blow_up_invariants(inv: ManifoldInvariants) -> ManifoldInvariants:
    """Connected sum with a reversed projective plane: b2-, e up by one,
    sigma and c1^2 down by one; the form becomes odd."""
    return ManifoldInvariants(
        inv.b2plus,
        inv.b2minus + 1,
        inv.euler + 1,
        inv.signature - 1,
        inv.c1sq - 1,
        ODD,
        inv.simply_connected,
    )


def sw_dimension(c1sq_of_L: int, inv: ManifoldInvariants) -> int:
    """Formal moduli dimension (c1(L)^2 - 3*sigma - 2*e) / 4; raises when the
    value is not an integer.  Negative values are returned as-is for the
    caller to flag (the moduli space is then empty)."""
    total = c1sq_of_L - 3 * inv.signature - 2 * inv.euler
    if total % 4 != 0:
        raise NonIntegralDimension(
            f"(c1^2 - 3*sigma - 2*e) = {total} is not divisible by 4"
        )
    return total // 4


def wall_crossing_delta(d: int) -> int:
    """Chamber jump -(-1)^d for a nonnegative even dimension argument."""
    if d < 0:
        raise NegativeDimension(f"dimension argument must be nonnegative, got {d}")
    if d % 2 != 0:
        raise OddDimension(f"dimension argument must be even, got {d}")
    return -((-1) ** d)


def kotschick_bound(inv: ManifoldInvariants, d: int) -> Fraction:
    """Einstein obstruction: at most (2e + 3*sigma - 8d)/2 reversed projective
    planes can split off smoothly, d the moduli dimension of a monopole class."""
    if d < 0:
        raise NegativeDimension(f"moduli dimension must be nonnegative, got {d}")
    return Fraction(2 * inv.euler + 3 * inv.signature - 8 * d, 2)


def homeo_type(inv: ManifoldInvariants) -> str:
    """Classification label for simply connected records: with b2+ = 1 and an
    odd form this is the rational surface CP^2 # k*CPbar^2, k = b2-."""
    if not inv.simply_connected:
        raise NotSimplyConnected("classification bookkeeping needs simple connectivity")
    if inv.b2plus == 1 and inv.parity == ODD:
        k = inv.b2minus
        return "CP^2" if k == 0 else f"CP^2 # {k}CPbar^2"
    return "unclassified"


def blowup_basic_classes(classes: Sequence[HomologyClass]) -> list[HomologyClass]:
    """Basic classes of the blow-up: {c + E, c - E} for each input class,
    E the new exceptional class."""
    classes = list(classes)
    if not classes:
        return []
    _, re_embedded, E = blow_up(classes[0].ambient, classes)
    out: list[HomologyClass] = []
    for c in re_embedded:
        out.append(c + E)
        out.append(c - E)
    return out


@dataclass(frozen=True)
class SwRecord:
    """Bookkeeping row for one characteristic class: formal dimension, the
    chamber jump when defined, and which invariant flavor applies."""

    label: str
    dimension: int
    delta: int | None
    context: str

    def __post_init__(self):
        if self.delta is not None and self.dimension >= 0 and self.dimension % 2 == 0:
            if self.delta != -((-1) ** self.dimension):
                raise ValueError("wall-crossing delta inconsistent with dimension")
