"""Second-homology lattice of the projective plane blown up n times.

The fixed basis is (h, e_1, ..., e_n) and the intersection pairing is the
diagonal form <+1> + n<-1>.  Classes are integer vectors; rational
coefficients only ever appear downstream in dual-basis expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from blowdown.ratmath import EvidenceRejected


class AmbientMismatch(ValueError):
    """Classes from different ambient lattices were combined."""


class TooFewBlowups(ValueError):
    """The elliptic-fiber class needs at least nine blow-ups."""


class PreconditionViolated(ValueError):
    """A light-cone argument was invoked outside its hypotheses."""


@dataclass(frozen=True)
class Ambient:
    """The lattice H_2 of CP^2 # n(-CP^2): rank n+1, form diag(+1, -1, ..., -1)."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("number of blow-ups must be nonnegative")

    @property
    def rank(self) -> int:
        return self.n + 1

    def clazz(self, coeffs: Sequence[int]) -> "HomologyClass":
        return HomologyClass(self, tuple(coeffs))

    def h(self) -> "HomologyClass":
        """The line generator, square +1."""
        return self.clazz((1,) + (0,) * self.n)

    def e(self, i: int) -> "HomologyClass":
        """The i-th exceptional class (1-based), square -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"e_{i} does not exist with n={self.n}")
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return self.clazz(coeffs)

    def canonical_class(self) -> "HomologyClass":
        """K = -3h + e_1 + ... + e_n."""
        return self.clazz((-3,) + (1,) * self.n)

    def fiber_class(self) -> "HomologyClass":
        """Elliptic fiber f = 3h - e_1 - ... - e_9 (needs n >= 9)."""
        if self.n < 9:
            raise TooFewBlowups(f"fiber class needs n >= 9, have n={self.n}")
        return self.clazz((3,) + (-1,) * 9 + (0,) * (self.n - 9))


@dataclass(frozen=True)
class HomologyClass:
    """Integer class in a fixed ambient, coefficients ordered (h, e_1, ..., e_n)."""

    ambient: Ambient
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ambient.rank:
            raise ValueError(
                f"expected {self.ambient.rank} coefficients, got {len(self.coeffs)}"
            )
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("homology classes have integer coefficients")

    def _check_ambient(self, other: "HomologyClass") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"classes live in different ambients (n={self.ambient.n} vs n={other.ambient.n})"
            )

    def dot(self, other: "HomologyClass") -> int:
        """Intersection pairing under diag(+1, -1, ..., -1)."""
        self._check_ambient(other)
        head = self.coeffs[0] * other.coeffs[0]
        return head - sum(a * b for a, b in zip(self.coeffs[1:], other.coeffs[1:]))

    @property
    def square(self) -> int:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        self._check_ambient(other)
        return HomologyClass(self.ambient, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        self._check_ambient(other)
        return HomologyClass(self.ambient, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(-c for c in self.coeffs))

    def __mul__(self, k: int) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(k * c for c in self.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        names = ["h"] + [f"e{i}" for i in range(1, self.ambient.rank)]
        parts: list[str] = []
        for name, c in zip(names, self.coeffs):
            if not c:
                continue
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def pair(x: HomologyClass, y: HomologyClass) -> int:
    """Intersection number x.y; symmetric and bilinear."""
    return x.dot(y)


@dataclass(frozen=True)
class StandardClasses:
    """The named classes of a blown-up plane: h, the e_i, canonical K, fiber f."""

    ambient: Ambient
    h: HomologyClass
    e: tuple[HomologyClass, ...]
    K: HomologyClass

    @property
    def f(self) -> HomologyClass:
        return self.ambient.fiber_class()


def standard_classes(ambient: Ambient) -> StandardClasses:
    """h, e_1..e_n, K = -3h + sum(e_i); the fiber f is exposed lazily since it
    needs n >= 9."""
    return StandardClasses(
        ambient,
        ambient.h(),
        tuple(ambient.e(i) for i in range(1, ambient.n + 1)),
        ambient.canonical_class(),
    )


def blow_up(
    ambient: Ambient, classes: Sequence[HomologyClass]
) -> tuple[Ambient, list[HomologyClass], HomologyClass]:
    """One blow-up: extend the ambient by an orthogonal <-1> summand.

    Returns (new ambient, the input classes re-embedded by zero-extension,
    the new exceptional class E).  Re-embedding is an isometry and E pairs
    to zero with every re-embedded class.
    """
    for c in classes:
        if c.ambient != ambient:
            raise AmbientMismatch("blow_up: class is not in the given ambient")
    bigger = Ambient(ambient.n + 1)
    re_embedded = [bigger.clazz(c.coeffs + (0,)) for c in classes]
    return bigger, re_embedded, bigger.e(bigger.n)


def is_characteristic(c: HomologyClass) -> bool:
    """c.x == x.x (mod 2) for all x; in the diagonal basis that means every
    coefficient of c is odd."""
    return all(coeff % 2 != 0 for coeff in c.coeffs)


def light_cone_sign(c: HomologyClass, w: HomologyClass) -> int:
    """Sign of c.w for c nonzero with c.c >= 0 and w with w.w > 0.

    In a lattice of signature (1, n) the orthogonal complement of w is
    negative definite, so the pairing cannot vanish under these hypotheses.
    """
    if c.is_zero():
        raise PreconditionViolated("c must be nonzero")
    if c.square < 0:
        raise PreconditionViolated("c must have nonnegative square")
    if w.square <= 0:
        raise PreconditionViolated("w must have positive square")
    value = c.dot(w)
    if value == 0:
        raise EvidenceRejected("light-cone guarantee failed: c.w = 0")
    return 1 if value > 0 else -1
