"""Plumbing trees, linear chain configurations, and the E6-tilde fiber.

A plumbing graph is a weighted tree of disk bundles over spheres; its Gram
matrix has the Euler weights on the diagonal and +1 for each edge (spheres
oriented so consecutive intersections are positive).  `make_cp` builds the
chain of p-1 spheres with weights (-2, ..., -2, -(p+2)) whose boundary is
the lens space L(p^2, 1-p); these are the configurations that admit a
rational-ball replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from blowdown.lattice import Ambient, HomologyClass, pair
from blowdown.ratmath import Matrix


class InvalidP(ValueError):
    """Chain configurations need p >= 2."""


class LengthMismatch(ValueError):
    """Embedding verification got the wrong number of classes."""


class EmbeddingFailed(ValueError):
    """Supplied classes do not realize the configuration's intersection matrix."""


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted tree: vertices are (name, Euler weight), edges index pairs."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n == 0:
            raise ValueError("plumbing graph needs at least one vertex")
        normalized = []
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            normalized.append((min(i, j), max(i, j)))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edge")
        object.__setattr__(self, "edges", tuple(normalized))
        if len(self.edges) != n - 1 or not self._connected():
            raise ValueError("plumbing graph must be a tree")

    def _connected(self) -> bool:
        n = len(self.vertices)
        adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == n

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.vertices)

    def gram_matrix(self) -> Matrix:
        """Euler weights on the diagonal, +1 on graph edges, 0 elsewhere."""
        n = len(self.vertices)
        rows = [[0] * n for _ in range(n)]
        for i, (_, w) in enumerate(self.vertices):
            rows[i][i] = w
        for i, j in self.edges:
            rows[i][j] = 1
            rows[j][i] = 1
        return Matrix(rows)


@dataclass(frozen=True)
class Configuration:
    """A linear chain configuration: graph, intersection matrix P, dual form
    Q = P^-1, lens-space boundary label, and optionally the ambient classes
    realizing the chain.  Construction with classes is the one embedding
    gate: it raises EmbeddingFailed or stores the passing check in
    `embedding`."""

    p: int
    graph: PlumbingGraph
    P: Matrix
    Q: Matrix
    boundary: tuple[int, int]
    embedded_classes: tuple[HomologyClass, ...] | None = None
    embedding: EmbeddingCheck | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.embedded_classes is not None:
            check = verify_embedding(self, self.embedded_classes)
            if not check:
                raise EmbeddingFailed(check.message)
            object.__setattr__(self, "embedding", check)

    @property
    def rank(self) -> int:
        return self.p - 1

    def with_embedding(self, classes: Sequence[HomologyClass]) -> "Configuration":
        """Attach ambient classes after verifying they realize P exactly."""
        return Configuration(self.p, self.graph, self.P, self.Q, self.boundary, tuple(classes))


def make_cp(p: int) -> Configuration:
    """The chain u_1 ... u_{p-1}: weights -2 except u_{p-1} of weight -(p+2);
    boundary lens space L(p^2, 1-p)."""
    if p < 2:
        raise InvalidP(f"configuration needs p >= 2, got {p}")
    weights = [-2] * (p - 2) + [-(p + 2)]
    vertices = tuple((f"u{i}", w) for i, w in enumerate(weights, start=1))
    edges = tuple((i, i + 1) for i in range(p - 2))
    graph = PlumbingGraph(vertices, edges)
    # Q = P^-1 from Usmani's closed-form inverse of a tridiagonal matrix (1994).
    Q = Matrix(
        [
            [Fraction(-min(i, j) * ((p - 1 - max(i, j)) * (p + 1) + 1), p * p) for j in range(1, p)]
            for i in range(1, p)
        ]
    )
    return Configuration(p, graph, graph.gram_matrix(), Q, (p * p, 1 - p))


class EmbeddingCheck(NamedTuple):
    """Outcome of a Gram-matrix comparison; truthy iff every entry matched."""

    ok: bool
    entries_checked: int
    first_mismatch: tuple[int, int, Fraction, int] | None  # (i, j, expected, actual)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def message(self) -> str:
        if self.ok:
            return f"all {self.entries_checked} Gram entries match"
        i, j, expected, actual = self.first_mismatch
        return (
            f"Gram mismatch at (u{i + 1}, u{j + 1}): expected {expected}, got {actual}"
        )


def verify_embedding(config: Configuration, classes: Sequence[HomologyClass]) -> EmbeddingCheck:
    """Check that the ambient Gram matrix of `classes` equals config.P
    entrywise; on failure the result names the first mismatched pair.

    Squares are compared before off-diagonal intersections, so a sphere of
    the wrong weight is reported against itself.
    """
    if len(classes) != config.rank:
        raise LengthMismatch(
            f"configuration of p={config.p} needs {config.rank} classes, got {len(classes)}"
        )
    r = config.rank
    pairs = [(i, i) for i in range(r)]
    pairs += [(i, j) for i in range(r) for j in range(i + 1, r)]
    checked = 0
    for i, j in pairs:
        expected = config.P[i, j]
        actual = pair(classes[i], classes[j])
        checked += 1
        if expected != actual:
            return EmbeddingCheck(False, checked, (i, j, expected, actual))
    return EmbeddingCheck(True, checked, None)


class E6TildeFiber(NamedTuple):
    """The affine-E6 tree of seven -2 spheres in the nine-fold blow-up, with
    the multiplicities whose weighted sum is the elliptic fiber class."""

    graph: PlumbingGraph
    classes: tuple[HomologyClass, ...]
    multiplicities: tuple[int, ...]


def make_e6_tilde() -> E6TildeFiber:
    """Seven -2 spheres S_1..S_5 in a chain with stem S_3-S_6-S_7, realized by
    explicit classes in Ambient(9); sum(m_i * S_i) = 3h - e_1 - ... - e_9."""
    ambient = Ambient(9)

    def cls(h: int, es: dict[int, int]) -> HomologyClass:
        coeffs = [h] + [0] * 9
        for i, c in es.items():
            coeffs[i] = c
        return ambient.clazz(coeffs)

    classes = (
        cls(0, {4: 1, 7: -1}),          # S1 = e4 - e7
        cls(0, {1: 1, 4: -1}),          # S2 = e1 - e4
        cls(1, {1: -1, 2: -1, 3: -1}),  # S3 = h - e1 - e2 - e3
        cls(0, {2: 1, 5: -1}),          # S4 = e2 - e5
        cls(0, {5: 1, 9: -1}),          # S5 = e5 - e9
        cls(0, {3: 1, 6: -1}),          # S6 = e3 - e6
        cls(0, {6: 1, 8: -1}),          # S7 = e6 - e8
    )
    vertices = tuple((f"S{i}", -2) for i in range(1, 8))
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6))
    graph = PlumbingGraph(vertices, edges)

    # The adjacency is confirmed by arithmetic, not trusted from the picture.
    gram = graph.gram_matrix()
    for i in range(7):
        for j in range(7):
            if pair(classes[i], classes[j]) != gram[i, j]:
                raise EmbeddingFailed(f"E6-tilde Gram mismatch at ({i}, {j})")
    return E6TildeFiber(graph, classes, (1, 2, 3, 2, 1, 2, 1))
