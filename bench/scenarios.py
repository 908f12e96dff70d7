"""Seeded inputs for the blowdown benchmark, and the chain arithmetic that
the output checker needs, written here without importing blowdown.

A valid chain of parameter p in the n-fold blow-up uses an injection
sigma of the exceptional indices:

    u_i     = e_sigma(i) - e_sigma(i+1)                  (i <= p-2)
    u_{p-1} = x*h + e_sigma(p-1) + sum_k s_k e_tau(k)    (at most four k)

with sum_k s_k^2 = p + 1 + x^2, so u_{p-1}^2 = -(p+2).  Every valid
scenario is checked against the chain matrix P before it is written.

The checker's positivity verdict uses the extreme rays of the cone
a >= b_1 >= ... >= b_n >= 0, namely r_k = h-part 1 and b_1..b_k = 1, so it
shares no code with the program's Fourier-Motzkin elimination.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# -- chain arithmetic ------------------------------------------------------

def chain_weights(p: int) -> list[int]:
    return [-2] * (p - 2) + [-(p + 2)]


def chain_matrix(p: int) -> list[list[int]]:
    """P: the chain weights on the diagonal, 1 between neighbours."""
    weights = chain_weights(p)
    r = len(weights)
    rows = [[0] * r for _ in range(r)]
    for i, w in enumerate(weights):
        rows[i][i] = w
        if i + 1 < r:
            rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


def chain_det(p: int) -> int:
    """det P by the tridiagonal recurrence D_k = w_k D_{k-1} - D_{k-2}."""
    prev, cur = 1, 1
    for k, w in enumerate(chain_weights(p)):
        prev, cur = cur, (w * cur - prev if k else w)
    return cur


def intersect(x: list[int], y: list[int]) -> int:
    """The diagonal form (1, -1, ..., -1) on (h, e_1, ..., e_n)."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def first_gram_mismatch(p: int, classes: list[list[int]]) -> tuple[int, int] | None:
    """1-based pair of the first Gram entry that differs from P, squares
    before intersections; None when the classes realize P."""
    r = p - 1
    gram = {(i, i): 0 for i in range(r)}
    gram.update({(i, i + 1): 0 for i in range(r - 1)})
    holders: dict[int, list[tuple[int, int]]] = {}
    for i, u in enumerate(classes):
        for k, c in enumerate(u):
            if c:
                holders.setdefault(k, []).append((i, c))
    for k, held in holders.items():
        sign = 1 if k == 0 else -1
        for a, (i, ci) in enumerate(held):
            for j, cj in held[a:]:
                gram[i, j] = gram.get((i, j), 0) + sign * ci * cj
    P = chain_matrix(p)
    bad = [(i != j, i, j) for (i, j), v in gram.items() if v != P[i][j]]
    if not bad:
        return None
    _, i, j = min(bad)
    return i + 1, j + 1


def solve_chain(p: int, rhs: list[int]) -> list[Fraction]:
    """v with P v = rhs, by tridiagonal elimination over the rationals."""
    weights = chain_weights(p)
    r = len(weights)
    diag = [Fraction(weights[0])]
    vec = [Fraction(rhs[0])]
    for i in range(1, r):
        factor = 1 / diag[i - 1]
        diag.append(weights[i] - factor)
        vec.append(rhs[i] - factor * vec[i - 1])
    out = [Fraction(0)] * r
    out[-1] = vec[-1] / diag[-1]
    for i in range(r - 2, -1, -1):
        out[i] = (vec[i] - out[i + 1]) / diag[i]
    return out


def symbols(n: int) -> list[str]:
    return ["a"] + [f"b{i}" for i in range(1, n + 1)]


def blowdown_form(p: int, classes: list[list[int]], K: list[int]) -> list[Fraction]:
    """Coefficients of K_p . w_p over (a, b_1, ..., b_n):
    K.w - (Q K|C) . w|C with w = a*h - sum b_i e_i, so w.c = a*c_h + sum b_i c_i."""
    v = solve_chain(p, [intersect(K, u) for u in classes])
    coeffs = [Fraction(c) for c in K]
    for vj, u in zip(v, classes):
        if vj:
            for s, c in enumerate(u):
                if c:
                    coeffs[s] -= vj * c
    return coeffs


def decide_positive(f: list[Fraction]) -> bool:
    """Is f > 0 on {a >= b_1 >= ... >= b_n >= 0, 3a - sum b > 0}?

    On the generators r_k the form takes F_k = f_a + f_1 + ... + f_k and the
    strict form takes S_k = 3 - k.  The slice S = 1 has vertices r_j / S_j
    (S_j > 0) and rays r_k (S_k = 0) and |S_k| r_j + S_j r_k (S_j > 0 > S_k);
    f is positive iff it is > 0 at every vertex and >= 0 along every ray.
    """
    scale = math.lcm(*(c.denominator for c in f))
    F = list(itertools.accumulate(c.numerator * (scale // c.denominator) for c in f))
    S = [3 - k for k in range(len(F))]
    pos = [j for j in range(len(F)) if S[j] > 0]
    if any(F[j] <= 0 for j in pos):
        return False
    for k in range(len(F)):
        if S[k] == 0 and F[k] < 0:
            return False
        if S[k] < 0 and any(-S[k] * F[j] + S[j] * F[k] < 0 for j in pos):
            return False
    return True


# -- scenario construction -------------------------------------------------

def _square_sums(m: int) -> list[tuple[int, ...]]:
    """All a <= b <= c <= d with a^2 + b^2 + c^2 + d^2 = m, zeros dropped."""
    reps = []
    r = int(m**0.5) + 1
    for a in range(r):
        for b in range(a, r):
            for c in range(b, r):
                d2 = m - a * a - b * b - c * c
                if d2 < c * c:
                    break
                d = int(round(d2**0.5))
                if d * d == d2:
                    reps.append(tuple(x for x in (a, b, c, d) if x))
    return reps


def valid_chain(rng: random.Random, p: int, n: int) -> list[list[int]]:
    """u_1 .. u_{p-1} realizing the chain in Ambient(n); needs n >= p + 3."""
    order = rng.sample(range(1, n + 1), n)
    sigma, tau = order[: p - 1], order[p - 1 :]
    classes = []
    for i in range(p - 2):
        u = [0] * (n + 1)
        u[sigma[i]], u[sigma[i + 1]] = 1, -1
        classes.append(u)
    x = rng.randint(0, 3)
    squares = list(rng.choice(_square_sums(p + 1 + x * x)))
    rng.shuffle(squares)
    last = [0] * (n + 1)
    last[0], last[sigma[p - 2]] = x, 1
    for k, s in enumerate(squares):
        last[tau[k]] = s * rng.choice((1, -1))
    classes.append(last)
    if first_gram_mismatch(p, classes) is not None:
        raise RuntimeError(f"generator built a chain that does not realize P (p={p})")
    return classes


def canonical_with_verdict(
    rng: random.Random, p: int, classes: list[list[int]], positive: bool
) -> tuple[list[int], list[Fraction]]:
    """A random canonical vector in [-3, 3]^(n+1) whose blow-down pairing has
    the requested verdict, and that pairing's coefficients."""
    n = len(classes[0]) - 1
    for _ in range(2000):
        K = [rng.randint(-3, 3) for _ in range(n + 1)]
        f = blowdown_form(p, classes, K)
        if decide_positive(f) == positive:
            return K, f
    raise RuntimeError(f"no canonical vector with verdict positive={positive} (p={p}, n={n})")


def scenario_text(n: int, p: int, classes: list[list[int]], K: list[int]) -> str:
    lines = [f"n = {n}", f"p = {p}"]
    lines += [f"class u{i} = [{', '.join(map(str, u))}]" for i, u in enumerate(classes, 1)]
    lines.append(f"canonical = [{', '.join(map(str, K))}]")
    return "\n".join(lines) + "\n"
