"""Shared helpers: random admissible cone points, chain class fixtures and
an optimized-interpreter runner."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import blowdown
from blowdown.lattice import Ambient, blow_up, standard_classes
from blowdown.plumbing import make_e6_tilde


def random_cone_point(rng: random.Random, n: int) -> dict[str, Fraction]:
    """A random rational point satisfying a >= b1 >= ... >= bn >= 0 and
    3a > b1 + ... + bn (ties and zeros included)."""
    bs = sorted(
        (Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)), reverse=True
    )
    if rng.random() < 0.3:  # force a zero tail
        cut = rng.randint(0, n)
        bs[cut:] = [Fraction(0)] * (n - cut)
    a = max(bs[0] if bs else Fraction(0), sum(bs, Fraction(0)) / 3) + Fraction(
        rng.randint(1, 8), rng.randint(1, 4)
    )
    point = {"a": a}
    for i, b in enumerate(bs, start=1):
        point[f"b{i}"] = b
    return point


def chain_classes_c7():
    """(S1..S7 re-embedded in Ambient(13), the C7 chain u1..u6)."""
    ambient = Ambient(9)
    tracked = list(make_e6_tilde().classes)
    for _ in range(4):
        ambient, tracked, _ = blow_up(ambient, tracked)
    std = standard_classes(ambient)
    S = 4 * std.f + std.e[8] - 2 * std.e[9] - 2 * std.e[10] - 2 * std.e[11] - 2 * std.e[12]
    return tracked, tuple(tracked[:5]) + (S,)


def chain_classes_c5():
    """The C5 chain u1..u4 in Ambient(12)."""
    ambient = Ambient(9)
    tracked = list(make_e6_tilde().classes)
    for _ in range(3):
        ambient, tracked, _ = blow_up(ambient, tracked)
    std = standard_classes(ambient)
    S = 3 * std.f + std.e[1] - 2 * std.e[9] - 2 * std.e[10] - 2 * std.e[11]
    return tuple(tracked[:3]) + (S,)


def run_optimized(*args: str) -> subprocess.CompletedProcess:
    """`python -O *args` (asserts stripped) with the package under test importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(blowdown.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120
    )
