"""The diagonal lattice <+1> + n<-1>: pairing, standard classes, blow-ups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdown.lattice import (
    Ambient,
    AmbientMismatch,
    HomologyClass,
    PreconditionViolated,
    TooFewBlowups,
    blow_up,
    is_characteristic,
    light_cone_sign,
    pair,
    standard_classes,
)


def large_sphere(ambient: Ambient) -> HomologyClass:
    """S = 4f + e9 - 2(e10 + ... + e13) in Ambient(13), the -9 sphere."""
    std = standard_classes(ambient)
    S = 4 * std.f + std.e[8]
    for i in (10, 11, 12, 13):
        S = S - 2 * std.e[i - 1]
    return S


class TestPairing:
    def test_diagonal_form(self):
        ambient = Ambient(2)
        assert pair(ambient.h(), ambient.h()) == 1
        assert pair(ambient.e(1), ambient.e(2)) == 0
        assert pair(ambient.e(1), ambient.e(1)) == -1

    def test_fiber_is_null(self):
        f = Ambient(9).fiber_class()
        assert pair(f, f) == 0

    def test_large_sphere_square(self):
        S = large_sphere(Ambient(13))
        assert S.square == -9

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            pair(Ambient(2).h(), Ambient(3).h())

    @settings(max_examples=150)
    @given(st.data())
    def test_symmetric_and_bilinear(self, data):
        n = data.draw(st.integers(0, 13))
        ambient = Ambient(n)
        vec = st.tuples(*[st.integers(-9, 9)] * (n + 1))
        x = ambient.clazz(data.draw(vec))
        y = ambient.clazz(data.draw(vec))
        z = ambient.clazz(data.draw(vec))
        a = data.draw(st.integers(-4, 4))
        b = data.draw(st.integers(-4, 4))
        assert pair(x, y) == pair(y, x)
        assert pair(a * x + b * y, z) == a * pair(x, z) + b * pair(y, z)


class TestStandardClasses:
    def test_canonical_is_minus_fiber_at_nine(self):
        std = standard_classes(Ambient(9))
        assert std.K == -1 * std.f

    def test_canonical_pairs_zero_with_fiber(self):
        std = standard_classes(Ambient(13))
        assert pair(std.K, std.f) == 0

    def test_canonical_13_decomposition(self):
        std = standard_classes(Ambient(13))
        tail = std.e[9] + std.e[10] + std.e[11] + std.e[12]
        assert std.K == -1 * std.f + tail

    def test_fiber_needs_nine_blowups(self):
        std = standard_classes(Ambient(8))
        assert std.K.coeffs == (-3,) + (1,) * 8
        with pytest.raises(TooFewBlowups):
            std.f


class TestBlowUp:
    def test_first_blowup(self):
        bigger, re_embedded, E = blow_up(Ambient(0), [])
        assert bigger == Ambient(1)
        assert re_embedded == []
        assert E == bigger.e(1)
        assert E.square == -1

    def test_pairings_preserved(self):
        ambient = Ambient(12)
        h, f = ambient.h(), ambient.fiber_class()
        before = pair(h, f)
        _, (h2, f2), _ = blow_up(ambient, [h, f])
        assert pair(h2, f2) == before

    def test_canonical_extends_by_exceptional(self):
        ambient = Ambient(12)
        K12 = ambient.canonical_class()
        bigger, (K12_ext,), E = blow_up(ambient, [K12])
        assert K12_ext + E == bigger.canonical_class()

    def test_wrong_ambient(self):
        with pytest.raises(AmbientMismatch):
            blow_up(Ambient(2), [Ambient(3).h()])

    @settings(max_examples=100)
    @given(st.data())
    def test_isometric_embedding(self, data):
        n = data.draw(st.integers(0, 12))
        ambient = Ambient(n)
        vec = st.tuples(*[st.integers(-5, 5)] * (n + 1))
        classes = [ambient.clazz(data.draw(vec)) for _ in range(data.draw(st.integers(1, 4)))]
        _, re_embedded, E = blow_up(ambient, classes)
        for i, x in enumerate(classes):
            for j, y in enumerate(classes):
                assert pair(x, y) == pair(re_embedded[i], re_embedded[j])
        assert E.square == -1
        assert all(pair(E, c) == 0 for c in re_embedded)


class TestCharacteristic:
    def test_canonical_is_characteristic(self):
        assert is_characteristic(Ambient(13).canonical_class())

    def test_h_alone_is_not(self):
        assert not is_characteristic(Ambient(2).h())

    def test_zero_is_not(self):
        assert not is_characteristic(Ambient(9).clazz((0,) * 10))

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_bruteforce_definition(self, data):
        n = data.draw(st.integers(0, 8))
        ambient = Ambient(n)
        vec = st.tuples(*[st.integers(-4, 4)] * (n + 1))
        c = ambient.clazz(data.draw(vec))
        # c.x == x.x (mod 2) over a random spanning set (basis + random classes)
        spanning = [ambient.h()] + [ambient.e(i) for i in range(1, n + 1)]
        spanning += [ambient.clazz(data.draw(vec)) for _ in range(3)]
        brute = all((pair(c, x) - pair(x, x)) % 2 == 0 for x in spanning)
        assert is_characteristic(c) == brute


class TestLightCone:
    def test_positive_side(self):
        ambient = Ambient(7)
        c = 3 * ambient.h()
        for i in range(1, 8):
            c = c - ambient.e(i)
        assert c.square == 2
        assert light_cone_sign(c, ambient.h()) == 1
        assert light_cone_sign(-1 * c, ambient.h()) == -1

    def test_h_with_itself(self):
        ambient = Ambient(3)
        assert light_cone_sign(ambient.h(), ambient.h()) == 1

    def test_preconditions(self):
        ambient = Ambient(3)
        with pytest.raises(PreconditionViolated):
            light_cone_sign(ambient.clazz((0,) * ambient.rank), ambient.h())
        with pytest.raises(PreconditionViolated):
            light_cone_sign(ambient.e(1), ambient.h())  # square -1
        with pytest.raises(PreconditionViolated):
            light_cone_sign(ambient.h(), ambient.e(1))  # w^2 <= 0

    def test_never_orthogonal(self):
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(1, 13)
            ambient = Ambient(n)
            c = _random_nonnegative_square(rng, ambient)
            w = _random_positive_square(rng, ambient)
            assert pair(c, w) != 0


def _random_nonnegative_square(rng: random.Random, ambient: Ambient) -> HomologyClass:
    while True:
        tail = [rng.randint(-3, 3) for _ in range(ambient.n)]
        head = rng.choice([-1, 1]) * (rng.randint(0, 3) + _isqrt_ceil(sum(t * t for t in tail)))
        c = ambient.clazz([head] + tail)
        if not c.is_zero() and c.square >= 0:
            return c


def _random_positive_square(rng: random.Random, ambient: Ambient) -> HomologyClass:
    while True:
        tail = [rng.randint(-3, 3) for _ in range(ambient.n)]
        head = rng.choice([-1, 1]) * (1 + rng.randint(0, 3) + _isqrt_ceil(sum(t * t for t in tail)))
        w = ambient.clazz([head] + tail)
        if w.square > 0:
            return w


def _isqrt_ceil(k: int) -> int:
    import math

    r = math.isqrt(k)
    return r if r * r == k else r + 1
