"""Symbolic symplectic classes, restriction, dual pairing, cone positivity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import chain_classes_c5, chain_classes_c7, random_cone_point
from fm_oracle import lp_feasible

from blowdown import ratmath
from blowdown.cone import (
    ConfigMismatch,
    DualCoords,
    MissingEmbedding,
    NotHomogeneous,
    blowdown_pairing,
    certify_positive,
    pair_dual,
    restrict,
    symbols,
    symplectic_class,
    symplectic_cone,
)
from blowdown.lattice import Ambient, pair
from blowdown.plumbing import make_cp
from blowdown.ratmath import EQ, Constraint, LinearForm, check_certificate


def scaled(scale: Fraction, coeffs: dict[str, int]) -> LinearForm:
    return LinearForm({v: scale * c for v, c in coeffs.items()})


small_rationals = st.builds(
    Fraction, st.integers(-3, 8), st.sampled_from([1, 1, 2, 3, 7])
)


C7_RESTRICTED_PAIRING = scaled(
    Fraction(-1, 7),
    {
        "a": 75, "b1": -25, "b2": -23, "b3": -27, "b4": -25, "b5": -23,
        "b6": -24, "b7": -25, "b8": -24, "b9": -23,
        "b10": -12, "b11": -12, "b12": -12, "b13": -12,
    },
)
C7_BLOWDOWN = scaled(
    Fraction(1, 7),
    {
        "a": 54, "b1": -18, "b2": -16, "b3": -20, "b4": -18, "b5": -16,
        "b6": -17, "b7": -18, "b8": -17, "b9": -16,
        "b10": -5, "b11": -5, "b12": -5, "b13": -5,
    },
)
C5_RESTRICTED_PAIRING = scaled(
    Fraction(-1, 5),
    {
        "a": 39, "b1": -13, "b2": -11, "b3": -15, "b4": -13, "b5": -12,
        "b6": -12, "b7": -13, "b8": -12, "b9": -12,
        "b10": -8, "b11": -8, "b12": -8,
    },
)
C5_BLOWDOWN = scaled(
    Fraction(1, 5),
    {
        "a": 24, "b1": -8, "b2": -6, "b3": -10, "b4": -8, "b5": -7,
        "b6": -7, "b7": -8, "b8": -7, "b9": -7,
        "b10": -3, "b11": -3, "b12": -3,
    },
)


def embedded_c7():
    _, chain = chain_classes_c7()
    return make_cp(7).with_embedding(chain)


def embedded_c5():
    return make_cp(5).with_embedding(chain_classes_c5())


def small_embedded(p: int):
    """Embedded chain fixtures for the small dual-basis consistency oracle."""
    if p == 2:
        ambient = Ambient(5)
        u1 = ambient.h()
        for i in range(1, 6):
            u1 = u1 - ambient.e(i)  # square -4
        return make_cp(2).with_embedding((u1,))
    if p == 3:
        ambient = Ambient(6)
        u1 = ambient.e(1) - ambient.e(2)
        u2 = ambient.e(2) + ambient.e(3) + ambient.e(4) + ambient.e(5) + ambient.e(6)
        return make_cp(3).with_embedding((u1, u2))
    if p == 5:
        return embedded_c5()
    if p == 7:
        return embedded_c7()
    raise ValueError(p)


class TestSymplecticCone:
    def test_shape(self):
        cone = symplectic_cone(13)
        assert len(cone.nonstrict) == 14
        assert len(cone.strict) == 1

    def test_membership(self):
        cone = symplectic_cone(13)
        inside = {v: Fraction(0) for v in symbols(13)}
        inside["a"] = Fraction(1)
        assert cone.contains(inside)
        outside = dict(inside)
        outside["b1"] = Fraction(4)  # violates a - b1 >= 0
        assert not cone.contains(outside)

    def test_random_points_are_members(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 13)
            assert symplectic_cone(n).contains(random_cone_point(rng, n))


class TestRestrict:
    def test_canonical_restriction_c7(self):
        cfg = embedded_c7()
        K = Ambient(13).canonical_class()
        coords = restrict(K, cfg).coords
        assert coords == tuple(Fraction(c) for c in (0, 0, 0, 0, 0, 7))

    def test_omega_restriction_c7(self):
        cfg = embedded_c7()
        coords = restrict(symplectic_class(13), cfg).coords
        expected = (
            LinearForm({"b4": 1, "b7": -1}),
            LinearForm({"b1": 1, "b4": -1}),
            LinearForm({"a": 1, "b1": -1, "b2": -1, "b3": -1}),
            LinearForm({"b2": 1, "b5": -1}),
            LinearForm({"b5": 1, "b9": -1}),
            LinearForm(
                {
                    "a": 12,
                    **{f"b{i}": -4 for i in range(1, 9)},
                    "b9": -3,
                    **{f"b{i}": -2 for i in range(10, 14)},
                }
            ),
        )
        assert coords == expected

    def test_canonical_restriction_c5(self):
        cfg = embedded_c5()
        K = Ambient(12).canonical_class()
        assert restrict(K, cfg).coords == tuple(Fraction(c) for c in (0, 0, 0, 5))

    def test_missing_embedding(self):
        with pytest.raises(MissingEmbedding):
            restrict(Ambient(13).canonical_class(), make_cp(7))


scalar_coords = st.one_of(small_rationals, small_rationals.map(LinearForm.constant))
symbolic_coords = st.one_of(
    scalar_coords,
    st.builds(
        LinearForm,
        st.dictionaries(st.sampled_from(["a", "b1", "b2", "b10"]), small_rationals, max_size=4),
        small_rationals,
    ),
)


@st.composite
def dual_coordinate_pairs(draw):
    """(p, left, right): p - 1 coordinates a side, at most one side symbolic."""
    p = draw(st.integers(2, 9))
    symbolic = draw(st.sampled_from(["left", "right", "neither"]))
    sides = [
        draw(st.lists(symbolic_coords if symbolic == side else scalar_coords, min_size=p - 1, max_size=p - 1))
        for side in ("left", "right")
    ]
    return p, *sides


def double_sum(x, Q, y) -> tuple[dict, Fraction]:
    """sum_ij x_i Q_ij y_j term by term in Fractions, for at most one
    symbolic side (so no quadratic term arises)."""

    def split(c):
        return (c.coeffs, c.const) if isinstance(c, LinearForm) else ({}, Fraction(c))

    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for i, xi in enumerate(x):
        x_terms, x_const = split(xi)
        for j, yj in enumerate(y):
            y_terms, y_const = split(yj)
            q = Q[i][j]
            const += x_const * q * y_const
            for v, c in x_terms.items():
                coeffs[v] = coeffs.get(v, 0) + c * q * y_const
            for v, c in y_terms.items():
                coeffs[v] = coeffs.get(v, 0) + x_const * q * c
    return {v: c for v, c in coeffs.items() if c}, const


class TestPairDual:
    def test_c7_restricted_pairing(self):
        cfg = embedded_c7()
        k = restrict(Ambient(13).canonical_class(), cfg)
        w = restrict(symplectic_class(13), cfg)
        assert pair_dual(k, w) == C7_RESTRICTED_PAIRING

    def test_c5_restricted_pairing(self):
        cfg = embedded_c5()
        k = restrict(Ambient(12).canonical_class(), cfg)
        w = restrict(symplectic_class(12), cfg)
        assert pair_dual(k, w) == C5_RESTRICTED_PAIRING

    def test_zero_coords(self):
        cfg = embedded_c7()
        z = restrict(Ambient(13).clazz((0,) * 14), cfg)
        w = restrict(symplectic_class(13), cfg)
        assert pair_dual(z, w).is_zero()

    def test_config_mismatch(self):
        k7 = restrict(Ambient(13).canonical_class(), embedded_c7())
        k5 = restrict(Ambient(12).canonical_class(), embedded_c5())
        with pytest.raises(ConfigMismatch):
            pair_dual(k7, k5)

    def test_two_symbolic_restrictions_are_rejected(self):
        cfg = embedded_c7()
        w = restrict(symplectic_class(13), cfg)
        with pytest.raises(ValueError, match="not linear"):
            pair_dual(w, w)

    @settings(max_examples=200, deadline=None)
    @given(dual_coordinate_pairs())
    def test_matches_double_sum(self, drawn):
        """Either side symbolic, or neither, against sum_ij x_i Q_ij y_j."""
        p, left, right = drawn
        cfg = make_cp(p)
        got = pair_dual(DualCoords(cfg, left), DualCoords(cfg, right))
        assert (got.coeffs, got.const) == double_sum(left, cfg.Q.rows, right)

    @pytest.mark.parametrize("scalar_left", [True, False], ids=["K-first", "omega-first"])
    def test_builds_one_form(self, monkeypatch, scalar_left):
        """Counted at ratmath._form, where every LinearForm is built."""
        cfg = embedded_c7()
        k = restrict(Ambient(13).canonical_class(), cfg)
        w = restrict(symplectic_class(13), cfg)
        built = []
        real = ratmath._form

        def counted(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(ratmath, "_form", counted)
        pair_dual(k, w) if scalar_left else pair_dual(w, k)
        assert len(built) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_dual_basis_consistency(self, p):
        """pair_dual on restricted classes agrees with the ambient pairing for
        classes supported on the configuration sublattice, and Q.P = I pins
        <g_i, u_j> = delta_ij."""
        cfg = small_embedded(p)
        us = cfg.embedded_classes
        from blowdown.ratmath import Matrix

        assert cfg.Q * cfg.P == Matrix.identity(p - 1)
        for i, ui in enumerate(us):
            for j, uj in enumerate(us):
                got = pair_dual(restrict(ui, cfg), restrict(uj, cfg))
                assert got.is_constant()
                assert got.const == pair(ui, uj) == cfg.P[i, j]
        # random integer combinations stay consistent
        rng = random.Random(100 + p)
        for _ in range(20):
            x = us[0].ambient.clazz((0,) * us[0].ambient.rank)
            y = us[0].ambient.clazz((0,) * us[0].ambient.rank)
            for u in us:
                x = x + rng.randint(-3, 3) * u
                y = y + rng.randint(-3, 3) * u
            got = pair_dual(restrict(x, cfg), restrict(y, cfg))
            assert got.is_constant() and got.const == pair(x, y)


class TestBlowdownPairing:
    def test_ambient_term(self):
        K = Ambient(13).canonical_class()
        expected = LinearForm({"a": -3, **{f"b{i}": 1 for i in range(1, 14)}})
        assert symplectic_class(13).dot(K) == expected

    def test_c7_form(self):
        form = blowdown_pairing(Ambient(13).canonical_class(), embedded_c7())
        assert form == C7_BLOWDOWN

    def test_c5_form(self):
        form = blowdown_pairing(Ambient(12).canonical_class(), embedded_c5())
        assert form == C5_BLOWDOWN

    def test_requires_embedding(self):
        with pytest.raises(MissingEmbedding):
            blowdown_pairing(Ambient(13).canonical_class(), make_cp(7))


class TestCertifyPositive:
    def test_c7_form_is_positive(self):
        result = certify_positive(C7_BLOWDOWN, symplectic_cone(13))
        assert result.is_positive
        cert = result.certificate
        assert check_certificate(cert.ge_system, cert.certificate)

    def test_c5_form_is_positive(self):
        result = certify_positive(C5_BLOWDOWN, symplectic_cone(12))
        assert result.is_positive

    def test_a_is_positive(self):
        result = certify_positive(LinearForm({"a": 1}), symplectic_cone(13))
        assert result.is_positive

    def test_chain_gap_is_not_positive(self):
        cone = symplectic_cone(13)
        f = LinearForm({"b1": 1, "b2": -1})
        result = certify_positive(f, cone)
        assert not result.is_positive
        assert cone.contains(result.witness)
        assert f.evaluate(result.witness) <= 0
        # the stated example point is itself a valid counterexample
        point = {v: Fraction(0) for v in symbols(13)}
        point["a"] = point["b1"] = point["b2"] = Fraction(1)
        assert cone.contains(point) and f.evaluate(point) == 0

    def test_intermediate_bound_decomposition(self):
        """The certified form minus the explicit slack combination is a
        positive multiple of the strict cone form, and is itself positive."""
        slack = scaled(
            Fraction(1, 7),
            {"b2": 2, "b3": -2, "b5": 2, "b6": 1, "b8": 1, "b9": 2,
             "b10": 13, "b11": 13, "b12": 13, "b13": 13},
        )
        difference = C7_BLOWDOWN - slack
        strict = symplectic_cone(13).strict[0]
        assert difference == strict * Fraction(18, 7)
        assert certify_positive(difference, symplectic_cone(13)).is_positive

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            certify_positive(LinearForm({"a": 1}, 1), symplectic_cone(3))

    def test_stray_symbols_rejected(self):
        with pytest.raises(ValueError):
            certify_positive(LinearForm({"z": 1}), symplectic_cone(3))

    def test_positive_verdicts_agree_with_sampling(self):
        rng = random.Random(99)
        for n, form in ((13, C7_BLOWDOWN), (12, C5_BLOWDOWN)):
            assert certify_positive(form, symplectic_cone(n)).is_positive
            for _ in range(500):
                assert form.evaluate(random_cone_point(rng, n)) > 0


def positive_by_extreme_rays(partial_sums: list[Fraction]) -> bool:
    """f > 0 on the cone a >= b_1 >= ... >= b_n >= 0, 3a - sum(b) > 0, decided
    on its extreme rays r_k (a = b_1 = ... = b_k = 1, the rest 0), k = 0..n.

    `partial_sums[k]` is F_k = f(r_k), and the strict form is S_k = 3 - k on
    r_k.  The slice 3a - sum(b) = 1 is the polyhedron with vertices r_j / S_j
    (S_j > 0) and recession rays r_k (S_k = 0) and |S_k| r_j + S_j r_k
    (S_j > 0 > S_k); f is positive on it iff f > 0 at every vertex and
    f >= 0 along every recession ray."""
    strict = [3 - k for k in range(len(partial_sums))]
    tops = [j for j, s in enumerate(strict) if s > 0]
    for k, (F, s) in enumerate(zip(partial_sums, strict)):
        if (s > 0 and F <= 0) or (s == 0 and F < 0):
            return False
        if s < 0 and any(-s * partial_sums[j] + strict[j] * F < 0 for j in tops):
            return False
    return True


def form_with_ray_values(partial_sums: list[Fraction]) -> LinearForm:
    """The form f on (a, b1, ..., bn) with f(r_k) = partial_sums[k]."""
    coeffs = {"a": partial_sums[0]}
    for k in range(1, len(partial_sums)):
        coeffs[f"b{k}"] = partial_sums[k] - partial_sums[k - 1]
    return LinearForm(coeffs)


positive_rationals = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3, 7]))


@st.composite
def ray_values(draw):
    """F_0..F_n for n = 1..12.  Half the time the vertex values F_0..F_2 are
    positive, so that the recession rays (F_3 < 0, or F_k < 0 with k > 3)
    decide the verdict."""
    n = draw(st.integers(1, 12))
    top = positive_rationals if draw(st.booleans()) else small_rationals
    head = draw(st.lists(top, min_size=min(3, n + 1), max_size=min(3, n + 1)))
    tail = draw(st.lists(small_rationals, min_size=n + 1 - len(head), max_size=n + 1 - len(head)))
    return head + tail


class TestCertifyPositiveOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_rationals, min_size=2, max_size=13))
    def test_verdict_matches_extreme_rays(self, partial_sums):
        """Forms are drawn by their values F_k on the rays, so boundary
        cases (F_k = 0, ties between rays) come up often."""
        n = len(partial_sums) - 1
        result = certify_positive(form_with_ray_values(partial_sums), symplectic_cone(n))
        assert result.is_positive == positive_by_extreme_rays(partial_sums)

    @settings(max_examples=300, deadline=None)
    @given(ray_values())
    def test_matches_fourier_motzkin(self, partial_sums):
        """The closed form against Fourier-Motzkin on the sliced system
        {g_k >= 0, s = 1, f <= 0}: the same verdict, a certificate over the
        same directed rows that passes `check_certificate`, and a witness in
        the cone where f <= 0."""
        n = len(partial_sums) - 1
        f = form_with_ray_values(partial_sums)
        cone = symplectic_cone(n)
        result = certify_positive(f, cone)
        sliced = [Constraint(g) for g in cone.nonstrict]
        sliced += [Constraint(cone.strict[0] - 1, EQ), Constraint(-f)]
        oracle = lp_feasible(sliced)
        assert result.is_positive == (not oracle.feasible)
        if result.is_positive:
            cert = result.certificate
            assert len(cert.certificate) == n + 4
            assert cert.ge_system == oracle.ge_system
            assert check_certificate(cert.ge_system, cert.certificate)
        else:
            assert cone.contains(result.witness)
            assert f.evaluate(result.witness) <= 0

    @pytest.mark.parametrize(
        "partial_sums, witness",
        [
            ([1, 1, 0], [1, 1, 1]),  # vertex r_2 / 1
            ([1, 2, 3, -1], ["2/3", "1/3", "1/3", "1/3"]),  # ray r_3 from r_0 / 3
            ([3, 1, 1, 0, -1], [2, 2, 1, 1, 1]),  # ray r_1 + 2 r_4 from r_1 / 2, nu set at j = 1
        ],
        ids=["vertex", "ray-r3", "ray-k4"],
    )
    def test_witness_branches(self, partial_sums, witness):
        n = len(partial_sums) - 1
        result = certify_positive(form_with_ray_values(partial_sums), symplectic_cone(n))
        assert not result.is_positive
        assert result.witness == dict(zip(symbols(n), map(Fraction, witness)))


class TestSymbolAudit:
    def test_pipeline_forms_stay_in_universe(self):
        cfg = embedded_c7()
        universe = set(symbols(13))
        coords = restrict(symplectic_class(13), cfg).coords
        for form in coords:
            assert set(form.variables) <= universe
        form = blowdown_pairing(Ambient(13).canonical_class(), cfg)
        assert set(form.variables) <= universe
