"""Exact matrices, linear forms, the evidence checkers, and the
Fourier-Motzkin oracle of `fm_oracle`."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fm_oracle import EmptySystem, lp_feasible

from blowdown.ratmath import (
    EQ,
    GE,
    Constraint,
    LinearForm,
    Matrix,
    ShapeMismatch,
    check_certificate,
    check_witness,
    combine_certificate,
    linear_combination,
    var_key,
)

rationals = st.fractions(max_denominator=50)


def tridiagonal_chain(diag: list[int]) -> Matrix:
    n = len(diag)
    return Matrix(
        [[diag[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    )


def leading_minors_alternate(m: Matrix) -> bool:
    """Negative definiteness by its textbook test: sign(D_k) = (-1)^k."""
    n = m.nrows
    dets = [Matrix([r[:k] for r in m.rows[:k]]).det() for k in range(1, n + 1)]
    return all(d < 0 if k % 2 else d > 0 for k, d in enumerate(dets, start=1))


class TestMatrix:
    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            Matrix([[1, 2, 3], [4, 5, 6]]).det()
        with pytest.raises(ShapeMismatch):
            Matrix([[1, 2], [3]])

    def test_det(self):
        assert Matrix([[1, 2], [3, 4]]).det() == -2
        assert tridiagonal_chain([-2, -5]).det() == 9
        assert Matrix([[0, 1], [1, 0]]).det() == -1  # needs a row swap
        assert Matrix([[1, 2], [2, 4]]).det() == 0

    def test_negative_definite(self):
        assert tridiagonal_chain([-2, -2, -9]).is_negative_definite()
        assert not Matrix.identity(2).is_negative_definite()
        assert not Matrix([[-1, 0], [0, 1]]).is_negative_definite()
        assert not Matrix([[0, 1], [1, -1]]).is_negative_definite()

    def test_scalar_and_product(self):
        m = Matrix([[1, 2], [3, 4]])
        assert 2 * m == Matrix([[2, 4], [6, 8]])
        assert m * Matrix.identity(2) == m

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 30), st.randoms(use_true_random=False))
    def test_negative_definite_matches_leading_minors(self, n, shift, rng):
        """The shift pushes the diagonal down so both verdicts occur."""
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.randint(-5, 5) - shift
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        m = Matrix(a)
        assert m.is_negative_definite() == leading_minors_alternate(m)


class TestRationalArithmetic:
    @given(rationals, rationals, rationals)
    def test_field_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(rationals, rationals)
    def test_lowest_terms(self, x, y):
        import math

        value = x * y + x - y
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


class TestLinearForm:
    def test_construction_and_str(self):
        f = LinearForm({"a": 3, "b1": -1, "b2": 0}, 0)
        assert f.variables == ("a", "b1")
        assert str(f) == "3*a - b1"
        assert str(LinearForm()) == "0"
        assert str(LinearForm({"x": 1}, -2)) == "x - 2"

    def test_natural_symbol_order(self):
        f = LinearForm({"b10": 1, "b2": 1, "a": 1})
        assert f.variables == ("a", "b2", "b10")

    def test_arithmetic(self):
        f = LinearForm({"x": 2}, 1)
        g = LinearForm({"x": -2, "y": 1})
        assert (f + g) == LinearForm({"y": 1}, 1)
        assert (f - f).is_zero()
        assert (3 * g) == LinearForm({"x": -6, "y": 3})
        assert (f * LinearForm.constant(2)) == LinearForm({"x": 4}, 2)

    def test_nonlinear_product_rejected(self):
        f = LinearForm({"x": 1})
        with pytest.raises(ValueError):
            f * f

    def test_evaluate(self):
        f = LinearForm({"x": 2, "y": -3}, 5)
        assert f.evaluate({"x": Fraction(1, 2), "y": 1}) == 3


class TestLinearCombination:
    def test_zero_weight_is_skipped(self):
        f = LinearForm({"x": 1}, 2)
        g = LinearForm({"y": 5})
        assert linear_combination([(0, g), (2, f), (Fraction(0), g)]) == LinearForm({"x": 2}, 4)

    def test_scalar_items(self):
        f = LinearForm({"x": 1})
        combo = linear_combination([(2, Fraction(1, 3)), (Fraction(1, 2), f), (-1, 5)])
        assert combo == LinearForm({"x": Fraction(1, 2)}, Fraction(-13, 3))

    def test_cancelling_term_is_dropped(self):
        combo = linear_combination([(1, LinearForm({"x": 1, "y": 2})), (-1, LinearForm({"x": 1}, 3))])
        assert combo.variables == ("y",)
        assert combo == LinearForm({"y": 2}, -3)

    def test_empty_input_is_zero(self):
        assert linear_combination([]) == LinearForm()
        assert linear_combination([]).is_zero()


NAMES = ["a", *(f"b{i}" for i in range(1, 13)), "x", "y"]
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coefficient_maps = st.dictionaries(st.sampled_from(NAMES), small_fractions, max_size=6)
forms = st.builds(LinearForm, coefficient_maps, small_fractions)


def reference_combination(pairs) -> tuple[dict[str, Fraction], Fraction]:
    """sum(weight * item) term by term in Fractions, zero terms dropped."""
    acc: dict[str, Fraction] = {}
    const = Fraction(0)
    for weight, item in pairs:
        if isinstance(item, LinearForm):
            for v, c in item.coeffs.items():
                acc[v] = acc.get(v, Fraction(0)) + weight * c
            const += weight * item.const
        else:
            const += weight * item
    return {v: c for v, c in acc.items() if c}, const


def reference_str(coeffs: dict[str, Fraction], const: Fraction) -> str:
    """The renderer LinearForm used while it held one Fraction per term."""
    parts: list[str] = []
    for v, c in sorted(coeffs.items(), key=lambda t: var_key(t[0])):
        mag = abs(c)
        term = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    if const or not parts:
        mag = abs(const)
        if not parts:
            parts.append(str(const))
        else:
            parts.append(f"+ {mag}" if const > 0 else f"- {mag}")
    return " ".join(parts)


class TestIntegerCore:
    """The integer representation against term-by-term Fraction arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(small_fractions, st.one_of(forms, small_fractions)), max_size=6))
    def test_linear_combination_matches_fractions(self, pairs):
        got = linear_combination(pairs)
        coeffs, const = reference_combination(pairs)
        assert got.coeffs == coeffs and got.const == const
        assert got.variables == tuple(sorted(coeffs, key=var_key))

    @settings(max_examples=200, deadline=None)
    @given(coefficient_maps, small_fractions, st.integers(0, 6), small_fractions.filter(bool))
    def test_equal_forms_by_any_route_are_equal(self, coeffs, const, cut, scale):
        """Built whole, as a sum of two parts, as a scalar multiple and by
        double negation: one canonical representation, one hash."""
        whole = LinearForm(coeffs, const)
        items = list(coeffs.items())
        summed = LinearForm(dict(items[:cut]), const) + LinearForm(dict(items[cut:]))
        scaled = LinearForm({v: c / scale for v, c in items}, const / scale) * scale
        routes = [whole, summed, scaled, -(-whole), whole + whole - whole]
        assert all(form == whole for form in routes)
        assert {hash(form) for form in routes} == {hash(whole)}

    @settings(max_examples=200, deadline=None)
    @given(forms, st.dictionaries(st.sampled_from(NAMES), st.one_of(st.just(0), small_fractions)))
    def test_evaluate_matches_fractions(self, form, values):
        point = {v: values.get(v, Fraction(0)) for v in form.variables}
        expected = sum((c * point[v] for v, c in form.coeffs.items()), form.const)
        value = form.evaluate(point)
        assert isinstance(value, Fraction) and value == expected
        if form.variables:
            del point[form.variables[-1]]
            with pytest.raises(KeyError):
                form.evaluate(point)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_maps, small_fractions)
    def test_str_matches_fraction_renderer(self, coeffs, const):
        form = LinearForm(coeffs, const)
        assert str(form) == reference_str({v: c for v, c in coeffs.items() if c}, const)
        assert str(-form) == reference_str({v: -c for v, c in coeffs.items() if c}, -const)


class TestLpFeasible:
    def test_feasible_with_equality(self):
        x = LinearForm({"x": 1})
        outcome = lp_feasible([Constraint(x, GE), Constraint(x - 1, EQ)])
        assert outcome.feasible
        assert outcome.witness == {"x": Fraction(1)}

    def test_infeasible_pair(self):
        # x >= 0 together with -x >= 1
        outcome = lp_feasible(
            [Constraint(LinearForm({"x": 1}), GE), Constraint(LinearForm({"x": -1}, -1), GE)]
        )
        assert not outcome.feasible
        assert outcome.certificate == (Fraction(1), Fraction(1))
        combo = combine_certificate(outcome.ge_system, outcome.certificate)
        assert combo.is_constant() and combo.const == -1

    def test_empty_raises(self):
        with pytest.raises(EmptySystem):
            lp_feasible([])

    def test_constant_infeasible(self):
        outcome = lp_feasible([Constraint(LinearForm.constant(-3), GE)])
        assert not outcome.feasible
        assert check_certificate(outcome.ge_system, outcome.certificate)

    def test_unbounded_direction_is_feasible(self):
        outcome = lp_feasible([Constraint(LinearForm({"x": 1}, -7), GE)])
        assert outcome.feasible
        assert outcome.witness["x"] >= 7

    def test_equality_chain(self):
        # x = y, y = 3, x >= 0
        cons = [
            Constraint(LinearForm({"x": 1, "y": -1}), EQ),
            Constraint(LinearForm({"y": 1}, -3), EQ),
            Constraint(LinearForm({"x": 1}), GE),
        ]
        outcome = lp_feasible(cons)
        assert outcome.feasible
        assert outcome.witness == {"x": Fraction(3), "y": Fraction(3)}

    def test_infeasible_equalities(self):
        cons = [
            Constraint(LinearForm({"x": 1}, -1), EQ),
            Constraint(LinearForm({"x": 1}, 1), EQ),
        ]
        outcome = lp_feasible(cons)
        assert not outcome.feasible
        assert check_certificate(outcome.ge_system, outcome.certificate)

    def test_scaled_input_row_is_never_a_duplicate(self):
        """Input rows that had to be scaled to primitive integer rows
        (3x + 3z + 3, -2x + 2z, 3y + 3z) never match a derived row as duplicates;
        dropping such a match changes the elimination and gives x = -2."""
        rows = [
            ({"x": 3, "z": 3}, 3),
            ({"x": -2, "z": 2}, 0),
            ({"y": -1, "z": -1}, 1),
            ({"y": 3, "z": 3}, 0),
            ({"x": -1, "y": 1}, -1),
            ({"y": -1}, -1),
        ]
        outcome = lp_feasible([Constraint(LinearForm(c, k), GE) for c, k in rows])
        assert outcome.witness == {"x": Fraction(-9, 4), "y": Fraction(-1), "z": Fraction(3, 2)}

    def _random_system(self, rng: random.Random) -> list[Constraint]:
        names = ["x1", "x2", "x3", "x4"][: rng.randint(1, 4)]
        constraints = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: rng.randint(-3, 3) for v in names}
            const = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            kind = EQ if rng.random() < 0.25 else GE
            constraints.append(Constraint(LinearForm(coeffs, const), kind))
        return constraints

    def test_random_soundness(self):
        rng = random.Random(20240811)
        feasible = infeasible = 0
        for _ in range(300):
            constraints = self._random_system(rng)
            outcome = lp_feasible(constraints)
            if outcome.feasible:
                feasible += 1
                assert check_witness(constraints, outcome.witness)
            else:
                infeasible += 1
                assert check_certificate(outcome.ge_system, outcome.certificate)
                # the combination must contradict: zero linear part, negative const
                combo = combine_certificate(outcome.ge_system, outcome.certificate)
                assert combo.is_constant() and combo.const < 0
        assert feasible and infeasible  # both branches exercised

    # SHA-256 of the oracle's answers on the 300 systems above, as generated
    # by the Fourier-Motzkin eliminator before it moved to integer rows.
    RANDOM_SYSTEMS_DIGEST = "a868c245467e30d49c49d96dea2e6d02696cee215b0e959e8a5614262a86adfb"

    def test_random_systems_answers_are_pinned(self):
        """Status, certificate and witness, as strings, byte for byte: the
        elimination order, duplicate dropping and normalization decide them."""
        rng = random.Random(20240811)
        digest = hashlib.sha256()
        for _ in range(300):
            outcome = lp_feasible(self._random_system(rng))
            certificate = None if outcome.certificate is None else list(map(str, outcome.certificate))
            witness = None if outcome.witness is None else sorted(
                (v, str(x)) for v, x in outcome.witness.items()
            )
            digest.update(repr((outcome.status, certificate, witness)).encode())
        assert digest.hexdigest() == self.RANDOM_SYSTEMS_DIGEST
