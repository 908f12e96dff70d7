"""Exact matrices, linear forms, and the certified feasibility solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdown.ratmath import (
    EQ,
    GE,
    Constraint,
    EmptySystem,
    LinearForm,
    Matrix,
    ShapeMismatch,
    SingularMatrix,
    check_certificate,
    check_witness,
    combine_certificate,
    lp_feasible,
)

rationals = st.fractions(max_denominator=50)


def tridiagonal_chain(diag: list[int]) -> Matrix:
    n = len(diag)
    return Matrix(
        [[diag[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    )


DUAL_FORM_P7 = Matrix(
    [
        [41, 33, 25, 17, 9, 1],
        [33, 66, 50, 34, 18, 2],
        [25, 50, 75, 51, 27, 3],
        [17, 34, 51, 68, 36, 4],
        [9, 18, 27, 36, 45, 5],
        [1, 2, 3, 4, 5, 6],
    ]
) * Fraction(-1, 49)


class TestMatrix:
    def test_invert_1x1(self):
        assert Matrix([[-4]]).inverse() == Matrix([[Fraction(-1, 4)]])

    def test_invert_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_invert_chain_p7(self):
        P = tridiagonal_chain([-2, -2, -2, -2, -2, -9])
        assert P.inverse() == DUAL_FORM_P7

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_not_square(self):
        with pytest.raises(ShapeMismatch):
            Matrix([[1, 2, 3], [4, 5, 6]]).inverse()
        with pytest.raises(ShapeMismatch):
            Matrix([[1, 2], [3]])

    def test_det(self):
        assert Matrix([[1, 2], [3, 4]]).det() == -2
        assert tridiagonal_chain([-2, -5]).det() == 9

    def test_negative_definite(self):
        assert tridiagonal_chain([-2, -2, -9]).is_negative_definite()
        assert not Matrix.identity(2).is_negative_definite()
        assert not Matrix([[-1, 0], [0, 1]]).is_negative_definite()

    def test_scalar_and_product(self):
        m = Matrix([[1, 2], [3, 4]])
        assert 2 * m == Matrix([[2, 4], [6, 8]])
        assert m * Matrix.identity(2) == m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_inverse_times_self_is_identity(self, n, rng):
        for _ in range(20):
            m = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if m.det() != 0:
                break
        else:
            return
        assert m.inverse() * m == Matrix.identity(n)
        assert m * m.inverse() == Matrix.identity(n)


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
