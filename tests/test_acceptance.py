"""Acceptance suite: every computational claim of the published chains,
reproduced exactly.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact (Fraction equality); the stated
runtime budgets are asserted with perf_counter.
"""

import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import chain_classes_c5, chain_classes_c7, random_cone_point
from fm_oracle import lp_feasible

from blowdown.cli import main as cli_main
from blowdown.cone import (
    certify_positive,
    pair_dual,
    restrict,
    symplectic_class,
    symplectic_cone,
)
from blowdown.invariants import (
    blow_up_invariants,
    blowup_basic_classes,
    homeo_type,
    kotschick_bound,
    rational_blowdown,
    rational_surface_invariants,
    sw_dimension,
    wall_crossing_delta,
)
from blowdown.lattice import Ambient, blow_up, light_cone_sign, pair
from blowdown.plumbing import make_cp, make_e6_tilde, verify_embedding
from blowdown.ratmath import (
    EQ,
    GE,
    Constraint,
    LinearForm,
    Matrix,
    check_certificate,
    check_witness,
)
from blowdown.reports import run_main1, run_main2, run_main3


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({description}): FAIL")
        raise
    print(f"criterion {num} ({description}): PASS")


REFERENCE_Q7 = Matrix(
    [
        [41, 33, 25, 17, 9, 1],
        [33, 66, 50, 34, 18, 2],
        [25, 50, 75, 51, 27, 3],
        [17, 34, 51, 68, 36, 4],
        [9, 18, 27, 36, 45, 5],
        [1, 2, 3, 4, 5, 6],
    ]
) * Fraction(-1, 49)


def form_from(scale: Fraction, coeffs: dict[str, int]) -> LinearForm:
    return LinearForm({v: scale * c for v, c in coeffs.items()})


C7_RESTRICTED = form_from(
    Fraction(-1, 7),
    {
        "a": 75, "b1": -25, "b2": -23, "b3": -27, "b4": -25, "b5": -23,
        "b6": -24, "b7": -25, "b8": -24, "b9": -23,
        "b10": -12, "b11": -12, "b12": -12, "b13": -12,
    },
)
C7_BLOWDOWN = form_from(
    Fraction(1, 7),
    {
        "a": 54, "b1": -18, "b2": -16, "b3": -20, "b4": -18, "b5": -16,
        "b6": -17, "b7": -18, "b8": -17, "b9": -16,
        "b10": -5, "b11": -5, "b12": -5, "b13": -5,
    },
)
C5_RESTRICTED = form_from(
    Fraction(-1, 5),
    {
        "a": 39, "b1": -13, "b2": -11, "b3": -15, "b4": -13, "b5": -12,
        "b6": -12, "b7": -13, "b8": -12, "b9": -12,
        "b10": -8, "b11": -8, "b12": -8,
    },
)
C5_BLOWDOWN = form_from(
    Fraction(1, 5),
    {
        "a": 24, "b1": -8, "b2": -6, "b3": -10, "b4": -8, "b5": -7,
        "b6": -7, "b7": -8, "b8": -7, "b9": -7,
        "b10": -3, "b11": -3, "b12": -3,
    },
)


def test_criterion_1_dual_form_reproduction():
    with criterion(1, "dual form Q for p = 7 via the CLI"):
        start = time.perf_counter()
        out = io.StringIO()
        code = cli_main(["plumbing", "--p", "7", "--json"], out=out, err=io.StringIO())
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out.getvalue())
        got = Matrix([[Fraction(x) for x in row] for row in payload["Q"]])
        assert got == REFERENCE_Q7
        assert elapsed < 0.1, f"took {elapsed:.3f}s, budget 0.1s"


def test_criterion_2_fiber_tree_suite():
    with criterion(2, "E6-tilde fiber tree classes"):
        fiber = make_e6_tilde()
        assert all(c.square == -2 for c in fiber.classes)
        edges = set(fiber.graph.edges)
        for i in range(7):
            for j in range(i + 1, 7):
                expected = 1 if (i, j) in edges else 0
                assert pair(fiber.classes[i], fiber.classes[j]) == expected
        total = Ambient(9).clazz((0,) * 10)
        for m, c in zip((1, 2, 3, 2, 1, 2, 1), fiber.classes):
            total = total + m * c
        assert total.coeffs == (3,) + (-1,) * 9


def test_criterion_3_chain_realizations():
    with criterion(3, "chain realizations: squares and embeddings"):
        _, c7 = chain_classes_c7()
        assert c7[-1].square == -9
        assert verify_embedding(make_cp(7), c7)
        c5 = chain_classes_c5()
        assert c5[-1].square == -7
        assert verify_embedding(make_cp(5), c5)


def test_criterion_4_c7_pairing_chain():
    with criterion(4, "p = 7 restriction/pairing/positivity chain"):
        start = time.perf_counter()
        _, chain = chain_classes_c7()
        cfg = make_cp(7).with_embedding(chain)
        K = Ambient(13).canonical_class()
        omega = symplectic_class(13)

        k_coords = restrict(K, cfg).coords
        assert k_coords == tuple(Fraction(c) for c in (0, 0, 0, 0, 0, 7))

        w_coords = restrict(omega, cfg).coords
        expected_w = (
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
        assert w_coords == expected_w

        restricted = pair_dual(restrict(K, cfg), restrict(omega, cfg))
        assert restricted == C7_RESTRICTED

        blowdown = omega.dot(K) - restricted
        assert blowdown == C7_BLOWDOWN

        result = certify_positive(blowdown, symplectic_cone(13))
        assert result.is_positive
        cert = result.certificate
        assert check_certificate(cert.ge_system, cert.certificate)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_5_c5_pairing_chain():
    with criterion(5, "p = 5 restriction/pairing/positivity chain"):
        start = time.perf_counter()
        chain = chain_classes_c5()
        cfg = make_cp(5).with_embedding(chain)
        K = Ambient(12).canonical_class()
        omega = symplectic_class(12)

        assert restrict(K, cfg).coords == tuple(Fraction(c) for c in (0, 0, 0, 5))
        restricted = pair_dual(restrict(K, cfg), restrict(omega, cfg))
        assert restricted == C5_RESTRICTED
        blowdown = omega.dot(K) - restricted
        assert blowdown == C5_BLOWDOWN
        assert certify_positive(blowdown, symplectic_cone(12)).is_positive
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_6_invariant_pipeline():
    with criterion(6, "invariant pipeline through both blow-downs"):
        seven = rational_blowdown(
            rational_surface_invariants(13), 7, assume_simply_connected=True
        )
        assert seven.as_tuple() == (1, 7, 10, -6, 2)
        assert homeo_type(seven) == "CP^2 # 7CPbar^2"

        five = rational_blowdown(
            rational_surface_invariants(12), 5, assume_simply_connected=True
        )
        assert five.as_tuple() == (1, 8, 11, -7, 1)
        assert homeo_type(five) == "CP^2 # 8CPbar^2"


def test_criterion_7_einstein_obstruction():
    with criterion(7, "Einstein obstruction bound and contradiction"):
        base = rational_blowdown(
            rational_surface_invariants(13), 7, assume_simply_connected=True
        )
        blown_up = blow_up_invariants(base)
        assert (blown_up.euler, blown_up.signature) == (11, -7)

        K = Ambient(base.b2minus).canonical_class()
        basic = blowup_basic_classes([K])
        assert [c.square for c in basic] == [1, 1]
        assert 3 * blown_up.signature + 2 * blown_up.euler == 1
        d = sw_dimension(basic[0].square, blown_up)
        assert d == 0

        assert kotschick_bound(blown_up, d) == Fraction(1, 2)
        report = run_main3()
        assert report.einstein_bound == Fraction(1, 2)
        assert "1 <= k <= 1/2" in report.contradiction
        assert "impossible" in report.contradiction


def test_criterion_8_wall_crossing():
    with criterion(8, "wall-crossing jump at dimension zero"):
        assert wall_crossing_delta(0) == -1


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites, all exact"):
        start = time.perf_counter()
        _suite_chain_configurations()
        _suite_pairing_bilinearity(1000)
        _suite_blowup_isometry(1000)
        _suite_light_cone(1000)
        _suite_lp_soundness(1000)
        _suite_positive_verdicts_vs_sampling(10_000)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def _suite_chain_configurations():
    for p in range(2, 13):
        cfg = make_cp(p)
        n = p - 1
        assert cfg.P * cfg.Q == Matrix.identity(n)
        assert abs(cfg.P.det()) == p * p
        assert cfg.Q.rows[n - 1] == tuple(Fraction(-j, p * p) for j in range(1, p))
        assert cfg.P.is_negative_definite()


def _suite_pairing_bilinearity(cases: int):
    rng = random.Random(1)
    for _ in range(cases):
        n = rng.randint(0, 13)
        ambient = Ambient(n)
        rand = lambda: ambient.clazz([rng.randint(-9, 9) for _ in range(n + 1)])
        x, y, z = rand(), rand(), rand()
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert pair(x, y) == pair(y, x)
        assert pair(a * x + b * y, z) == a * pair(x, z) + b * pair(y, z)


def _suite_blowup_isometry(cases: int):
    rng = random.Random(2)
    for _ in range(cases):
        n = rng.randint(0, 12)
        ambient = Ambient(n)
        classes = [
            ambient.clazz([rng.randint(-5, 5) for _ in range(n + 1)])
            for _ in range(rng.randint(1, 3))
        ]
        _, re_embedded, E = blow_up(ambient, classes)
        for i in range(len(classes)):
            for j in range(len(classes)):
                assert pair(classes[i], classes[j]) == pair(re_embedded[i], re_embedded[j])
        assert E.square == -1
        assert all(pair(E, c) == 0 for c in re_embedded)


def _suite_light_cone(cases: int):
    rng = random.Random(3)
    import math

    def isqrt_ceil(k: int) -> int:
        r = math.isqrt(k)
        return r if r * r == k else r + 1

    done = 0
    while done < cases:
        n = rng.randint(1, 13)
        ambient = Ambient(n)
        tail_c = [rng.randint(-3, 3) for _ in range(n)]
        head_c = rng.choice([-1, 1]) * (rng.randint(0, 3) + isqrt_ceil(sum(t * t for t in tail_c)))
        c = ambient.clazz([head_c] + tail_c)
        if c.is_zero() or c.square < 0:
            continue
        tail_w = [rng.randint(-3, 3) for _ in range(n)]
        head_w = rng.choice([-1, 1]) * (
            1 + rng.randint(0, 3) + isqrt_ceil(sum(t * t for t in tail_w))
        )
        w = ambient.clazz([head_w] + tail_w)
        if w.square <= 0:
            continue
        assert pair(c, w) != 0
        assert light_cone_sign(c, w) == (1 if pair(c, w) > 0 else -1)
        done += 1


def _suite_lp_soundness(cases: int):
    rng = random.Random(4)
    feasible = infeasible = 0
    for _ in range(cases):
        names = ["x1", "x2", "x3", "x4"][: rng.randint(1, 4)]
        constraints = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: rng.randint(-3, 3) for v in names}
            const = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            kind = EQ if rng.random() < 0.25 else GE
            constraints.append(Constraint(LinearForm(coeffs, const), kind))
        outcome = lp_feasible(constraints)
        if outcome.feasible:
            feasible += 1
            assert check_witness(constraints, outcome.witness)
        else:
            infeasible += 1
            assert check_certificate(outcome.ge_system, outcome.certificate)
    assert feasible > 0 and infeasible > 0


def _suite_positive_verdicts_vs_sampling(samples: int):
    """Every Positive verdict issued in this suite is cross-checked against a
    brute-force sign sample of admissible cone points."""
    intermediate_slack = form_from(
        Fraction(1, 7),
        {"b2": 2, "b3": -2, "b5": 2, "b6": 1, "b8": 1, "b9": 2,
         "b10": 13, "b11": 13, "b12": 13, "b13": 13},
    )
    verdicts = [
        (13, C7_BLOWDOWN),
        (12, C5_BLOWDOWN),
        (13, C7_BLOWDOWN - intermediate_slack),
        (13, LinearForm({"a": 1})),
    ]
    rng = random.Random(6)
    for n, form in verdicts:
        result = certify_positive(form, symplectic_cone(n))
        assert result.is_positive
        cert = result.certificate
        assert check_certificate(cert.ge_system, cert.certificate)
        for _ in range(samples):
            assert form.evaluate(random_cone_point(rng, n)) > 0


def test_full_reports_agree_with_acceptance_values():
    """The packaged report runners reproduce the same frozen values end to end."""
    r1 = run_main1()
    assert r1.blowdown_form == C7_BLOWDOWN
    assert r1.positivity.is_positive
    r2 = run_main2()
    assert r2.blowdown_form == C5_BLOWDOWN
    assert r2.positivity.is_positive
