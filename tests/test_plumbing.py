"""Chain configurations, the E6-tilde fiber tree, and embedding checks."""

from fractions import Fraction

import pytest

from blowdown.lattice import Ambient, blow_up, pair, standard_classes
from blowdown.plumbing import (
    Configuration,
    EmbeddingFailed,
    InvalidP,
    LengthMismatch,
    PlumbingGraph,
    make_cp,
    make_e6_tilde,
    verify_embedding,
)
from blowdown.ratmath import Matrix


def c7_chain_classes():
    """u1..u5 = S1..S5 re-embedded in Ambient(13), u6 the -9 sphere."""
    ambient = Ambient(9)
    tracked = list(make_e6_tilde().classes)
    for _ in range(4):
        ambient, tracked, _ = blow_up(ambient, tracked)
    std = standard_classes(ambient)
    S = 4 * std.f + std.e[8] - 2 * std.e[9] - 2 * std.e[10] - 2 * std.e[11] - 2 * std.e[12]
    return tracked, tuple(tracked[:5]) + (S,)


def c5_chain_classes():
    ambient = Ambient(9)
    tracked = list(make_e6_tilde().classes)
    for _ in range(3):
        ambient, tracked, _ = blow_up(ambient, tracked)
    std = standard_classes(ambient)
    S = 3 * std.f + std.e[1] - 2 * std.e[9] - 2 * std.e[10] - 2 * std.e[11]
    return tuple(tracked[:3]) + (S,)


class TestPlumbingGraph:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            PlumbingGraph((("a", -2), ("b", -2), ("c", -2)), ((0, 1), (1, 2), (2, 0)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            PlumbingGraph((("a", -2), ("b", -2), ("c", -2), ("d", -2)), ((0, 1), (2, 3)))

    def test_gram_matrix(self):
        g = PlumbingGraph((("a", -2), ("b", -7)), ((0, 1),))
        assert g.gram_matrix() == Matrix([[-2, 1], [1, -7]])


class TestMakeCp:
    def test_p2(self):
        cfg = make_cp(2)
        assert cfg.graph.weights == (-4,)
        assert cfg.P == Matrix([[-4]])
        assert cfg.Q == Matrix([[Fraction(-1, 4)]])
        assert cfg.boundary == (4, -1)

    def test_p3(self):
        cfg = make_cp(3)
        assert cfg.P == Matrix([[-2, 1], [1, -5]])
        assert cfg.P.det() == 9
        assert cfg.Q == Matrix([[5, 1], [1, 2]]) * Fraction(-1, 9)

    def test_p7_dual_form(self):
        expected = Matrix(
            [
                [41, 33, 25, 17, 9, 1],
                [33, 66, 50, 34, 18, 2],
                [25, 50, 75, 51, 27, 3],
                [17, 34, 51, 68, 36, 4],
                [9, 18, 27, 36, 45, 5],
                [1, 2, 3, 4, 5, 6],
            ]
        ) * Fraction(-1, 49)
        assert make_cp(7).Q == expected

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            make_cp(1)

    @pytest.mark.parametrize("p", range(2, 41))
    def test_chain_identities(self, p):
        cfg = make_cp(p)
        n = p - 1
        assert cfg.P * cfg.Q == Matrix.identity(n)
        assert abs(cfg.P.det()) == p * p
        assert cfg.P.is_negative_definite()
        assert cfg.boundary == (p * p, 1 - p)
        # the last dual-form row that collapses canonical restrictions
        expected_last = tuple(Fraction(-j, p * p) for j in range(1, p))
        assert cfg.Q.rows[n - 1] == expected_last


class TestE6Tilde:
    def test_all_spheres_square_minus_two(self):
        fiber = make_e6_tilde()
        assert all(c.square == -2 for c in fiber.classes)

    def test_gram_matches_tree(self):
        fiber = make_e6_tilde()
        gram = fiber.graph.gram_matrix()
        edges = set(fiber.graph.edges)
        for i in range(7):
            for j in range(i + 1, 7):
                expected = 1 if (i, j) in edges else 0
                assert pair(fiber.classes[i], fiber.classes[j]) == expected
                assert gram[i, j] == expected

    def test_multiplicity_sum_is_fiber(self):
        fiber = make_e6_tilde()
        total = Ambient(9).clazz((0,) * 10)
        for m, c in zip(fiber.multiplicities, fiber.classes):
            total = total + m * c
        assert total == Ambient(9).fiber_class()
        assert fiber.multiplicities == (1, 2, 3, 2, 1, 2, 1)

    def test_canonical_orthogonal_to_spheres(self):
        K = Ambient(9).canonical_class()
        assert all(pair(K, c) == 0 for c in make_e6_tilde().classes)


class TestVerifyEmbedding:
    def test_c7_embedding(self):
        _, chain = c7_chain_classes()
        check = verify_embedding(make_cp(7), chain)
        assert check
        assert check.entries_checked == 21
        assert pair(chain[4], chain[5]) == 1  # S5 . S
        assert chain[5].square == -9

    def test_c5_embedding(self):
        chain = c5_chain_classes()
        assert verify_embedding(make_cp(5), chain)
        assert chain[3].square == -7

    def test_wrong_final_sphere(self):
        tracked, chain = c7_chain_classes()
        bad = tuple(chain[:5]) + (tracked[5],)  # S6 has square -2, not -9
        check = verify_embedding(make_cp(7), bad)
        assert not check
        i, j, expected, actual = check.first_mismatch
        assert (i, j) == (5, 5)
        assert (expected, actual) == (Fraction(-9), -2)
        assert "u6" in check.message

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            verify_embedding(make_cp(7), c5_chain_classes())

    def test_embedded_gram_is_negative_definite(self):
        _, chain = c7_chain_classes()
        cfg = make_cp(7).with_embedding(chain)
        gram = Matrix([[pair(x, y) for y in chain] for x in chain])
        assert gram.is_negative_definite()
        assert cfg.embedded_classes == chain

    def test_with_embedding_rejects_bad_classes(self):
        tracked, chain = c7_chain_classes()
        bad = tuple(chain[:5]) + (tracked[5],)
        with pytest.raises(EmbeddingFailed):
            make_cp(7).with_embedding(bad)

    def test_direct_construction_validates(self):
        tracked, chain = c7_chain_classes()
        good = make_cp(7)
        bad = tuple(chain[:5]) + (tracked[5],)
        with pytest.raises(EmbeddingFailed):
            Configuration(good.p, good.graph, good.P, good.Q, good.boundary, bad)
