"""Scenario files, the pipeline, report contents and determinism."""

import dataclasses
import tracemalloc
from fractions import Fraction

import pytest

from blowdown import cone, plumbing, ratmath, reports
from blowdown.cone import POSITIVE
from blowdown.plumbing import EmbeddingFailed
from blowdown.reports import (
    ASSUMED,
    COMPUTED,
    ParseError,
    Scenario,
    builtin_scenario,
    builtin_scenario_text,
    check_against_reference,
    parse_scenario_text,
    run_main1,
    run_main2,
    run_main3,
    run_pipeline,
    run_scenario,
    scenario_text,
)

C7_CHAIN_VECTORS = (
    (0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0),
    (12, -4, -4, -4, -4, -4, -4, -4, -4, -3, -2, -2, -2, -2),
)

# u1 = h - e1 - ... - e5 has square -4 but pairs badly with K
NOT_POSITIVE_SCENARIO = Scenario("flat", 5, 2, ((1, -1, -1, -1, -1, -1),), (-3, 1, 1, 1, 1, 1))


class TestBuiltinScenarios:
    def test_c7_vectors(self):
        s = builtin_scenario("C7-main")
        assert (s.n, s.p) == (13, 7)
        assert s.classes == C7_CHAIN_VECTORS
        assert s.canonical == (-3,) + (1,) * 13
        assert s.simply_connected_asserted

    def test_c5_vectors(self):
        s = builtin_scenario("C5-main")
        assert (s.n, s.p) == (12, 5)
        assert s.classes[3] == (9, -3, -2, -3, -3, -3, -3, -3, -3, -3, -2, -2, -2)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            builtin_scenario("C11-main")

    def test_text_round_trip(self):
        for name in ("C7-main", "C5-main"):
            s = builtin_scenario(name)
            parsed = parse_scenario_text(scenario_text(s), name=name)
            assert parsed == s


class TestScenarioParsing:
    def test_builtin_reference(self):
        assert parse_scenario_text("builtin = C7-main\n") == builtin_scenario("C7-main")

    def test_builtin_mixed_with_directives(self):
        with pytest.raises(ParseError):
            parse_scenario_text("builtin = C7-main\nn = 13\n")

    @pytest.mark.parametrize(
        "text",
        ["builtin = C7-main\nassume simply_connected = false\n", "assume simply_connected = false\nbuiltin = C7-main\n"],
    )
    def test_builtin_mixed_with_assume(self, text):
        with pytest.raises(ParseError, match="builtin reference cannot be combined"):
            parse_scenario_text(text)

    def test_unknown_directive_has_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_scenario_text("n = 5\nwhat = 3\n")
        assert info.value.line == 2

    def test_missing_n(self):
        with pytest.raises(ParseError, match="n ="):
            parse_scenario_text("p = 2\nclass u1 = [1, 0]\n")

    def test_missing_class(self):
        with pytest.raises(ParseError, match="missing u2"):
            parse_scenario_text("n = 2\np = 3\nclass u1 = [1, 0, 0]\n")

    def test_bad_vector(self):
        with pytest.raises(ParseError):
            parse_scenario_text("n = 1\np = 2\nclass u1 = [1, oops]\n")

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError, match="coefficients"):
            parse_scenario_text("n = 3\np = 2\nclass u1 = [1, 0]\n")

    def test_huge_n_is_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="coefficients"):
                parse_scenario_text("n = 1000000\np = 2\nclass u1 = [0]\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_default_canonical(self):
        s = parse_scenario_text("n = 2\np = 2\nclass u1 = [0, 1, -1]\n")
        assert s.canonical == (-3, 1, 1)
        assert not s.simply_connected_asserted

    def test_typographic_minus_tolerated(self):
        s = parse_scenario_text("n = 1\np = 2\nclass u1 = [−2, 0]\n")
        assert s.classes[0] == (-2, 0)

    def test_assume_with_justification(self):
        s = parse_scenario_text(
            'n = 2\np = 2\nclass u1 = [0, 1, -1]\nassume simply_connected = true "disk argument"\n'
        )
        assert s.simply_connected_asserted
        assert s.justification == "disk argument"

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nn = 2\np = 2\n# another\nclass u1 = [0, 1, -1]\n"
        assert parse_scenario_text(text).n == 2


class TestMainChains:
    def test_main1_headline_values(self):
        r = run_main1()
        assert r.positivity.verdict == POSITIVE
        assert r.canonical_restriction.coords == tuple(Fraction(c) for c in (0, 0, 0, 0, 0, 7))
        assert r.invariant_steps[-1][1].as_tuple() == (1, 7, 10, -6, 2)
        assert r.homeomorphism_type == "CP^2 # 7CPbar^2"
        assert r.configuration.embedding.entries_checked == 21
        statuses = {c.status for c in r.conclusions}
        assert statuses == {COMPUTED, ASSUMED}

    def test_main2_headline_values(self):
        r = run_main2()
        assert r.positivity.verdict == POSITIVE
        assert r.canonical_restriction.coords == tuple(Fraction(c) for c in (0, 0, 0, 5))
        assert r.invariant_steps[-1][1].as_tuple() == (1, 8, 11, -7, 1)
        assert r.homeomorphism_type == "CP^2 # 8CPbar^2"

    def test_main3_obstruction(self):
        r = run_main3()
        assert r.einstein_bound == Fraction(1, 2)
        assert "1 <= k <= 1/2" in r.contradiction
        labels = [label for label, _ in r.basic_classes]
        assert labels == ["K+E", "K-E"]
        assert all(c.square == 1 for _, c in r.basic_classes)
        assert all(rec.dimension == 0 for rec in r.sw_records)
        assert r.homeomorphism_type == "CP^2 # 8CPbar^2"

    def test_reports_deterministic(self):
        assert run_main1().to_json() == run_main1().to_json()
        assert run_main3().to_json() == run_main3().to_json()

    def test_json_has_exact_fractions(self):
        payload = run_main1().to_json()
        assert "54/7" in payload and "-41/49" in payload
        assert "0.7" not in payload  # no decimals anywhere


class TestRunScenario:
    def test_builtin_file_matches_main1(self, tmp_path):
        path = tmp_path / "c7.scenario"
        path.write_text("builtin = C7-main\n", encoding="utf-8")
        assert run_scenario(path) == run_main1()
        assert run_scenario(path).to_json() == run_main1().to_json()

    def test_explicit_file_matches_main1_computation(self, tmp_path):
        path = tmp_path / "C7-main.scenario"
        path.write_text(builtin_scenario_text("C7-main"), encoding="utf-8")
        report = run_scenario(path)
        assert report == run_main1()

    def test_wrong_weight_sphere_fails_on_diagonal(self):
        vectors = C7_CHAIN_VECTORS[:5] + (
            (0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0),  # S6 zero-extended, square -2
        )
        scenario = Scenario("bad", 13, 7, vectors, (-3,) + (1,) * 13)
        with pytest.raises(EmbeddingFailed, match=r"\(u6, u6\).*expected -9, got -2"):
            run_pipeline(scenario)

    def test_p2_wrong_square(self):
        scenario = Scenario("bad2", 2, 2, ((0, 1, -1),), (-3, 1, 1))
        with pytest.raises(EmbeddingFailed, match="expected -4, got -2"):
            run_pipeline(scenario)

    def test_not_positive_is_reported_not_raised(self):
        report = run_pipeline(NOT_POSITIVE_SCENARIO)
        assert not report.positivity.is_positive
        assert report.positivity.witness is not None
        assert any("not positive" in c.statement for c in report.conclusions)
        assert report.homeomorphism_type is None  # pi_1 never asserted


class TestOneGatePerFact:
    # checked function -> the module that defines it
    COUNTED = {
        "verify_embedding": plumbing,
        "check_certificate": ratmath,
        "check_witness": ratmath,
        "restrict": cone,
        "pair_dual": cone,
    }

    def count_calls(self, monkeypatch) -> dict[str, int]:
        calls = dict.fromkeys(self.COUNTED, 0)
        for name, home in self.COUNTED.items():
            real = getattr(home, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (ratmath, plumbing, cone, reports):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "scenario", [builtin_scenario("C7-main"), NOT_POSITIVE_SCENARIO], ids=["main1", "flat"]
    )
    def test_each_check_runs_once_per_pipeline(self, monkeypatch, scenario):
        calls = self.count_calls(monkeypatch)
        run_pipeline(scenario)
        evidence = calls.pop("check_certificate") + calls.pop("check_witness")
        assert (evidence, calls) == (1, {"verify_embedding": 1, "restrict": 2, "pair_dual": 1})


class TestReferenceChecks:
    def test_main1_matches_reference(self):
        assert check_against_reference(run_main1()) == []

    def test_main2_matches_reference(self):
        assert check_against_reference(run_main2()) == []

    def test_tampered_report_is_caught(self):
        tampered = dataclasses.replace(run_main1(), homeomorphism_type="CP^2")
        mismatches = check_against_reference(tampered)
        assert len(mismatches) == 1 and "homeomorphism type" in mismatches[0]

    def test_custom_scenario_has_no_reference(self):
        scenario = Scenario("flat", 5, 2, ((1, -1, -1, -1, -1, -1),), (-3, 1, 1, 1, 1, 1))
        with pytest.raises(ParseError):
            check_against_reference(run_pipeline(scenario))


class TestReportRendering:
    def test_text_sections(self):
        text = run_main1().to_text()
        assert "boundary lens space: L(49, -6)" in text
        assert "K|C  = 0*g1 + 0*g2 + 0*g3 + 0*g4 + 0*g5 + 7*g6" in text
        assert "POSITIVE" in text
        assert "[ASSUMED " in text and "[COMPUTED]" in text

    def test_json_shape(self):
        payload = run_main1().to_json_dict()
        assert payload["report"] == "rational-blowdown-chain"
        assert payload["scenario"]["name"] == "C7-main"
        assert payload["embedding"]["verified"] is True
        assert payload["positivity"]["verdict"] == "positive"
        assert payload["invariants"][1]["c1sq"] == 2
        assert [c["status"] for c in payload["conclusions"]].count("assumed") >= 4

    def test_main3_json_shape(self):
        payload = run_main3().to_json_dict()
        assert payload["report"] == "einstein-obstruction"
        assert payload["einstein"]["kotschick_bound"] == "1/2"
        assert payload["basic_classes"][0]["square"] == 1
