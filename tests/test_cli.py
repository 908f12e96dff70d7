"""CLI subcommands, output formats, and exit codes."""

import io
import json
from fractions import Fraction

import pytest
from conftest import run_optimized
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blowdown.cli import main
from blowdown.ratmath import Matrix
from blowdown.reports import builtin_scenario_text

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


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestPlumbingCommand:
    def test_p7_json_dual_form(self):
        code, out, _ = run_cli("plumbing", "--p", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        got = Matrix([[Fraction(x) for x in row] for row in payload["Q"]])
        assert got == REFERENCE_Q7
        assert payload["boundary_lens_space"] == [49, -6]
        assert payload["det_P"] == "49"
        assert payload["negative_definite"] is True

    def test_p7_text(self):
        code, out, _ = run_cli("plumbing", "--p", "7")
        assert code == 0
        assert "L(49, -6)" in out
        assert "-41/49" in out

    def test_p2(self):
        code, out, _ = run_cli("plumbing", "--p", "2", "--json")
        payload = json.loads(out)
        assert payload["Q"] == [["-1/4"]]
        assert payload["boundary_lens_space"] == [4, -1]

    def test_invalid_p_is_input_error(self):
        code, _, err = run_cli("plumbing", "--p", "1")
        assert code == 2
        assert "input error" in err


class TestReportCommand:
    def test_main1_text(self):
        code, out, _ = run_cli("report", "main1")
        assert code == 0
        assert "POSITIVE" in out
        assert "CP^2 # 7CPbar^2" in out

    def test_main2_json(self):
        code, out, _ = run_cli("report", "main2", "--json")
        payload = json.loads(out)
        assert payload["positivity"]["verdict"] == "positive"
        assert payload["invariants"][1]["b2minus"] == 8

    def test_main3_text(self):
        code, out, _ = run_cli("report", "main3")
        assert code == 0
        assert "k <= 1/2" in out

    def test_byte_identical_json(self):
        first = run_cli("report", "main1", "--json")
        second = run_cli("report", "main1", "--json")
        assert first == second


class TestVerifyCommand:
    def test_builtin_reference_file(self, tmp_path):
        path = tmp_path / "c7.scenario"
        path.write_text("builtin = C7-main\n", encoding="utf-8")
        code, out, _ = run_cli("verify", str(path))
        assert code == 0
        assert "POSITIVE" in out

    def test_expect_reference_pass(self, tmp_path):
        path = tmp_path / "c5.scenario"
        path.write_text(builtin_scenario_text("C5-main"), encoding="utf-8")
        code, out, _ = run_cli("verify", str(path), "--expect-paper", "--json")
        assert code == 0
        assert "all reference values reproduced exactly" in out

    def test_embedding_failure_exit_code(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text(
            "n = 2\np = 2\nclass u1 = [0, 1, -1]\n", encoding="utf-8"
        )  # square -2, needs -4
        code, _, err = run_cli("verify", str(path))
        assert code == 1
        assert "verification failure" in err
        assert "expected -4, got -2" in err

    def test_missing_file(self, tmp_path):
        binary = tmp_path / "binary.scenario"
        binary.write_bytes(b"n = 2\xff\n")
        for path in ("/nonexistent/path.scenario", str(tmp_path), str(binary)):
            code, _, err = run_cli("verify", path)
            assert code == 2
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("input error: "), err

    def test_huge_p_error_names_one_class(self, tmp_path):
        path = tmp_path / "huge.scenario"
        path.write_text("n = 3\np = 200000\n", encoding="utf-8")
        code, _, err = run_cli("verify", str(path))
        assert code == 2
        assert "missing u1" in err and len(err) < 200

    def test_long_chain_of_zero_classes_fails_first_gram_entry(self, tmp_path):
        path = tmp_path / "zeros.scenario"
        lines = ["n = 2", "p = 120"] + [f"class u{i} = [0, 0, 0]" for i in range(1, 120)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli("verify", str(path))
        assert code == 1
        assert err == "verification failure: Gram mismatch at (u1, u1): expected -2, got 0\n"

    def test_parse_error(self, tmp_path):
        path = tmp_path / "junk.scenario"
        path.write_text("nonsense here\n", encoding="utf-8")
        code, _, err = run_cli("verify", str(path))
        assert code == 2
        assert "line 1" in err

    def test_expect_reference_on_custom_scenario(self, tmp_path):
        path = tmp_path / "flat.scenario"
        path.write_text(
            "n = 5\np = 2\nclass u1 = [1, -1, -1, -1, -1, -1]\n", encoding="utf-8"
        )
        code, _, err = run_cli("verify", str(path), "--expect-paper")
        assert code == 2
        assert "no reference values" in err

    def test_not_positive_scenario_still_succeeds(self, tmp_path):
        path = tmp_path / "flat.scenario"
        path.write_text(
            "n = 5\np = 2\nclass u1 = [1, -1, -1, -1, -1, -1]\n", encoding="utf-8"
        )
        code, out, _ = run_cli("verify", str(path))
        assert code == 0
        assert "NOT_POSITIVE" in out
        assert "counterexample point" in out


VALID_FLAT = [
    "n = 5",
    "p = 2",
    "class u1 = [1, -1, -1, -1, -1, -1]",
    "canonical = [-3, 1, 1, 1, 1, 1]",
    'assume simply_connected = true "by hand"',
]


class TestRepeatedDirective:
    @pytest.mark.parametrize(
        "lines, repeat",
        [
            (VALID_FLAT, "n = 7"),
            (VALID_FLAT, "p = 3"),
            (VALID_FLAT, "class u1 = [1, -1, -1, -1, -1, -1]"),
            (VALID_FLAT, "canonical = [-3, 1, 1, 1, 1, 1]"),
            (VALID_FLAT, "assume simply_connected = false"),
            (["builtin = C7-main"], "builtin = C5-main"),
        ],
        ids=["n", "p", "class", "canonical", "assume", "builtin"],
    )
    def test_repeat_is_input_error_naming_both_lines(self, tmp_path, lines, repeat):
        directive = repeat.split("=")[0].strip()
        first = next(i for i, line in enumerate(lines, 1) if line.startswith(directive))
        path = tmp_path / "twice.scenario"
        path.write_text("\n".join(lines + ["# again", repeat]) + "\n", encoding="utf-8")
        code, out, err = run_cli("verify", str(path))
        assert (code, out) == (2, "")
        again = len(lines) + 2
        assert err.startswith(f"input error: line {again}: repeated directive "), err
        assert f"(first on line {first})" in err and err.count("\n") == 1, err


def integers(lo: int, hi: int):
    """Small integers, or one with more digits than int() converts by default."""
    return st.one_of(st.integers(lo, hi).map(str), st.just("9" * 5000))


def vectors():
    return st.lists(st.integers(-3, 3), max_size=8).map(lambda v: ", ".join(map(str, v)))


SCENARIO_LINES = st.one_of(
    st.sampled_from(VALID_FLAT + ["builtin = C7-main", "builtin = nope", "# comment", ""]),
    st.builds("n = {}".format, integers(-2, 8)),
    st.builds("p = {}".format, integers(-1, 5)),
    st.builds("class u{} = [{}]".format, integers(0, 5), vectors()),
    st.builds("canonical = [{}]".format, vectors()),
    st.text(max_size=30),
)


class TestArbitraryScenarioText:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(SCENARIO_LINES, max_size=8).map("\n".join))
    def test_ends_in_an_exit_code_and_at_most_one_line(self, tmp_path, text):
        path = tmp_path / "arbitrary.scenario"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli("verify", str(path))
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1 and (err == "") == (code == 0), err


CORRUPT_FIRST_MULTIPLIER = """
import sys
import blowdown.cone as cone
from blowdown.cli import main

honest_multipliers = cone._multipliers

def corrupted_multipliers(*args):
    mults = honest_multipliers(*args)
    mults[0] += 1
    return mults

cone._multipliers = corrupted_multipliers
sys.exit(main(["report", "main1"]))
"""

# The witness of the sliced cone system satisfies 3a - (b1 + ... + bn) = 1,
# so moving `a` alone breaks that equality.
CORRUPT_WITNESS_COORDINATE = """
import sys
import blowdown.cone as cone
from blowdown.cli import main

honest_counterexample = cone._counterexample

def corrupted_counterexample(*args):
    point = honest_counterexample(*args)
    point["a"] += 1
    return point

cone._counterexample = corrupted_counterexample
sys.exit(main(["verify", sys.argv[1]]))
"""


def assert_one_verification_failure(proc) -> None:
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verification failure: "), proc.stderr


class TestEvidenceGate:
    def test_corrupted_certificate_is_rejected_under_optimize(self):
        assert_one_verification_failure(run_optimized("-c", CORRUPT_FIRST_MULTIPLIER))

    def test_corrupted_witness_is_rejected_under_optimize(self, tmp_path):
        path = tmp_path / "flat.scenario"
        path.write_text(
            "n = 5\np = 2\nclass u1 = [1, -1, -1, -1, -1, -1]\n", encoding="utf-8"
        )
        assert_one_verification_failure(run_optimized("-c", CORRUPT_WITNESS_COORDINATE, str(path)))
