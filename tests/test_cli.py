"""CLI subcommands, output formats, and exit codes."""

import io
import json
from fractions import Fraction

from conftest import run_optimized

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


CORRUPT_FIRST_MULTIPLIER = """
import sys
import blowdown.ratmath as ratmath
from blowdown.cli import main

honest_combine = ratmath._combine

def corrupted_combine(pos, neg, var):
    row = honest_combine(pos, neg, var)
    row.mults[0] += 1
    return row

ratmath._combine = corrupted_combine
sys.exit(main(["report", "main1"]))
"""


class TestEvidenceGate:
    def test_corrupted_certificate_is_rejected_under_optimize(self):
        proc = run_optimized("-c", CORRUPT_FIRST_MULTIPLIER)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verification failure: "), proc.stderr
