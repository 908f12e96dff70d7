"""Byte-for-byte golden outputs of the CLI.

Each file under tests/golden/ is the exact stdout of one command.  A change
to any of them needs a reason recorded in CHANGES.md; there is deliberately
no switch that rewrites them.
"""

import difflib
import hashlib
import io
import json
from pathlib import Path

import pytest
from conftest import run_optimized

from blowdown.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"
PAPER_CLI_DIGESTS = Path(__file__).parent.parent / "bench" / "paper_cli_digests.json"

# golden file name -> CLI argv; "{name}" is a scenario file in GOLDEN_DIR
GOLDEN = {
    "report-main1.txt": ["report", "main1"],
    "report-main1.json": ["report", "main1", "--json"],
    "report-main2.txt": ["report", "main2"],
    "report-main2.json": ["report", "main2", "--json"],
    "report-main3.txt": ["report", "main3"],
    "report-main3.json": ["report", "main3", "--json"],
    "plumbing-p2.txt": ["plumbing", "--p", "2"],
    "plumbing-p2.json": ["plumbing", "--p", "2", "--json"],
    "plumbing-p7.txt": ["plumbing", "--p", "7"],
    "plumbing-p7.json": ["plumbing", "--p", "7", "--json"],
    "plumbing-p20.txt": ["plumbing", "--p", "20"],
    "verify-C7-main.txt": ["verify", "{C7-main.scenario}", "--expect-paper"],
    "verify-C7-main.json": ["verify", "{C7-main.scenario}", "--expect-paper", "--json"],
    "verify-C5-main.txt": ["verify", "{C5-main.scenario}", "--expect-paper"],
    "verify-C5-main.json": ["verify", "{C5-main.scenario}", "--expect-paper", "--json"],
    "verify-not-positive.txt": ["verify", "{not-positive.scenario}"],
    "verify-not-positive.json": ["verify", "{not-positive.scenario}", "--json"],
    "verify-wide-positive.txt": ["verify", "{wide-positive.scenario}"],
    "verify-wide-positive.json": ["verify", "{wide-positive.scenario}", "--json"],
    "verify-wide-not-positive.txt": ["verify", "{wide-not-positive.scenario}"],
    "verify-wide-not-positive.json": ["verify", "{wide-not-positive.scenario}", "--json"],
}


def golden_argv(name: str) -> list[str]:
    return [
        str(GOLDEN_DIR / arg[1:-1]) if arg.startswith("{") else arg for arg in GOLDEN[name]
    ]


def assert_matches_golden(name: str, actual: str) -> None:
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                f"golden/{name}",
                "actual",
            )
        )
        pytest.fail(f"output differs from golden/{name}:\n{diff}")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    out, err = io.StringIO(), io.StringIO()
    code = main(golden_argv(name), out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    assert_matches_golden(name, out.getvalue())


def test_one_process_runs_calls_in_sequence(capsys):
    """The parser is built once per process and reused; a call that fails
    in argparse or in the input leaves nothing behind for the next one."""
    parser = build_parser()
    out, err = io.StringIO(), io.StringIO()
    assert main(golden_argv("report-main1.txt"), out=out, err=err) == 0
    assert_matches_golden("report-main1.txt", out.getvalue())

    with pytest.raises(SystemExit) as exc:
        main(["plumbing", "--p", "seven", "--json"], out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 2
    assert "invalid int value: 'seven'" in capsys.readouterr().err

    err = io.StringIO()
    assert main(["verify", str(GOLDEN_DIR / "missing.scenario")], out=io.StringIO(), err=err) == 2
    assert err.getvalue().startswith("input error: cannot read ")

    for name in ("verify-C7-main.json", "report-main1.txt"):
        out, err = io.StringIO(), io.StringIO()
        assert main(golden_argv(name), out=out, err=err) == 0
        assert err.getvalue() == ""
        assert_matches_golden(name, out.getvalue())
    assert build_parser() is parser


def test_optimized_interpreter_matches_golden():
    """The same bytes under python -O, so no output depends on an assert."""
    for name in sorted(GOLDEN):
        proc = run_optimized("-m", "blowdown.cli", *golden_argv(name))
        assert (proc.returncode, proc.stderr) == (0, ""), name
        assert_matches_golden(name, proc.stdout)


def test_paper_cli_digests_match_golden():
    """The benchmark's paper-cli ops check their stdout against committed
    SHA-256 digests; each must be the digest of the golden file for the
    same command (a label is the argv with the scenario file named bare)."""
    digests = json.loads(PAPER_CLI_DIGESTS.read_text(encoding="utf-8"))
    by_label = {
        " ".join(arg.strip("{}").removesuffix(".scenario") for arg in argv): name
        for name, argv in GOLDEN.items()
    }
    assert digests and set(digests) <= set(by_label)
    actual = {
        label: hashlib.sha256((GOLDEN_DIR / by_label[label]).read_bytes()).hexdigest()
        for label in digests
    }
    assert actual == digests
