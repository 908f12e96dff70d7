"""The benchmark harness still runs against the package: it calls public
names (`P.det()`, `P.is_negative_definite()`, `Q.rows`, `pair_dual`,
`FarkasCertificate.certificate`, `.ge_system`) that a rename would
otherwise break only in a full benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_cone_wide_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cone-wide", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
