"""Benchmark of the blowdown CLI on four seeded workloads.

Usage, from the root of a blowdown checkout:

    python3 bench/run.py --workload cone-wide --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed, measures set-up, runs the
worker's closed loop for the given seconds, checks every op's output and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is traced and the metrics are the per-layer ones (see README.md).  A full
result record, and with --trace 1 the span file, go to .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import check_op  # noqa: E402

SETUP_SPAWNS = 5

# Span names timed by the traced replay; each gives `<name>_ms` and its share.
STAGES = (
    "reports.parse",
    "reports.run_pipeline",
    "reports.to_json",
    "reports.to_text",
    "plumbing.make_cp",
    "plumbing.verify_embedding",
    "plumbing.with_embedding",
    "ratmath.det",
    "ratmath.neg_definite",
    "ratmath.check_certificate",
    "lattice.classes",
    "cone.restrict",
    "cone.pair_dual",
    "cone.blowdown_pairing",
    "cone.certify_positive",
    "invariants.bookkeeping",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blowdown" / "cli.py").is_file():
        print(f"error: {root} has no src/blowdown/cli.py; run from a blowdown checkout", file=sys.stderr)
        return 2
    out_dir = root / ".bench_build" / "bench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"{tag}.inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    environment = _environment(root, args.seed)
    try:
        plan = workloads.build(args.workload, args.seed, args.seconds, work)
        env = _child_env(root)
        _time_to_import(root, env, "import blowdown.cli")  # fills the bytecode cache
        if args.trace:
            import_ms = _import_ms(root, env)
        else:
            setups = [_time_to_import(root, env, "import blowdown.cli") for _ in range(SETUP_SPAWNS)]
        spans_path = out_dir / f"{tag}.spans.json"
        records, summary = _run_worker(root, plan, args, work, spans_path)
        if not args.trace:
            # Half the set-up samples come after the loop, so one slow
            # moment of the machine does not set the median.
            setups += [_time_to_import(root, env, "import blowdown.cli") for _ in range(SETUP_SPAWNS)]
            setup_s = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = json.loads((HERE / "paper_cli_digests.json").read_text(encoding="utf-8"))
    failures = []
    for k, record in enumerate(records):
        reason = check_op(plan.expects[record["op"]], record, digests)
        if reason is None and "trace_error" in record:
            reason = "traced replay failed: " + record["trace_error"].strip().splitlines()[-1]
        if reason is None and "inproc_sha" in record and record["inproc_sha"] != record["out_sha"]:
            reason = "in-process stdout differs from the subprocess stdout"
        if reason is not None:
            failures.append({"op": k, "argv": plan.ops[record["op"]], "reason": reason})

    attempted = len(records)
    latencies = sorted(r["ms"] for r in records)
    p50, p90 = _rank(latencies, 0.5), _rank(latencies, 0.9)
    if args.trace:
        metrics = _per_layer(records, import_ms)
    else:
        completed = attempted - len(failures)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms.p50": (p50["value"], "ms"),
            "op_ms.p90": (p90["value"], "ms"),
            "ops_per_s": (completed / summary["loop_s"], "1/s"),
            "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "ops": {
            "attempted": attempted,
            "completed": attempted - len(failures),
            "failed": len(failures),
            "failed_frac": len(failures) / attempted,
            "loop_s": summary["loop_s"],
        },
        "op_ms": {"p50": p50, "p90": p90},
        "metrics": metrics,
        "failures": failures[:20],
    }
    if args.trace:
        record["spans_file"] = str(spans_path.relative_to(root))
    result_path = out_dir / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {len(failures)} failed")
    print(
        f"op_ms p50 {p50['value']:.3f} ({p50['samples']} samples), "
        f"p90 {p90['value']:.3f} ({p90['beyond']} samples beyond it)"
    )
    for failure in failures[:5]:
        print(f"FAILED op {failure['op']} {' '.join(failure['argv'])}: {failure['reason']}")
    print(f"record: {result_path.relative_to(root)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def _rank(sorted_values: list[float], q: float) -> dict:
    """Nearest-rank percentile, with the samples it rests on."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return {
        "value": sorted_values[rank - 1],
        "samples": len(sorted_values),
        "beyond": len(sorted_values) - rank,
    }


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    return env


def _time_to_import(root: Path, env: dict, statement: str) -> float:
    """Seconds from spawning a fresh interpreter until `statement` returns,
    read on the system-wide monotonic clock in both processes."""
    code = f"import time\n{statement}\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def _import_ms(root: Path, env: dict) -> float:
    """Fresh `import blowdown.cli` minus a fresh interpreter doing nothing."""
    bare, full = [], []
    for _ in range(SETUP_SPAWNS):
        bare.append(_time_to_import(root, env, "pass"))
        full.append(_time_to_import(root, env, "import blowdown.cli"))
    return (statistics.median(full) - statistics.median(bare)) * 1000


def _run_worker(root: Path, plan, args, work: Path, spans_path: Path):
    records_path = work / "records.jsonl"
    plan_path = work / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "root": str(root),
                "mode": plan.mode,
                "seconds": args.seconds,
                "trace": args.trace,
                "ops": plan.ops,
                "warmup": plan.warmup,
                "records": str(records_path),
                "spans": str(spans_path),
            }
        ),
        encoding="utf-8",
    )
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path)], cwd=root, start_new_session=True
    )
    try:
        code = worker.wait(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise RuntimeError("worker did not finish in time") from None
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    records = []
    summary = None
    with open(records_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "summary" in row:
                summary = row["summary"]
            else:
                records.append(row)
    if summary is None or not records:
        raise RuntimeError("worker wrote no summary")
    return records, summary


def _per_layer(records: list[dict], import_ms: float) -> dict:
    wall = sum(r["ms"] for r in records)
    mean_wall = wall / len(records)
    metrics = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_ms.share": (import_ms / mean_wall, "frac"),
        "cli.inproc_ms": (statistics.median(r["inproc_ms"] for r in records), "ms"),
    }

    def timed(name: str, values: list[float]) -> None:
        metrics[f"{name}_ms"] = (statistics.median(values) if values else 0.0, "ms")
        metrics[f"{name}_ms.share"] = (sum(values) / wall, "frac")

    for stage in STAGES:
        timed(stage, [r["stages"][stage] for r in records if stage in r.get("stages", {})])
    timed("reports.pipeline_glue", [r["glue_ms"] for r in records if "glue_ms" in r])

    facts = [r["facts"] for r in records if "facts" in r]

    def median_fact(key: str) -> float:
        values = [f[key] for f in facts if f.get(key) is not None]
        return statistics.median(values) if values else 0

    verdicts = [f["verdict"] for f in facts if f["verdict"] in ("positive", "not_positive")]
    outputs = [r["out_bytes"] / 1024 for r in records if r["out_bytes"]]
    metrics.update(
        {
            "reports.out_kb": (statistics.median(outputs) if outputs else 0, "KB"),
            "plumbing.gram_entries_checked": (median_fact("gram_entries_checked"), "count"),
            "plumbing.q_den_bits_max": (max((f.get("q_den_bits", 0) for f in facts), default=0), "bits"),
            "cone.positive_frac": (verdicts.count("positive") / len(verdicts) if verdicts else 0, "frac"),
            "cone.ge_rows": (median_fact("ge_rows"), "count"),
            "cone.cert_support": (median_fact("cert_support"), "count"),
            "cone.cert_max_bits": (median_fact("cert_max_bits"), "bits"),
            "cone.witness_max_bits": (median_fact("witness_max_bits"), "bits"),
            "trace.overhead_frac": (
                sum(r["stages"].get("trace.op", 0.0) for r in records)
                / sum(r["inproc_ms"] for r in records) - 1,
                "frac",
            ),
        }
    )
    return metrics


def _environment(root: Path, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "seed": seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
