"""Timed closed loop of the blowdown benchmark.

Usage: python bench/worker.py PLAN.json

Runs the plan's commands one after another until its seconds are up, one
client and no threads, and writes one JSON line per op to the plan's
record file, then a summary line.  In-process ops call blowdown.cli.main;
subprocess ops start `python -m blowdown.cli`.  With tracing on, each op is
followed, outside its own timing, by a traced replay whose spans are kept
in memory and written to the plan's span file when the loop ends.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    from blowdown.cli import main as cli_main

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def inproc(argv):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            code = cli_main(argv, out=out, err=err)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught exception is a failed op, not a failed run
            code = "uncaught exception"
            err.write(traceback.format_exc())
        return (perf_counter() - start) * 1000, code, out.getvalue(), err.getvalue()

    def spawn(argv):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "blowdown.cli", *argv],
            cwd=plan["root"], env=env, capture_output=True, timeout=60,
        )
        ms = (perf_counter() - start) * 1000
        return ms, proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")

    subprocess_mode = plan["mode"] == "subprocess"
    run_op = spawn if subprocess_mode else inproc
    for argv in plan["warmup"]:
        run_op(argv)

    recorder = None
    if plan["trace"]:
        import tracing

        recorder = tracing.Recorder()

    ops = plan["ops"]
    done = 0
    with open(plan["records"], "w", encoding="utf-8") as fh:
        start = perf_counter()
        deadline = start + plan["seconds"]
        while True:
            argv = ops[done % len(ops)]
            ms, code, out, err = run_op(argv)
            record = {"op": done % len(ops), "ms": ms, "exit": code, "err": err}
            if subprocess_mode:
                record["out_sha"] = hashlib.sha256(out).hexdigest()
                record["out_bytes"] = len(out)
            else:
                record["out"] = out
                record["out_bytes"] = len(out.encode("utf-8"))
            if recorder is not None:
                _trace_op(tracing, recorder, done, argv, record, inproc, subprocess_mode)
            fh.write(json.dumps(record) + "\n")
            done += 1
            if perf_counter() >= deadline:
                break
        loop_s = perf_counter() - start
        who = resource.RUSAGE_CHILDREN if subprocess_mode else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(who).ru_maxrss
        fh.write(json.dumps({"summary": {"ops": done, "loop_s": loop_s, "peak_rss_kb": peak_kb}}) + "\n")

    if recorder is not None:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "self_ms_per_op_by_layer": tracing.self_ms_by_layer(recorder.spans, done),
                    "spans": recorder.spans,
                },
                fh,
            )
    return 0


def _trace_op(tracing, recorder, op_id, argv, record, inproc, subprocess_mode) -> None:
    """The in-process time of the same command, then its traced replay."""
    if subprocess_mode:
        ms, _, out, _ = inproc(argv)
        record["inproc_ms"] = ms
        record["inproc_sha"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    else:
        record["inproc_ms"] = record["ms"]
    first = len(recorder.spans)
    try:
        record["facts"] = tracing.replay(recorder, op_id, argv)
    except Exception:  # a replay that no longer matches the program fails the op
        record["trace_error"] = traceback.format_exc()
    record.update(tracing.op_summary(recorder.spans[first:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
