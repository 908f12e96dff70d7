"""The four benchmark workloads: each turns a seed into a schedule of
`blowdown` commands, the scenario files they read, and what the checker
expects of each command.

Every workload is a closed loop with one client: the worker issues the next
command when the previous one has returned.  Schedules are stratified so
that any prefix covers the size range evenly; the seed chooses the order
and every random vector, so runs with different seeds measure the same mix.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from scenarios import (
    canonical_with_verdict,
    first_gram_mismatch,
    scenario_text,
    valid_chain,
)

# Ops generated per second of run, about twice the rate measured on a 2-CPU
# Xeon, so a faster program still sees fresh inputs.
OPS_PER_SECOND = {"paper-cli": 15, "chain-long": 12, "cone-wide": 20, "reject-bad": 40}

PAPER_COMMANDS = {
    "report main1": ["report", "main1"],
    "report main1 --json": ["report", "main1", "--json"],
    "report main2": ["report", "main2"],
    "report main2 --json": ["report", "main2", "--json"],
    "report main3": ["report", "main3"],
    "report main3 --json": ["report", "main3", "--json"],
    "plumbing --p 7": ["plumbing", "--p", "7"],
    "plumbing --p 7 --json": ["plumbing", "--p", "7", "--json"],
    "verify C7-main --expect-paper": ["verify", "{C7-main}", "--expect-paper"],
    "verify C7-main --expect-paper --json": ["verify", "{C7-main}", "--expect-paper", "--json"],
    "verify C5-main --expect-paper": ["verify", "{C5-main}", "--expect-paper"],
    "verify C5-main --expect-paper --json": ["verify", "{C5-main}", "--expect-paper", "--json"],
}

# reject-bad: defects per block of 20 ops.  Embedding failures are the
# majority, so the median op pays make_cp; the reference mismatch (5%)
# runs the whole pipeline and sits above the 90th percentile.
DEFECT_BLOCK = (
    ["gram-square"] * 7
    + ["gram-link"] * 6
    + ["missing-class", "missing-class", "bad-length", "bad-length", "non-integer", "non-integer"]
    + ["reference"]
)
LONG_P = range(16, 27)


class Plan:
    """What the worker runs and what the checker expects of each op."""

    def __init__(self, mode: str):
        self.mode = mode  # "subprocess" or "inproc"
        self.ops: list[list[str]] = []
        self.expects: list[dict] = []
        self.warmup: list[list[str]] = []

    def add(self, argv: list[str], expect: dict) -> None:
        self.ops.append(argv)
        self.expects.append(expect)


def build(workload: str, seed: int, seconds: float, work: Path) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    count = max(1, int(OPS_PER_SECOND[workload] * seconds))
    if workload == "paper-cli":
        return _paper_cli(rng, count, work)
    plan = Plan("inproc")
    warm_rng = random.Random(f"warmup:{seed}")
    for k, as_json in enumerate((False, True)):
        path = _valid_file(warm_rng, 6, 12, k % 2 == 0, work / f"warmup{k}.txt")[0]
        plan.warmup.append(["verify", str(path)] + (["--json"] if as_json else []))
    if workload == "chain-long":
        _add_valid(plan, rng, count, work, LONG_P, lambda p: (p, p + 3 + rng.randint(0, 3)))
    elif workload == "cone-wide":
        # Ten bands of five blow-ups each across n = 40..90.
        _add_valid(plan, rng, count, work, range(10), lambda band: (rng.randint(5, 9), 40 + 5 * band + rng.randint(0, 5)))
    elif workload == "reject-bad":
        _reject_bad(plan, rng, count, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def _strata(rng: random.Random, values):
    """Endless shuffled copies of `values`, so every stretch of the stream
    covers them evenly."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _valid_file(rng, p, n, positive, path: Path):
    classes = valid_chain(rng, p, n)
    K, form = canonical_with_verdict(rng, p, classes, positive)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario_text(n, p, classes, K), encoding="utf-8")
    expect = {
        "name": path.stem,
        "n": n,
        "p": p,
        "classes": classes,
        "canonical": K,
        "form": form,
        "positive": positive,
    }
    return path, expect


def _add_valid(plan: Plan, rng, count: int, work: Path, sizes, shape) -> None:
    """Valid scenarios: one verdict in five positive, text and JSON
    alternating.  Positive and not-positive ops draw their sizes from
    separate strata, because a positive op costs several times more."""
    streams = {True: _strata(rng, sizes), False: _strata(rng, sizes)}
    for j in range(count):
        positive, as_json = j % 5 == 0, j % 2 == 1
        p, n = shape(next(streams[positive]))
        path, expect = _valid_file(rng, p, n, positive, work / f"s{j:05d}.txt")
        expect.update(kind="valid", exit=0, json=as_json)
        plan.add(["verify", str(path)] + (["--json"] if as_json else []), expect)


def _paper_cli(rng: random.Random, count: int, work: Path) -> Plan:
    plan = Plan("subprocess")
    files = {}
    for name in ("C7-main", "C5-main"):
        files["{" + name + "}"] = path = work / f"builtin-{name}.txt"
        path.write_text(f"builtin = {name}\n", encoding="utf-8")
    plan.warmup.append(["report", "main3"])
    for label in itertools.islice(_strata(rng, PAPER_COMMANDS), count):
        argv = [str(files.get(a, a)) for a in PAPER_COMMANDS[label]]
        plan.add(argv, {"kind": "digest", "label": label, "exit": 0})
    return plan


def _reject_bad(plan: Plan, rng: random.Random, count: int, work: Path) -> None:
    kinds = _strata(rng, DEFECT_BLOCK)
    sizes = {kind: _strata(rng, LONG_P) for kind in dict.fromkeys(DEFECT_BLOCK)}
    references = 0
    for j in range(count):
        kind = next(kinds)
        p = next(sizes[kind])
        n = p + 3 + rng.randint(0, 3)
        as_json = j % 2 == 1
        if kind == "reference":
            # A valid long chain in a file named after a paper chain: the
            # reference gate of --expect-paper rejects it after the pipeline.
            # Verdicts and output formats cycle so both evidence paths and
            # both renderers run on this workload.
            positive = references % 2 == 0
            as_json = references // 2 % 2 == 1
            name = ("C7-main", "C5-main")[references // 4 % 2]
            references += 1
            path, expect = _valid_file(rng, p, n, positive, work / f"ref{j:05d}" / f"{name}.txt")
            expect.update(kind="reference", exit=1, json=as_json)
            argv = ["verify", str(path), "--expect-paper"] + (["--json"] if as_json else [])
            plan.add(argv, expect)
            continue
        classes = valid_chain(rng, p, n)
        K = [rng.randint(-3, 3) for _ in range(n + 1)]
        expect = {"kind": "input", "exit": 2, "defect": kind}
        if kind == "gram-square":
            # An odd change to one coordinate: that class's square is wrong.
            i = rng.randrange(p - 1)
            classes[i][rng.randrange(n + 1)] += rng.choice((1, -1))
            expect = {"kind": "gram", "exit": 1, "defect": kind, "class": i + 1}
        elif kind == "gram-link":
            # u_i = e_s(i) - e_s(i+2): squares hold, links to u_{i+1}, u_{i+2} break.
            i = rng.randrange(p - 3)
            classes[i][classes[i].index(-1)] = 0
            classes[i][classes[i + 1].index(-1)] = -1
            expect = {"kind": "gram", "exit": 1, "defect": kind, "class": i + 1}
        if expect["kind"] == "gram":
            pair = first_gram_mismatch(p, classes)
            if pair is None or expect["class"] not in pair:
                raise RuntimeError(f"defect {kind} did not break class u{expect['class']}")
        lines = scenario_text(n, p, classes, K).splitlines()
        if kind == "missing-class":
            del lines[2 + rng.randrange(p - 1)]
        elif kind in ("bad-length", "non-integer"):
            row = 2 + rng.randrange(p - 1)
            head, body = lines[row].split("[")
            entries = body.rstrip("]").split(", ")
            if kind == "bad-length":
                entries.pop(rng.randrange(len(entries)))
            else:
                entries[rng.randrange(len(entries))] = rng.choice(("1.5", "2/3", "1e3"))
            lines[row] = f"{head}[{', '.join(entries)}]"
        path = work / f"s{j:05d}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plan.add(["verify", str(path)] + (["--json"] if as_json else []), expect)
