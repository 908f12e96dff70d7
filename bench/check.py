"""Output checks for the blowdown benchmark.  Nothing here imports blowdown:
every expected value comes from the generator's own arithmetic, and the
positivity evidence is re-checked against a cone system rebuilt from n and
the reported blow-down coefficients."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from scenarios import chain_det, chain_matrix, chain_weights, decide_positive, symbols

_GRAM = re.compile(r"^verification failure: Gram mismatch at \(u(\d+), u(\d+)\)")


def check_op(expect: dict, record: dict, digests: dict[str, str]) -> str | None:
    """None when the op did what was expected, else the reason it failed."""
    if record["exit"] != expect["exit"]:
        return f"exit {record['exit']!r}, expected {expect['exit']}: {record['err'][-300:]!r}"
    kind = expect["kind"]
    out, err = record.get("out"), record["err"]
    if kind == "digest":
        want = digests.get(expect["label"])
        if record["out_sha"] != want:
            return f"{expect['label']}: stdout sha256 {record['out_sha']}, committed {want}"
        return None
    if kind == "input":
        if out or not err.startswith("input error:"):
            return f"{expect['defect']}: expected only an input error, got {err[:200]!r}"
        return None
    if kind == "gram":
        match = _GRAM.match(err)
        if out or match is None or expect["class"] not in map(int, match.groups()):
            return f"{expect['defect']}: expected a Gram mismatch naming u{expect['class']}, got {err[:200]!r}"
        return None
    if kind == "reference":
        if not err.startswith("reference mismatch:") or "Traceback" in err:
            return f"expected reference mismatches, got {err[:200]!r}"
    elif err:
        return f"unexpected stderr {err[:200]!r}"
    try:
        return _check_json(expect, json.loads(out)) if expect["json"] else _check_text(expect, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _verdict(expect: dict) -> str:
    return "positive" if expect["positive"] else "not_positive"


def _check_text(expect: dict, out: str) -> str | None:
    n, p = expect["n"], expect["p"]
    needed = [
        f"scenario: {expect['name']}  (n = {n}, p = {p})",
        "embedding check: PASS",
        f"  det P = {chain_det(p)}, negative definite: True",
        f"positivity over the admissible cone: {_verdict(expect).upper()}",
        "  Farkas certificate:" if expect["positive"] else "  counterexample point (re-verified: True)",
    ]
    lines = out.splitlines()
    for want in needed:
        if not any(line.startswith(want) for line in lines):
            return f"text report lacks {want!r}"
    return None


def _check_json(expect: dict, doc: dict) -> str | None:
    n, p = expect["n"], expect["p"]
    s = doc["scenario"]
    classes = {f"u{i}": u for i, u in enumerate(expect["classes"], start=1)}
    if (s["n"], s["p"], s["classes"], s["canonical"]) != (n, p, classes, expect["canonical"]):
        return "scenario echo differs from the input"
    cfg = doc["configuration"]
    P = chain_matrix(p)
    if cfg["P"] != [[str(x) for x in row] for row in P]:
        return "P differs from the chain matrix"
    if cfg["det_P"] != str(chain_det(p)) or cfg["negative_definite"] is not True:
        return "det_P or negative_definite is wrong"
    if not _is_inverse(p, [[Fraction(x) for x in row] for row in cfg["Q"]]):
        return "P Q is not the identity"
    emb = doc["embedding"]
    r = p - 1
    if emb["verified"] is not True or emb["entries_checked"] != r * (r + 1) // 2:
        return "embedding record is wrong"
    blowdown = doc["pairing"]["blowdown"]
    want = {v: str(c) for v, c in zip(symbols(n), expect["form"]) if c}
    if blowdown["coeffs"] != want or blowdown["const"] != "0":
        return "blow-down pairing differs from the independent computation"
    pos = doc["positivity"]
    if pos["verdict"] != _verdict(expect) or pos["reverified"] is not True:
        return f"verdict {pos['verdict']!r}, expected {_verdict(expect)!r}"
    f = [Fraction(blowdown["coeffs"].get(v, "0")) for v in symbols(n)]
    if decide_positive(f) != expect["positive"]:
        return "reported pairing has the wrong sign pattern"
    if expect["positive"]:
        mults = [Fraction(m) for m in pos["certificate"]["multipliers"]]
        return None if farkas_holds(n, f, mults) else "Farkas certificate does not combine to 0 >= 1"
    point = {v: Fraction(x) for v, x in pos["witness"].items()}
    return None if witness_holds(n, f, point) else "witness is outside the cone or has f > 0"


def _is_inverse(p: int, Q: list[list[Fraction]]) -> bool:
    """P Q = I, using that P is tridiagonal."""
    w = chain_weights(p)
    r = len(w)
    if len(Q) != r or any(len(row) != r for row in Q):
        return False
    for i in range(r):
        for j in range(r):
            v = w[i] * Q[i][j]
            if i:
                v += Q[i - 1][j]
            if i + 1 < r:
                v += Q[i + 1][j]
            if v != (i == j):
                return False
    return True


def cone_rows(n: int, f: list[Fraction]) -> list[tuple[list[Fraction], Fraction]]:
    """The directed system the certificate refers to, as (coefficients over
    (a, b1..bn), constant) with each row meaning `row >= 0`: the cone chain
    a-b1, b_i-b_{i+1}, b_n; then s-1 and 1-s for the slice s = 3a - sum b = 1;
    then -f."""
    rows = []
    for k in range(n + 1):
        c = [Fraction(0)] * (n + 1)
        c[k] = Fraction(1)
        if k < n:
            c[k + 1] = Fraction(-1)
        rows.append((c, Fraction(0)))
    s = [Fraction(3)] + [Fraction(-1)] * n
    rows.append((s, Fraction(-1)))
    rows.append(([-x for x in s], Fraction(1)))
    rows.append(([-x for x in f], Fraction(0)))
    return rows


def farkas_holds(n: int, f: list[Fraction], mults: list[Fraction]) -> bool:
    rows = cone_rows(n, f)
    if len(mults) != len(rows) or any(m < 0 for m in mults):
        return False
    total = [Fraction(0)] * (n + 1)
    const = Fraction(0)
    for m, (coeffs, c) in zip(mults, rows):
        if m:
            for k, x in enumerate(coeffs):
                total[k] += m * x
            const += m * c
    return not any(total) and const == -1


def witness_holds(n: int, f: list[Fraction], point: dict[str, Fraction]) -> bool:
    if set(point) != set(symbols(n)):
        return False
    x = [point[v] for v in symbols(n)]
    in_cone = all(x[k] >= x[k + 1] for k in range(n)) and x[n] >= 0 and 3 * x[0] > sum(x[1:])
    return in_cone and sum(c * v for c, v in zip(f, x)) <= 0
