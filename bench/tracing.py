"""Traced replay of one `blowdown` command through the package's public calls.

Spans are recorded from here, around the calls into each layer; the program
itself is not instrumented.  A pipeline or a renderer is timed as one call,
and then the public calls it makes inside are re-run one by one and timed
as its children, marked `replay`.  A span's self time is its duration minus
its children's, so `reports.run_pipeline` keeps only the pipeline's glue.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from blowdown.cone import (
    blowdown_pairing,
    certify_positive,
    pair_dual,
    restrict,
    symplectic_class,
    symplectic_cone,
)
from blowdown.invariants import (
    blow_up_invariants,
    blowup_basic_classes,
    homeo_type,
    kotschick_bound,
    rational_blowdown,
    rational_surface_invariants,
    sw_dimension,
    wall_crossing_delta,
)
from blowdown.lattice import Ambient
from blowdown.plumbing import EmbeddingFailed, make_cp, verify_embedding
from blowdown.ratmath import check_certificate
from blowdown.reports import (
    ParseError,
    builtin_scenario,
    check_against_reference,
    parse_scenario_text,
    run_main3,
    run_pipeline,
)

BUILTIN_CHAINS = {"main1": "C7-main", "main2": "C5-main"}


class Recorder:
    """Spans of every traced op, kept in memory until the run ends."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str, parent: int | None, replay: bool = False):
        record = {"op_id": self.op_id, "id": len(self.spans), "name": name, "parent": parent}
        if replay:
            record["replay"] = True
        self.spans.append(record)
        start = perf_counter()
        try:
            yield record["id"]
        finally:
            end = perf_counter()
            record["start"] = (start - self.origin) * 1000
            record["end"] = (end - self.origin) * 1000


def replay(rec: Recorder, op_id: int, argv: list[str]) -> dict:
    """Re-run argv through the public calls under a root span `trace.op`;
    returns the op's facts (p, n, verdict and the size counts)."""
    rec.op_id = op_id
    first = len(rec.spans)
    facts: dict = {"p": None, "n": None, "verdict": None}
    with rec.span("trace.op", None) as root:
        command = argv[0]
        if command == "verify":
            _verify(rec, root, Path(argv[1]), "--expect-paper" in argv, "--json" in argv, facts)
        elif command == "report" and argv[1] in BUILTIN_CHAINS:
            with rec.span("reports.parse", root):
                scenario = builtin_scenario(BUILTIN_CHAINS[argv[1]])
            report = _pipeline(rec, root, scenario, facts)
            _render(rec, root, report, "--json" in argv)
        elif command == "report":
            _main3(rec, root, "--json" in argv)
        elif command == "plumbing":
            p = int(argv[argv.index("--p") + 1])
            facts["p"] = p
            with rec.span("plumbing.make_cp", root):
                config = make_cp(p)
            with rec.span("ratmath.det", root):
                config.P.det()
            with rec.span("ratmath.neg_definite", root):
                config.P.is_negative_definite()
        else:
            raise ValueError(f"cannot trace {argv!r}")
    for record in rec.spans[first:]:
        record.update(p=facts["p"], n=facts["n"], verdict=facts["verdict"])
    return facts


def _verify(rec, root, path: Path, expect_paper: bool, as_json: bool, facts: dict) -> None:
    with rec.span("reports.parse", root):
        try:
            scenario = parse_scenario_text(path.read_text(encoding="utf-8"), name=path.stem)
        except ParseError:
            scenario = None
    if scenario is None:
        facts["verdict"] = "input_error"
        return
    report = _pipeline(rec, root, scenario, facts)
    if report is None:
        return
    _render(rec, root, report, as_json)
    if expect_paper:
        with rec.span("reports.check_against_reference", root):
            check_against_reference(report)


def _pipeline(rec, root, scenario, facts: dict):
    """run_pipeline, then the public calls it makes, in its order."""
    n, p = scenario.n, scenario.p
    facts.update(p=p, n=n)
    with rec.span("reports.run_pipeline", root) as pipe:
        try:
            report = run_pipeline(scenario)
        except EmbeddingFailed:
            report = None

    def stage(name):
        return rec.span(name, pipe, replay=True)

    with stage("lattice.classes"):
        ambient = Ambient(n)
        classes = tuple(ambient.clazz(v) for v in scenario.classes)
        K = ambient.clazz(scenario.canonical)
    with stage("plumbing.make_cp"):
        config = make_cp(p)
    with stage("plumbing.verify_embedding"):
        check = verify_embedding(config, classes)
    facts["gram_entries_checked"] = check.entries_checked
    if not check:
        facts["verdict"] = "embedding_failed"
        return report
    with stage("plumbing.with_embedding"):
        config = config.with_embedding(classes)
    omega = symplectic_class(n)
    with stage("cone.restrict"):
        k_restricted = restrict(K, config)
        omega_restricted = restrict(omega, config)
    with stage("cone.pair_dual"):
        pair_dual(k_restricted, omega_restricted)
    with stage("cone.blowdown_pairing"):
        form = blowdown_pairing(K, config)
    cone = symplectic_cone(n)
    with stage("cone.certify_positive"):
        result = certify_positive(form, cone)
    if result.is_positive:
        cert = result.certificate
        with stage("ratmath.check_certificate"):
            check_certificate(cert.ge_system, cert.certificate)
    else:
        with stage("cone.contains"):
            cone.contains(result.witness) and form.evaluate(result.witness) <= 0
    with stage("invariants.bookkeeping"):
        inv_end = rational_blowdown(
            rational_surface_invariants(n), p,
            assume_simply_connected=scenario.simply_connected_asserted,
        )
        if inv_end.simply_connected:
            homeo_type(inv_end)
        d = sw_dimension(inv_end.c1sq, inv_end)
        if d >= 0 and d % 2 == 0:
            wall_crossing_delta(d)
    if report is not None:
        _size_facts(report, facts)
    return report


def _size_facts(report, facts: dict) -> None:
    positivity = report.positivity
    facts["verdict"] = positivity.verdict
    facts["q_den_bits"] = max(x.denominator.bit_length() for row in report.configuration.Q.rows for x in row)
    if positivity.certificate is not None:
        mults = positivity.certificate.certificate
        facts["ge_rows"] = len(positivity.certificate.ge_system)
        facts["cert_support"] = sum(1 for m in mults if m)
        facts["cert_max_bits"] = max(_bits(m) for m in mults)
    else:
        facts["witness_max_bits"] = max(_bits(x) for x in positivity.witness.values())


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _render(rec, root, report, as_json: bool) -> None:
    with rec.span("reports.to_json" if as_json else "reports.to_text", root) as render:
        report.to_json() if as_json else report.to_text()
    if report.configuration is not None:
        with rec.span("ratmath.det", render, replay=True):
            report.configuration.P.det()
        with rec.span("ratmath.neg_definite", render, replay=True):
            report.configuration.P.is_negative_definite()


def _main3(rec, root, as_json: bool) -> None:
    with rec.span("reports.run_main3", root) as main3:
        report = run_main3()
    with rec.span("invariants.bookkeeping", main3, replay=True):
        base = rational_blowdown(rational_surface_invariants(13), 7, assume_simply_connected=True)
        basic = blowup_basic_classes([Ambient(base.b2minus).canonical_class()])
        blown_up = blow_up_invariants(base)
        d = sw_dimension(basic[0].square, blown_up)
        kotschick_bound(blown_up, d)
        wall_crossing_delta(d)
        homeo_type(blown_up)
    _render(rec, root, report, as_json)


def op_summary(spans: list[dict]) -> dict:
    """Per-op totals from one op's spans: ms per span name, the traced root,
    and the pipeline's glue (its duration minus its replayed stages)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    stages: dict[str, float] = {}
    children: dict[int, float] = {}
    for s in spans:
        stages[s["name"]] = stages.get(s["name"], 0.0) + dur[s["id"]]
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + dur[s["id"]]
    summary = {"stages": stages}
    for s in spans:
        if s["name"] == "reports.run_pipeline":
            summary["glue_ms"] = dur[s["id"]] - children.get(s["id"], 0.0)
    return summary


def self_ms_by_layer(spans: list[dict], ops: int) -> dict[str, float]:
    """Mean self time per op of each layer (the name before the first dot)."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return {layer: total / max(ops, 1) for layer, total in sorted(layers.items())}
