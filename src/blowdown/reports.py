"""Scenario runner and report generation for the blow-down computation chains.

A scenario names an ambient blow-up count n, a chain parameter p, the
ambient classes realizing the chain, and the canonical class; the pipeline
verifies the embedding, restricts to the dual basis, pairs through Q,
certifies positivity of the blow-down pairing over the admissible cone,
and tracks the numerical invariants through the surgery.  Every number in
a report is exact and every consumed geometric or analytic fact is
labelled ASSUMED.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from blowdown.cone import (
    POSITIVE,
    DualCoords,
    PositivityResult,
    certify_positive,
    pair_dual,
    restrict,
    symplectic_class,
    symplectic_cone,
)
from blowdown.invariants import (
    ManifoldInvariants,
    SwRecord,
    blow_up_invariants,
    blowup_basic_classes,
    homeo_type,
    kotschick_bound,
    rational_blowdown,
    rational_surface_invariants,
    sw_dimension,
    wall_crossing_delta,
)
from blowdown.lattice import Ambient, HomologyClass, blow_up, standard_classes
from blowdown.plumbing import Configuration, make_cp, make_e6_tilde
from blowdown.ratmath import EvidenceRejected, LinearForm, Matrix, column_layout, var_key

COMPUTED = "computed"
ASSUMED = "assumed"

BLOWDOWN_CHAIN = "rational-blowdown-chain"
EINSTEIN_OBSTRUCTION = "einstein-obstruction"


class ParseError(ValueError):
    """A scenario file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Scenario:
    """One run of the pipeline: ambient size, chain parameter, the class
    vectors u_1..u_{p-1} (coefficient order h, e_1, ..., e_n), the canonical
    class (default -3h + e_1 + ... + e_n, built once the class lengths have
    bounded n), and the asserted-but-not-computed simple-connectivity
    hypothesis."""

    name: str
    n: int
    p: int
    classes: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...] | None = None
    simply_connected_asserted: bool = False
    justification: str = ""

    def __post_init__(self):
        if len(self.classes) != self.p - 1:
            raise ValueError(
                f"scenario needs {self.p - 1} classes for p={self.p}, got {len(self.classes)}"
            )
        for i, vec in enumerate(self.classes, start=1):
            if len(vec) != self.n + 1:
                raise ValueError(f"class u{i} has {len(vec)} coefficients, expected {self.n + 1}")
        if self.canonical is None:
            object.__setattr__(self, "canonical", (-3,) + (1,) * self.n)
        elif len(self.canonical) != self.n + 1:
            raise ValueError("canonical class has the wrong length")


@dataclass(frozen=True)
class ConclusionStep:
    statement: str
    status: str  # COMPUTED | ASSUMED
    source: str


@dataclass(frozen=True)
class Report:
    """Deterministic, exact record of one computation chain.  The JSON dict
    is the one report model; the text form is rendered from it."""

    kind: str
    scenario: Scenario | None = None
    configuration: Configuration | None = None
    canonical_restriction: DualCoords | None = None
    omega_restriction: DualCoords | None = None
    ambient_pairing: LinearForm | None = None
    restricted_pairing: LinearForm | None = None
    blowdown_form: LinearForm | None = None
    positivity: PositivityResult | None = None
    invariant_steps: tuple[tuple[str, ManifoldInvariants], ...] = ()
    homeomorphism_type: str | None = None
    sw_records: tuple[SwRecord, ...] = ()
    basic_classes: tuple[tuple[str, HomologyClass], ...] = ()
    einstein_bound: Fraction | None = None
    contradiction: str | None = None
    conclusions: tuple[ConclusionStep, ...] = ()

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"report": self.kind}
        if self.scenario is not None:
            s = self.scenario
            out["scenario"] = {
                "name": s.name,
                "n": s.n,
                "p": s.p,
                "classes": {f"u{i}": list(v) for i, v in enumerate(s.classes, start=1)},
                "canonical": list(s.canonical),
                "assume_simply_connected": s.simply_connected_asserted,
                "justification": s.justification,
            }
        if self.configuration is not None:
            cfg = self.configuration
            out["configuration"] = {
                "p": cfg.p,
                "vertices": [[name, weight] for name, weight in cfg.graph.vertices],
                **configuration_fields(cfg),
            }
            check = cfg.embedding
            if check is not None:
                out["embedding"] = {
                    "verified": check.ok,
                    "entries_checked": check.entries_checked,
                    "first_mismatch": check.first_mismatch,
                }
        if self.canonical_restriction is not None:
            out["restriction"] = {
                "canonical": [str(c) for c in self.canonical_restriction.coords],
                "omega": [_form_json(c) for c in self.omega_restriction.coords],
            }
        if self.blowdown_form is not None:
            out["pairing"] = {
                "ambient": _form_json(self.ambient_pairing),
                "restricted": _form_json(self.restricted_pairing),
                "blowdown": _form_json(self.blowdown_form),
            }
        if self.positivity is not None:
            out["positivity"] = _positivity_json(self.positivity)
        if self.invariant_steps:
            out["invariants"] = [
                {
                    "stage": stage,
                    "b2plus": inv.b2plus,
                    "b2minus": inv.b2minus,
                    "euler": inv.euler,
                    "signature": inv.signature,
                    "c1sq": inv.c1sq,
                    "parity": inv.parity,
                    "simply_connected": inv.simply_connected,
                }
                for stage, inv in self.invariant_steps
            ]
        if self.homeomorphism_type is not None:
            out["homeomorphism_type"] = self.homeomorphism_type
        if self.basic_classes:
            out["basic_classes"] = [
                {"label": label, "coefficients": list(c.coeffs), "square": c.square}
                for label, c in self.basic_classes
            ]
        if self.sw_records:
            out["sw"] = [
                {
                    "label": r.label,
                    "dimension": r.dimension,
                    "wall_crossing_delta": r.delta,
                    "context": r.context,
                }
                for r in self.sw_records
            ]
        if self.einstein_bound is not None:
            out["einstein"] = {
                "kotschick_bound": str(self.einstein_bound),
                "split_off_lower_bound": 1,
                "contradiction": self.contradiction,
            }
        out["conclusions"] = [
            {"statement": c.statement, "status": c.status, "source": c.source}
            for c in self.conclusions
        ]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        return _render_text(self.to_json_dict())


def configuration_fields(cfg: Configuration) -> dict:
    """The JSON fields shared by a report's configuration section and the
    `plumbing` command."""
    return {
        "edges": [list(e) for e in cfg.graph.edges],
        "boundary_lens_space": list(cfg.boundary),
        "P": [[str(x) for x in row] for row in cfg.P.rows],
        "Q": [[str(x) for x in row] for row in cfg.Q.rows],
        "det_P": str(cfg.P.det()),
        "negative_definite": cfg.P.is_negative_definite(),
    }


def _form_json(form: LinearForm | Fraction) -> dict:
    if not isinstance(form, LinearForm):
        form = LinearForm.constant(form)
    return {
        "text": str(form),
        "coeffs": {v: str(c) for v, c in form.coeffs.items()},
        "const": str(form.const),
    }


def _positivity_json(result: PositivityResult) -> dict:
    # No report exists without the evidence gate in certify_positive passing.
    out: dict = {"verdict": result.verdict, "reverified": True}
    if result.certificate is not None:
        cert = result.certificate
        out["certificate"] = {
            "multipliers": [str(m) for m in cert.certificate],
            "constraints": [str(c) for c in cert.ge_system],
            "combination_constant": "-1",
        }
    if result.witness is not None:
        out["witness"] = {v: str(result.witness[v]) for v in sorted(result.witness, key=var_key)}
    return out


def _vector(values) -> str:
    return f"[{', '.join(map(str, values))}]"


def _render_text(d: dict) -> str:
    """The text report, rendered from the JSON report dict alone."""
    lines: list[str] = [f"== {d['report']} =="]
    if "scenario" in d:
        s = d["scenario"]
        lines.append(f"scenario: {s['name']}  (n = {s['n']}, p = {s['p']})")
        lines.extend(f"  {u} = {_vector(vec)}" for u, vec in s["classes"].items())
        lines.append(f"  canonical = {_vector(s['canonical'])}")
        if s["assume_simply_connected"]:
            lines.append(f"  assume simply_connected = true  \"{s['justification']}\"")
    if "configuration" in d:
        cfg = d["configuration"]
        weights = [w for _, w in cfg["vertices"]]
        lines.append(f"configuration: chain of {len(weights)} spheres, weights {_vector(weights)}")
        lines.append("  boundary lens space: L({}, {})".format(*cfg["boundary_lens_space"]))
        lines.append("  P =")
        lines.extend("    " + row for row in column_layout(cfg["P"]))
        lines.append("  Q =")
        lines.extend("    " + row for row in column_layout(cfg["Q"]))
        lines.append(f"  det P = {cfg['det_P']}, negative definite: {cfg['negative_definite']}")
    if "embedding" in d:  # stored only by a passing check; Configuration raises otherwise
        checked = d["embedding"]["entries_checked"]
        lines.append(f"embedding check: PASS (all {checked} Gram entries match)")
    if "restriction" in d:
        r = d["restriction"]
        lines.append("K|C  = " + " + ".join(f"{c}*g{i}" for i, c in enumerate(r["canonical"], 1)))
        lines.append(
            "w|C  = " + " + ".join(f"({c['text']})*g{i}" for i, c in enumerate(r["omega"], 1))
        )
    if "pairing" in d:
        pairing = d["pairing"]
        lines.append(f"K.w (ambient)      = {pairing['ambient']['text']}")
        lines.append(f"K|C.w|C (via Q)    = {pairing['restricted']['text']}")
        lines.append(f"K_p.w_p (blowdown) = {pairing['blowdown']['text']}")
    if "positivity" in d:
        pos = d["positivity"]
        lines.append(f"positivity over the admissible cone: {pos['verdict'].upper()}")
        if "certificate" in pos:
            cert = pos["certificate"]
            lines.append(
                f"  Farkas certificate: {len(cert['multipliers'])} multipliers combine the "
                f"constraints into 0 >= 1 (re-verified: True)"
            )
            for m, c in zip(cert["multipliers"], cert["constraints"]):
                if m != "0":
                    lines.append(f"    {m} * ({c})")
        if "witness" in pos:
            point = ", ".join(f"{v}={x}" for v, x in pos["witness"].items())
            lines.append(f"  counterexample point (re-verified: True): {point}")
    if "invariants" in d:
        lines.append("invariants (b2+, b2-, e, sigma, c1^2):")
        for inv in d["invariants"]:
            values = ", ".join(
                str(inv[k]) for k in ("b2plus", "b2minus", "euler", "signature", "c1sq")
            )
            sc = "simply connected" if inv["simply_connected"] else "pi_1 not asserted"
            lines.append(f"  {inv['stage']}: ({values})  [{inv['parity']}, {sc}]")
    if "homeomorphism_type" in d:
        lines.append(f"homeomorphism type: {d['homeomorphism_type']}")
    for b in d.get("basic_classes", ()):
        lines.append(
            f"basic class {b['label']}: {_vector(b['coefficients'])}, square {b['square']}"
        )
    for r in d.get("sw", ()):
        delta = "n/a" if r["wall_crossing_delta"] is None else r["wall_crossing_delta"]
        lines.append(
            f"sw record {r['label']}: dimension {r['dimension']}, "
            f"wall-crossing delta {delta} ({r['context']})"
        )
    if "einstein" in d:
        e = d["einstein"]
        lines.append(f"Einstein obstruction: k <= {e['kotschick_bound']}; {e['contradiction']}")
    lines.append("conclusions:")
    for c in d["conclusions"]:
        lines.append(f"  [{c['status'].upper():8}] {c['statement']}  ({c['source']})")
    return "\n".join(lines) + "\n"


# -- scenario files --------------------------------------------------------

_INT = r"[+-]?\d+"
_VEC = re.compile(r"^\[\s*(.*?)\s*\]$")
_LINE_PATTERNS = {
    "builtin": re.compile(r"^builtin\s*=\s*(\S+)$"),
    "n": re.compile(rf"^n\s*=\s*({_INT})$"),
    "p": re.compile(rf"^p\s*=\s*({_INT})$"),
    "class": re.compile(r"^class\s+u(\d+)\s*=\s*(\[.*\])$"),
    "canonical": re.compile(r"^canonical\s*=\s*(\[.*\])$"),
    "assume": re.compile(
        r"^assume\s+simply_connected\s*=\s*(true|false)(?:\s+\"(.*)\")?$"
    ),
}


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer of {len(text)} digits is too long", line) from None


def _parse_vector(text: str, line: int) -> tuple[int, ...]:
    match = _VEC.match(text)
    if not match:
        raise ParseError(f"malformed vector {text!r}", line)
    body = match.group(1)
    if not body:
        raise ParseError("empty vector", line)
    try:
        return tuple(int(part.strip()) for part in body.split(","))
    except ValueError as exc:
        raise ParseError(f"non-integer vector entry: {exc}", line) from None


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse the flat scenario format (see README); raises ParseError with
    the offending line number."""
    text = text.replace("−", "-")  # tolerate typographic minus
    n: int | None = None
    p: int | None = None
    classes: dict[int, tuple[int, ...]] = {}
    canonical: tuple[int, ...] | None = None
    assume = False
    justification = ""
    builtin: str | None = None
    first_seen: dict[str, int] = {}

    def once(directive: str, lineno: int) -> None:
        if directive in first_seen:
            raise ParseError(f"repeated directive {directive} (first on line {first_seen[directive]})", lineno)
        first_seen[directive] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if (m := _LINE_PATTERNS["builtin"].match(line)) is not None:
            once("builtin", lineno)
            builtin = m.group(1)
        elif (m := _LINE_PATTERNS["n"].match(line)) is not None:
            once("n", lineno)
            n = _parse_int(m.group(1), lineno)
        elif (m := _LINE_PATTERNS["p"].match(line)) is not None:
            once("p", lineno)
            p = _parse_int(m.group(1), lineno)
        elif (m := _LINE_PATTERNS["class"].match(line)) is not None:
            index = _parse_int(m.group(1), lineno)
            once(f"class u{index}", lineno)
            classes[index] = _parse_vector(m.group(2), lineno)
        elif (m := _LINE_PATTERNS["canonical"].match(line)) is not None:
            once("canonical", lineno)
            canonical = _parse_vector(m.group(1), lineno)
        elif (m := _LINE_PATTERNS["assume"].match(line)) is not None:
            once("assume", lineno)
            assume = m.group(1) == "true"
            justification = m.group(2) or ""
        else:
            raise ParseError(f"unrecognized directive {line!r}", lineno)

    if builtin is not None:
        if len(first_seen) > 1:
            raise ParseError("a builtin reference cannot be combined with other directives")
        return builtin_scenario(builtin)

    if n is None:
        raise ParseError("missing directive: n = <int>")
    if p is None:
        raise ParseError("missing directive: p = <int>")
    if p < 2:
        raise ParseError(f"p must be >= 2, got {p}")
    # O(class lines), not O(p): p - 1 distinct indices all in range are exactly u1..u{p-1}.
    extra = [i for i in classes if not 1 <= i < p]
    if extra or len(classes) != p - 1:
        missing = next((i for i in range(1, p) if i not in classes), None)
        detail = [] if missing is None else [f"missing u{missing}"]
        if extra:
            detail.append(f"unexpected u{min(extra)}")
        raise ParseError(f"need classes u1..u{p - 1}: " + "; ".join(detail))
    try:
        return Scenario(
            name,
            n,
            p,
            tuple(classes[i] for i in range(1, p)),
            canonical,
            assume,
            justification,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def scenario_text(s: Scenario) -> str:
    """Render a scenario in the flat file format (round-trips via
    parse_scenario_text)."""
    lines = [f"# scenario {s.name}", f"n = {s.n}", f"p = {s.p}"]
    for i, vec in enumerate(s.classes, start=1):
        lines.append(f"class u{i} = [{', '.join(map(str, vec))}]")
    lines.append(f"canonical = [{', '.join(map(str, s.canonical))}]")
    flag = "true" if s.simply_connected_asserted else "false"
    just = f' "{s.justification}"' if s.justification else ""
    lines.append(f"assume simply_connected = {flag}{just}")
    return "\n".join(lines) + "\n"


BUILTIN_NAMES = ("C7-main", "C5-main")


def builtin_scenario(name: str) -> Scenario:
    """The two shipped chains, constructed from the fiber classes rather than
    hardcoded: blow up the nine-fold plane, resolve fiber spheres into the
    single large-square sphere S, and take the chain inside the E6-tilde tree."""
    if name == "C7-main":
        blowups, chain_len, section_index = 4, 5, 9
        justification = (
            "Van Kampen: a loop generating pi_1 of the boundary lens space "
            "bounds a hemisphere disk of the stem sphere S6"
        )
    elif name == "C5-main":
        blowups, chain_len, section_index = 3, 3, 2
        justification = (
            "Van Kampen: a loop generating pi_1 of the boundary lens space "
            "bounds a hemisphere disk of the sphere S4 meeting the chain once"
        )
    else:
        raise ParseError(f"unknown builtin scenario {name!r}; have {BUILTIN_NAMES}")

    ambient = Ambient(9)
    tracked = list(make_e6_tilde().classes)
    for _ in range(blowups):
        ambient, tracked, _E = blow_up(ambient, tracked)
    std = standard_classes(ambient)
    # S = (#blowups) * f + e_section - 2 * (new exceptional classes)
    S = blowups * std.f + std.e[section_index - 1]
    for i in range(10, 10 + blowups):
        S = S - 2 * std.e[i - 1]
    chain = tuple(tracked[:chain_len]) + (S,)
    return Scenario(
        name,
        ambient.n,
        len(chain) + 1,
        tuple(c.coeffs for c in chain),
        std.K.coeffs,
        simply_connected_asserted=True,
        justification=justification,
    )


def builtin_scenario_text(name: str) -> str:
    return scenario_text(builtin_scenario(name))


# -- pipeline ---------------------------------------------------------------

def _chain_conclusions(
    scenario: Scenario,
    positivity: PositivityResult,
    blowdown_form: LinearForm,
    final_inv: ManifoldInvariants,
    htype: str | None,
) -> tuple[ConclusionStep, ...]:
    p = scenario.p
    steps = [
        ConclusionStep(
            f"the supplied classes realize the chain configuration with weights "
            f"(-2, ..., -2, -{p + 2}) exactly",
            COMPUTED,
            "Gram matrix comparison in the diagonal lattice",
        ),
        ConclusionStep(
            "the configuration spheres are symplectically embedded and the "
            "blown-down manifold carries an induced symplectic structure",
            ASSUMED,
            "Symington: symplectic rational blow-down (geometric input)",
        ),
    ]
    if positivity.is_positive:
        steps.append(
            ConclusionStep(
                f"K_p . w_p = {blowdown_form} is positive for every admissible "
                "symplectic class",
                COMPUTED,
                "exact Farkas certificate, independently re-verified",
            )
        )
    else:
        steps.append(
            ConclusionStep(
                "K_p . w_p is not positive over the whole admissible cone; "
                "the exclusion chain does not apply to this configuration",
                COMPUTED,
                "exact counterexample point, independently re-verified",
            )
        )
    if scenario.simply_connected_asserted:
        steps.append(
            ConclusionStep(
                "the blown-down manifold is simply connected",
                ASSUMED,
                scenario.justification or "asserted by the scenario without justification",
            )
        )
    inv_text = str(final_inv.as_tuple())
    steps.append(
        ConclusionStep(
            f"invariants after blow-down: (b2+, b2-, e, sigma, c1^2) = {inv_text}",
            COMPUTED,
            "surgery bookkeeping with c1^2 = 3*sigma + 2*e re-verified",
        )
    )
    if htype is not None:
        steps.append(
            ConclusionStep(
                f"the blown-down manifold is homeomorphic to {htype}",
                ASSUMED,
                "Freedman classification rule applied to the computed invariants",
            )
        )
    if positivity.is_positive:
        steps.append(
            ConclusionStep(
                "SW^-(-K_p) = +/-1, so the small-perturbation invariant is nonzero "
                "in the chamber fixed by the certified positivity",
                ASSUMED,
                "Taubes, Li-Liu nonvanishing for symplectic b2+ = 1 manifolds",
            )
        )
        steps.append(
            ConclusionStep(
                "a rational surface admits no symplectic form pairing positively "
                "with its canonical class, so the blow-down is not diffeomorphic "
                "to a rational surface",
                ASSUMED,
                "Li-Liu uniqueness of symplectic structures on rational surfaces",
            )
        )
        if htype is not None:
            steps.append(
                ConclusionStep(
                    f"the blown-down manifold is homeomorphic but not diffeomorphic "
                    f"to {htype}: an exotic smooth structure",
                    ASSUMED,
                    "combines the computed chain with the assumed analytic inputs above",
                )
            )
    return tuple(steps)


def run_pipeline(scenario: Scenario) -> Report:
    """embedding check -> restrict -> pair_dual -> blow-down pairing ->
    certify_positive -> invariant bookkeeping.  Embedding failure raises
    EmbeddingFailed naming the first mismatched Gram entry, rejected
    positivity evidence raises EvidenceRejected; a NotPositive verdict is
    reported, not raised."""
    ambient = Ambient(scenario.n)
    classes = tuple(ambient.clazz(v) for v in scenario.classes)
    K = ambient.clazz(scenario.canonical)
    config = make_cp(scenario.p).with_embedding(classes)

    omega = symplectic_class(scenario.n)
    k_restricted = restrict(K, config)
    omega_restricted = restrict(omega, config)
    restricted_pairing = pair_dual(k_restricted, omega_restricted)
    ambient_pairing = omega.dot(K)
    blowdown_form = ambient_pairing - restricted_pairing
    positivity = certify_positive(blowdown_form, symplectic_cone(scenario.n))

    inv_start = rational_surface_invariants(scenario.n)
    inv_end = rational_blowdown(
        inv_start, scenario.p, assume_simply_connected=scenario.simply_connected_asserted
    )
    htype = homeo_type(inv_end) if inv_end.simply_connected else None

    d = sw_dimension(inv_end.c1sq, inv_end)
    delta = wall_crossing_delta(d) if d >= 0 and d % 2 == 0 else None
    sw_records = (
        SwRecord(
            "-K_p",
            d,
            delta,
            "small-perturbation invariant; chamber fixed by the sign of K_p.w_p",
        ),
    )

    return Report(
        kind=BLOWDOWN_CHAIN,
        scenario=scenario,
        configuration=config,
        canonical_restriction=k_restricted,
        omega_restriction=omega_restricted,
        ambient_pairing=ambient_pairing,
        restricted_pairing=restricted_pairing,
        blowdown_form=blowdown_form,
        positivity=positivity,
        invariant_steps=(
            ("ambient rational surface", inv_start),
            ("after rational blow-down", inv_end),
        ),
        homeomorphism_type=htype,
        sw_records=sw_records,
        conclusions=_chain_conclusions(scenario, positivity, blowdown_form, inv_end, htype),
    )


def run_main1() -> Report:
    """The c1^2 = 2 chain: seven-sphere fiber tree in the 13-fold blow-up,
    chain parameter p = 7."""
    return run_pipeline(builtin_scenario("C7-main"))


def run_main2() -> Report:
    """The c1^2 = 1 chain: same pipeline with p = 5 in the 12-fold blow-up."""
    return run_pipeline(builtin_scenario("C5-main"))


def run_main3() -> Report:
    """Einstein obstruction for the blow-up of the p = 7 blow-down: basic
    classes K +/- E of square 1, moduli dimension 0, Kotschick bound 1/2,
    and the contradiction 1 <= 1/2."""
    inv_base = rational_blowdown(
        rational_surface_invariants(13), 7, assume_simply_connected=True
    )
    # Freedman bookkeeping: model the blown-down homology by the abstract
    # odd lattice of the same rank, where the canonical class is standard.
    base_lattice = Ambient(inv_base.b2minus)
    K = base_lattice.canonical_class()
    if K.square != inv_base.c1sq:
        raise EvidenceRejected(f"K^2 = {K.square} in the model lattice, c1^2 = {inv_base.c1sq}")

    basic = blowup_basic_classes([K])
    labels = ("K+E", "K-E")
    inv_blowup = blow_up_invariants(inv_base)

    squares = [c.square for c in basic]
    if squares[0] != squares[1]:
        raise EvidenceRejected(f"basic classes K+E, K-E have squares {squares}")
    d = sw_dimension(squares[0], inv_blowup)
    bound = kotschick_bound(inv_blowup, d)
    contradiction = (
        f"an Einstein metric would force 1 <= k <= {bound}, which is impossible"
    )
    sw_records = tuple(
        SwRecord(label, d, wall_crossing_delta(d), "monopole class of the blow-up")
        for label in labels
    )
    htype = homeo_type(inv_blowup)

    conclusions = (
        ConclusionStep(
            "the blown-down manifold has a nontrivial basic class K, so its "
            "blow-up has basic classes K+E and K-E",
            ASSUMED,
            "blow-up behavior of the small-perturbation invariant",
        ),
        ConclusionStep(
            f"(K+E)^2 = (K-E)^2 = {squares[0]} and 3*sigma + 2*e = "
            f"{3 * inv_blowup.signature + 2 * inv_blowup.euler}, giving moduli dimension d = {d}",
            COMPUTED,
            "formal-dimension formula (c1^2 - 3*sigma - 2*e)/4",
        ),
        ConclusionStep(
            f"Kotschick bound: at most (2e + 3*sigma - 8d)/2 = {bound} reversed "
            "projective planes split off smoothly",
            COMPUTED,
            "exact rational arithmetic",
        ),
        ConclusionStep(
            f"one reversed projective plane does split off (the blow-up), so "
            f"{contradiction}; the blow-up admits no Einstein metric",
            COMPUTED,
            "exact comparison 1 <= 1/2 is false",
        ),
        ConclusionStep(
            f"the blow-up is homeomorphic to {htype}",
            ASSUMED,
            "Freedman classification rule applied to the computed invariants",
        ),
        ConclusionStep(
            f"{htype} itself admits an Einstein metric of positive scalar curvature",
            ASSUMED,
            "Kaehler-Einstein geometry of del Pezzo surfaces (consumed as published fact)",
        ),
        ConclusionStep(
            f"a minimal surface of general type homeomorphic to {htype} admits an "
            "Einstein metric of negative scalar curvature",
            ASSUMED,
            "consumed as published fact",
        ),
        ConclusionStep(
            f"{htype} carries at least three distinct smooth structures: Einstein "
            "with positive scalar curvature, Einstein with negative scalar "
            "curvature, and no Einstein metric",
            ASSUMED,
            "combines the computed obstruction with the two consumed Einstein facts",
        ),
    )

    return Report(
        kind=EINSTEIN_OBSTRUCTION,
        invariant_steps=(
            ("blown-down base", inv_base),
            ("after one blow-up", inv_blowup),
        ),
        homeomorphism_type=htype,
        sw_records=sw_records,
        basic_classes=tuple(zip(labels, basic)),
        einstein_bound=bound,
        contradiction=contradiction,
        conclusions=conclusions,
    )


def run_scenario(path: str | Path) -> Report:
    """Parse a scenario file and run the generic pipeline on it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return run_pipeline(parse_scenario_text(text, name=path.stem))


# -- reference values for --expect-paper ------------------------------------

def _reference_values() -> dict[str, dict]:
    q7 = Matrix(
        [
            [41, 33, 25, 17, 9, 1],
            [33, 66, 50, 34, 18, 2],
            [25, 50, 75, 51, 27, 3],
            [17, 34, 51, 68, 36, 4],
            [9, 18, 27, 36, 45, 5],
            [1, 2, 3, 4, 5, 6],
        ]
    ) * Fraction(-1, 49)

    def form(scale: Fraction, coeffs: dict[str, int]) -> LinearForm:
        return LinearForm({v: scale * c for v, c in coeffs.items()})

    c7_restricted = form(
        Fraction(-1, 7),
        {
            "a": 75, "b1": -25, "b2": -23, "b3": -27, "b4": -25, "b5": -23,
            "b6": -24, "b7": -25, "b8": -24, "b9": -23,
            "b10": -12, "b11": -12, "b12": -12, "b13": -12,
        },
    )
    c7_blowdown = form(
        Fraction(1, 7),
        {
            "a": 54, "b1": -18, "b2": -16, "b3": -20, "b4": -18, "b5": -16,
            "b6": -17, "b7": -18, "b8": -17, "b9": -16,
            "b10": -5, "b11": -5, "b12": -5, "b13": -5,
        },
    )
    c5_restricted = form(
        Fraction(-1, 5),
        {
            "a": 39, "b1": -13, "b2": -11, "b3": -15, "b4": -13, "b5": -12,
            "b6": -12, "b7": -13, "b8": -12, "b9": -12,
            "b10": -8, "b11": -8, "b12": -8,
        },
    )
    c5_blowdown = form(
        Fraction(1, 5),
        {
            "a": 24, "b1": -8, "b2": -6, "b3": -10, "b4": -8, "b5": -7,
            "b6": -7, "b7": -8, "b8": -7, "b9": -7,
            "b10": -3, "b11": -3, "b12": -3,
        },
    )
    return {
        "C7-main": {
            "Q": q7,
            "last_class_square": -9,
            "canonical_restriction": tuple(Fraction(c) for c in (0, 0, 0, 0, 0, 7)),
            "restricted_pairing": c7_restricted,
            "blowdown_form": c7_blowdown,
            "invariants": (1, 7, 10, -6, 2),
            "homeomorphism_type": "CP^2 # 7CPbar^2",
            "verdict": POSITIVE,
        },
        "C5-main": {
            "last_class_square": -7,
            "canonical_restriction": tuple(Fraction(c) for c in (0, 0, 0, 5)),
            "restricted_pairing": c5_restricted,
            "blowdown_form": c5_blowdown,
            "invariants": (1, 8, 11, -7, 1),
            "homeomorphism_type": "CP^2 # 8CPbar^2",
            "verdict": POSITIVE,
        },
    }


REFERENCE_VALUES = _reference_values()


def _matching_reference(scenario: Scenario | None) -> str | None:
    """The builtin whose chain this scenario runs, matched by name or by
    content (n, p, classes, canonical)."""
    if scenario is None:
        return None
    if scenario.name in REFERENCE_VALUES:
        return scenario.name
    for name in BUILTIN_NAMES:
        b = builtin_scenario(name)
        if (scenario.n, scenario.p, scenario.classes, scenario.canonical) == (
            b.n,
            b.p,
            b.classes,
            b.canonical,
        ):
            return name
    return None


def check_against_reference(report: Report) -> list[str]:
    """Compare a chain report with the frozen reference values for its
    builtin scenario; returns a list of mismatch descriptions (empty = ok)."""
    match = _matching_reference(report.scenario)
    if match is None:
        raise ParseError(
            f"no reference values for scenario "
            f"{report.scenario.name if report.scenario else '<none>'!r}; "
            f"expected one of {BUILTIN_NAMES} (by name or by content)"
        )
    ref = REFERENCE_VALUES[match]
    mismatches: list[str] = []

    def expect(label: str, actual, expected) -> None:
        if actual != expected:
            mismatches.append(f"{label}: computed {actual}, reference {expected}")

    if "Q" in ref:
        expect("dual form Q", report.configuration.Q, ref["Q"])
    last = report.configuration.embedded_classes[-1]
    expect("square of the final chain class", last.square, ref["last_class_square"])
    expect(
        "canonical restriction",
        report.canonical_restriction.coords,
        ref["canonical_restriction"],
    )
    expect("restricted pairing", report.restricted_pairing, ref["restricted_pairing"])
    expect("blow-down pairing", report.blowdown_form, ref["blowdown_form"])
    expect(
        "invariants after blow-down",
        report.invariant_steps[-1][1].as_tuple(),
        ref["invariants"],
    )
    expect("homeomorphism type", report.homeomorphism_type, ref["homeomorphism_type"])
    expect("positivity verdict", report.positivity.verdict, ref["verdict"])
    return mismatches
