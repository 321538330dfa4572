"""Claim-by-claim verification harness.

Every theorem, corollary, lemma and worked example of the source text gets
one registered claim with a deterministic checker.  Each claim becomes one
report entry with a status --

  confirmed     the statement held in every test performed,
  refuted       at least one exact counterexample was found,
  canonicalized the statement held only after repairing a misprint
                (corrupted input entry, missing factor), with the repair
                recorded next to the result,
  untestable    outside what this artifact can reach (noted, not assumed),

together with observed / expected values and a deterministic count of the
work done.  A checker walks its samples through ``ctx.each``, which counts a
sample into ``tested`` once every check on it has passed, and raises
``_Refuted(observed, expected)`` at the first counterexample; ``_run_claim``
turns that into a ``refuted`` entry and a ``VCodesError`` (e.g. over budget)
into an ``untestable`` one.  Randomized samples draw from a per-claim
generator seeded with (seed, claim id), so reports are byte-identical for a
fixed seed.  A sampled claim draws every generator list first, in the order a
code-by-code loop would, and then builds its codes a stack per ring
(``ringcode.build_codes``) and fills the memos its checks read a stack at a
time: duals, evaluation components, Lee enumerators and brute-force duals
(``fill_duals``, ``fill_components``, ``wenum.fill_lee_enumerators``,
``brute_force_duals``), as the FSD claims do for their constructions.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import wenum
from .cyclic import CyclicSpecR, all_divisor_triples, cyclic_codes_r, fill_stack, is_cyclic_r, self_dual_cyclic_search
from .errors import DEFAULT_BUDGET, EmptyCode, ParamMismatch, TransformInconsistent, VCodesError
from .fieldcode import _positions, cyclic_dual_generator
from .fsd import (
    BorderedSpecR,
    CirculantSpecR,
    SymmetricMatrixR,
    _bordered_block,
    _circulant_block,
    _symmetric_block,
    construction_a,
    construction_b,
    construction_c,
    constructions,
    direct_product,
    gray_fsd_transfer,
    is_formally_self_dual,
    isodual_witness_check,
    odd_fsd_search,
    random_bordered,
    random_circulant,
    random_symmetric,
)
from .gf import format_poly
from .ring import audit_published_lee_table, format_row, ring_over
from .ringcode import LinearCodeR, brute_force_duals, build_codes, fill_components, fill_duals, random_rows

SCOPES = ("all", "gray", "enumerators", "cyclic", "fsd", "examples")

# ---------------------------------------------------------------------------
# printed inputs of the three worked examples, entry for entry as published

EX13_PRINTED_ROWS = [
    ["0", "v", "2+v", "1+2v+2v^2", "2v+2v^2"],
    ["v", "2v+2v^2", "2", "1+v", "1+v^2"],
    ["2+v", "2", "2v^2", "2+v+v^2", "1+2v"],
    ["1+2v+v^2", "1+v", "2+v+v^2", "1", "v"],
    ["2v+2v^2", "1+v^2", "1+2v", "v", "2"],
]

EX15_PRINTED_ROWS = [
    ["3v+2v^2", "4v", "3+2v", "1+2v+2v^2", "2v+3v^2"],
    ["2v+3v^2", "3v+2v^2", "4v", "3+2v", "1+2v+2v^2"],
    ["1+2v+2v^2", "2v+3v^2", "3v+2v^2", "4v", "3+2v"],
    ["3+2v", "1+2v+2v^2", "2v+3v^2", "3v+2v^2", "4v"],
    ["4v", "3+2v", "3+2v", "1+2v+2v^2", "2v+3v^2"],
]

EX17_ALPHA = "2+v+2v^2"
EX17_OMEGA = "2+2v"
EX17_PRINTED_CORE = [
    ["2", "1+v", "2v^2"],
    ["2v^2", "2", "1+v"],
    ["1+v", "v^2", "2"],
]


@dataclass
class VerificationEntry:
    claim_id: str
    anchor: str
    status: str
    observed: object
    expected: object
    tested: int
    note: str = ""
    seconds: float = 0.0

    def to_json_obj(self, include_timings: bool = False) -> dict:
        obj = {
            "claim_id": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "observed": self.observed,
            "expected": self.expected,
            "tested": self.tested,
            "note": self.note,
        }
        if include_timings:
            obj["seconds"] = round(self.seconds, 3)
        return obj


@dataclass
class VerificationReport:
    scope: str
    seed: int
    entries: list[VerificationEntry] = field(default_factory=list)

    def to_json_obj(self, include_timings: bool = False) -> dict:
        return {
            "scope": self.scope,
            "seed": self.seed,
            "entries": [e.to_json_obj(include_timings) for e in self.entries],
        }

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json_obj(include_timings), sort_keys=True, separators=(",", ":"))

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"verification report  scope={self.scope} seed={self.seed}"]
        width = max(len(e.claim_id) for e in self.entries) if self.entries else 0
        for e in self.entries:
            cost = f"{e.tested} checks" + (f", {e.seconds:.2f}s" if include_timings else "")
            lines.append(f"{e.claim_id:<{width}}  [{e.status:<13}] {e.anchor}  ({cost})")
            if e.note:
                lines.append(f"{'':<{width}}  note: {e.note}")
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.status] = counts.get(e.status, 0) + 1
        lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        return "\n".join(lines) + "\n"


class _Ctx:
    """State of one ``run_verification_suite`` call; none of it outlives the run."""

    def __init__(self, seed: int, budget: int):
        self.seed = seed
        self.budget = budget
        self.tested = 0
        self._stacks: dict = {}
        self._dual_generators: dict = {}

    def rng(self, claim_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{claim_id}")

    def each(self, samples):
        """Yield each sample and count it into ``tested`` once the loop body is done with it.

        A loop over ``each`` must not ``continue``: that would count the
        skipped sample.  Filter the sample stream instead.
        """
        for sample in samples:
            yield sample
            self.tested += 1

    def cyclic_code(self, ring, spec: CyclicSpecR, mode: str = "idempotent"):
        """A divisor-triple code from this run's stack for (q, n, mode): every
        triple of that length, built at the first request.  An idempotent
        stack also fills each code's dual, components and cyclicity then."""
        key = (ring.q, spec.n, mode)
        if key not in self._stacks:
            specs = list(all_divisor_triples(ring, spec.n))
            codes = cyclic_codes_r(ring, specs, mode)
            if mode == "idempotent":
                fill_stack(ring, codes)
            self._stacks[key] = dict(zip(specs, codes))
        return self._stacks[key][spec]

    def cyclic_dual_spec(self, ring, spec: CyclicSpecR) -> CyclicSpecR:
        """``cyclic.cyclic_dual_spec(spec)`` from this run's table for (q, n),
        where each divisor's dual generator is computed at its first request."""
        table = self._dual_generators.setdefault((ring.q, spec.n), {})
        fs = (spec.f1, spec.f2, spec.f3)
        for f in fs:
            if f not in table:
                table[f] = cyclic_dual_generator(f, spec.n)
        return CyclicSpecR._checked(spec.n, *(table[f] for f in fs))  # h* divides x^n - 1 when g does


class _Refuted(Exception):
    """A counterexample: the claim is refuted with this evidence."""

    def __init__(self, observed, expected):
        super().__init__(observed, expected)
        self.observed, self.expected = observed, expected


CLAIMS: list[tuple] = []  # (claim id, anchor, scope, checker) in definition order


def _claim(claim_id: str, anchor: str, scope: str):
    """Register the decorated checker in ``CLAIMS``.

    A checker takes the run's ``_Ctx`` and returns ``(status, observed,
    expected, note)``, or raises ``_Refuted``.
    """

    def register(fn):
        CLAIMS.append((claim_id, anchor, scope, fn))
        return fn

    return register


def _gens(code) -> list[list[int]]:
    return list(map(list, code.gens))


def _json_counts(counts: dict) -> dict:
    return {str(w): c for w, c in counts.items()}  # JSON object keys are strings


def _witness_rows(ring, res) -> dict:
    """A search result's witness as spelled generator rows, or nothing when it found none."""
    return {} if res["witness"] is None else {"witness_generators": [format_row(ring, g) for g in res["witness"].gens]}


def _first(failed: np.ndarray) -> int | None:
    """The position of the first true entry, which is also the number of
    samples that passed before it, or None when every sample passed."""
    hits = np.flatnonzero(failed)
    return int(hits[0]) if hits.size else None


def _draw(rng, qs, max_n) -> tuple:
    """One seeded random code's ring and generator rows: q, then n, then the rows."""
    ring = ring_over(rng.choice(qs))
    return ring, random_rows(ring, rng.randrange(1, max_n + 1), rng)


def _build(drawn) -> list:
    """The R-code of each (ring, rows) pair, built a stack per ring by ``build_codes``."""
    codes: list = [None] * len(drawn)
    for q, where in _positions(ring.q for ring, _ in drawn).items():
        for i, code in zip(where, build_codes(ring_over(q), [drawn[i][1] for i in where])):
            codes[i] = code
    return codes


def _fill(fill, codes) -> None:
    """Run the stack fill ``fill(ring, codes)`` on the codes over each ring."""
    for q, where in _positions(code.ring.q for code in codes).items():
        fill(ring_over(q), [codes[i] for i in where])


def _random_codes(rng, count, qs=(2, 3), max_n=3) -> list:
    """``count`` seeded random R-codes, all drawn first and then built."""
    return _build([_draw(rng, qs, max_n) for _ in range(count)])


# ---------------------------------------------------------------------------
# gray scope


@_claim("lee-table-audit", "Lee weight case table", "gray")
def _claim_lee_table(ctx):
    observed = {}
    mismatched = set()
    for q in (2, 3, 5):
        audit = audit_published_lee_table(ring_over(q))
        bad = [r["row"] for r in audit["rows"] if r["disagreements"]]
        mismatched.update(bad)
        observed[f"q={q}"] = {
            "rows_disagreeing": bad,
            "conflicting_row_pairs": audit["conflicting_row_pairs"],
        }
    ctx.tested += 3 * len(audit["rows"])
    return (
        "refuted",
        observed,
        "each table row weight equals the Hamming weight of the Gray image",
        "the printed case table is internally inconsistent (identical support "
        "patterns under two weights, rows 3/10, 4/6, 5/7) and rows "
        f"{sorted(mismatched)} contradict w_H(gray(x)); the library defines the "
        "Lee weight as w_H(gray(x)), which the weight-preservation theorem forces",
    )


@_claim("thm2-weight-preserving", "Theorem 2", "gray")
def _claim_thm2(ctx):
    rng = ctx.rng("thm2")
    for q in (2, 3, 5):
        ring = ring_over(q)
        a0, a1, a2 = ring.coeff.T
        image = np.stack([a0, a0 + a2, a1], axis=1) % q
        bad = _first(ring.lee_table != np.count_nonzero(image, axis=1))
        if bad is not None:
            ctx.tested += bad
            raise _Refuted({"q": q, "symbol": list(ring.triple(bad))}, "w_L = w_H(gray)")
        ctx.tested += ring.size
        sums = ring.index(*(ring.coeff[:, None] + ring.coeff[None, :]).transpose(2, 0, 1))  # [i, j]: the index of i + j
        gray = ring.gray_table
        bad = _first(((gray[:, None] + gray[None, :]) % q != gray[sums]).any(axis=2).ravel())
        if bad is not None:
            ctx.tested += bad
            raise _Refuted({"q": q, "pair": list(divmod(bad, ring.size))}, "gray additive")
        ctx.tested += ring.size**2
    # weight preservation on whole vectors
    for _ in ctx.each(range(50)):
        q = rng.choice([2, 3, 5])
        ring = ring_over(q)
        n = rng.randrange(1, 6)
        row = np.array([[rng.randrange(ring.size) for _ in range(n)]])
        gray = LinearCodeR(ring, n, row).gray_words(row)[0]
        if int(ring.lee_table[row[0]].sum()) != int(np.count_nonzero(gray)):
            raise _Refuted({"q": q, "vector": row[0].tolist()}, "w_L = w_H(gray)")
    return "confirmed", "exact on all q^3 symbols and all symbol pairs, q in {2,3,5}", "w_L = w_H(gray), gray additive", ""


def _self_orth_samples(rng, count):
    """Deterministic stream of self-orthogonal codes over R: the first ``count``
    of at most 4000 draws whose generator rows are pairwise orthogonal, tested
    before any code is built by one einsum that takes ``LinearCodeR.dot`` of
    every pair, then two fixed ones."""
    found = []
    for _ in range(4000):
        if len(found) == count:
            break
        ring, rows = _draw(rng, (2, 3), 3)
        if not (np.einsum("ijab,kjb->ika", ring.times(rows), ring.coeff[rows]) % ring.q).any():
            found.append((ring, rows))
    r3 = ring_over(3)
    found += [(r3, np.array([[r3.e1] * 3])), (ring_over(2), np.array([[2, 2]]))]
    return _build(found)


@_claim("thm3-self-orthogonal", "Theorem 3", "gray")
def _claim_thm3(ctx):
    for code in ctx.each(_self_orth_samples(ctx.rng("thm3"), 25)):
        image = code.gray_image()
        if ((image.gen @ image.gen.T) % code.ring.q).any():
            raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "gray image self-orthogonal")
    return "confirmed", "gray images of all sampled self-orthogonal codes are self-orthogonal", "self-orthogonality transfers", ""


@_claim("cor4-min-weights", "Corollary 4", "gray")
def _claim_cor4(ctx):
    for code in ctx.each(c for c in _random_codes(ctx.rng("cor4"), 60) if c.dim_fq):
        d1, _ = code.min_lee_distance("exhaustive", ctx.budget)
        d2, _ = code.min_lee_distance("gray-image", ctx.budget)
        if d1 != d2:
            raise _Refuted({"q": code.ring.q, "gens": _gens(code), "lee": d1, "gray": d2}, "d_L(C) = d_H(gray(C))")
    return "confirmed", "minimum Lee weight equals Gray-image minimum Hamming weight on every sample", "d_L(C) = d_H(gray(C))", ""


@_claim("lem5-dimension", "Lemma 5 (dimension)", "gray")
def _claim_lem5_dimension(ctx):
    codes = _random_codes(ctx.rng("lem5-dimension"), 80, qs=(3, 5))
    _fill(fill_components, codes)
    for code in ctx.each(codes):
        if code.gray_image().k != sum(c.k for c in code.components_crt()):
            raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "dim gray(C) = k1+k2+k3")
    return "confirmed", "dim gray(C) = k1+k2+k3 with evaluation components on every sample", "dimension formula", ""


@_claim("lem5-distance", "Lemma 5 (distance)", "gray")
def _claim_lem5_distance(ctx):
    rng = ctx.rng("lem5-distance")
    ring = ring_over(3)
    codes = build_codes(ring, [random_rows(ring, rng.randrange(1, 4), rng) for _ in range(120)])
    fill_components(ring, codes)
    disagreements = 0
    first = None
    lower_bound_ok = True
    for code in ctx.each(c for c in codes if c.dim_fq):
        exact, _ = code.min_lee_distance("exhaustive", ctx.budget)
        dists = [c.min_distance(ctx.budget) for c in code.components_crt() if c.k]
        if not dists:
            raise EmptyCode("all components are zero codes")
        lemma = min(dists)
        if exact != lemma:
            disagreements += 1
            lower_bound_ok &= exact > lemma
            first = first or {"gens": _gens(code), "exact": exact, "component_minimum": lemma}
    status = "refuted" if disagreements else "confirmed"
    note = (
        f"min{{d(C1),d(C2),d(C3)}} disagreed with the exact minimum Lee weight on "
        f"{disagreements}/{ctx.tested} random q=3 codes"
    )
    if disagreements and lower_bound_ok:
        note += "; it held as a lower bound in every case (idempotent-slot symbols can carry Gray weight 2)"
    return status, {"disagreements": disagreements, "first_counterexample": first}, "d_L = min{d(C1),d(C2),d(C3)}", note


@_claim("thm6-dual-gray-image", "Theorem 6", "gray")
def _claim_thm6(ctx):
    enumerated = 0
    codes = _random_codes(ctx.rng("thm6"), 200)
    _fill(fill_duals, codes)
    for code in ctx.each(codes):
        dual = code.dual()
        lhs = code.gray_image().dual()
        if lhs != dual.gray_image():
            raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "gray(C)^dual = gray(C^dual)")
        if enumerated < 20 and lhs.size <= 1 << 12:
            # belt and braces: the words of gray(C)^dual against Psi applied word by word to C^dual
            words = np.unique(dual.gray_words(dual.codewords(ctx.budget)), axis=0)
            if not np.array_equal(np.unique(lhs.codewords(ctx.budget), axis=0), words):
                raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "set equality")
            enumerated += 1
    return "confirmed", f"basis equality on 200 random codes, literal set equality re-checked on {enumerated}", "gray(C)^dual = gray(C^dual)", ""


@_claim("cardinality-identity", "Component cardinality identity", "gray")
def _claim_cardinality(ctx):
    literal_bad = 0
    first = None
    codes = _random_codes(ctx.rng("cardinality-identity"), 80, qs=(3, 5))
    _fill(fill_components, codes)
    for code in ctx.each(codes):
        if math.prod(c.size for c in code.components_crt()) != code.size:
            raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "|C| = |C1||C2||C3|")
        literal_product = math.prod(c.size for c in code.components_paper())
        if literal_product != code.size:
            literal_bad += 1
            first = first or {"q": code.ring.q, "gens": _gens(code), "size": code.size, "literal_product": literal_product}
    return (
        "canonicalized",
        {"evaluation_components_ok": ctx.tested, "literal_projection_mismatches": literal_bad, "first_literal_mismatch": first},
        "|C| = |C1||C2||C3|",
        "the identity holds exactly for the evaluation (CRT) components; the "
        f"literal projections a, a+b, a+b+c broke it on {literal_bad}/{ctx.tested} samples",
    )


# ---------------------------------------------------------------------------
# enumerators scope


@_claim("thm7-1-lee-from-cwe", "Theorem 7 item 1", "enumerators")
def _claim_thm7_1(ctx):
    codes = _random_codes(ctx.rng("thm7-1"), 60)
    wenum.fill_lee_enumerators(codes, ctx.budget)
    for code in ctx.each(codes):
        lee = wenum.lee_enumerator(code, ctx.budget)
        if wenum.specialize(wenum.complete_enumerator(code, ctx.budget), "lee") != lee:
            raise _Refuted({"gens": _gens(code)}, "cwe(X^3, X^2 Y, X Y^2, Y^3) = Lee")
        if wenum.specialize(wenum.symmetrized_enumerator(code, ctx.budget), "lee") != lee:
            raise _Refuted({"gens": _gens(code)}, "swe specialization = Lee")
    return "confirmed", "complete and symmetrized enumerators specialize exactly to the Lee enumerator", "specialization identity", ""


@_claim("thm7-2-hamming-from-cwe", "Theorem 7 item 2", "enumerators")
def _claim_thm7_2(ctx):
    for code in ctx.each(_random_codes(ctx.rng("thm7-2"), 60)):
        ham = wenum.hamming_enumerator_r(code, ctx.budget)
        if wenum.specialize(wenum.complete_enumerator(code, ctx.budget), "hamming") != ham:
            raise _Refuted({"gens": _gens(code)}, "cwe(X, Y, ..., Y) = Ham")
    return "confirmed", "complete enumerator specializes exactly to the Hamming enumerator", "specialization identity", ""


@_claim("thm7-3-lee-equals-gray", "Theorem 7 item 3", "enumerators")
def _claim_thm7_3(ctx):
    for code in ctx.each(_random_codes(ctx.rng("thm7-3"), 60)):
        # the element-space tally, not lee_enumerator, which counts the Gray image itself
        lee = wenum.lee_enumerator_by_table(code, ctx.budget)
        if lee.counts != code.gray_image().weight_counts(ctx.budget):
            raise _Refuted({"gens": _gens(code)}, "Lee_C = Ham_gray(C)")
    return "confirmed", "Lee distribution equals the Gray image Hamming distribution on every sample", "Lee_C(X,Y) = W_gray(C)(X,Y)", ""


@_claim("thm7-4-macwilliams", "Theorem 7 item 4", "enumerators")
def _claim_thm7_4(ctx):
    counterexample = None
    codes = _random_codes(ctx.rng("thm7-4"), 120, max_n=2)
    duals = brute_force_duals(codes, ctx.budget)
    wenum.fill_lee_enumerators(codes + duals, ctx.budget)
    for code, dual in ctx.each(zip(codes, duals)):
        lee = wenum.lee_enumerator(code, ctx.budget)
        dual_lee = wenum.lee_enumerator(dual, ctx.budget)
        try:
            corrected = wenum.macwilliams_lee(lee, code.size)
        except TransformInconsistent:
            corrected = None  # no distribution at all, so no match
        if corrected != dual_lee:
            raise _Refuted({"q": code.ring.q, "gens": _gens(code)}, "corrected transform matches dual")
        if counterexample is None and code.ring.q == 3:
            try:
                literal = wenum.macwilliams_counts(lee.counts, 3 * lee.n, 2, code.size)  # the printed (X+Y, X-Y)
                detail = None if literal == dual_lee.counts else {"literal_counts": _json_counts(literal)}
            except TransformInconsistent as exc:
                detail = {"literal_error": str(exc)}
            if detail:
                counterexample = {"q": 3, "gens": _gens(code), "dual_counts": _json_counts(dual_lee.counts), **detail}
    return (
        "canonicalized",
        {"corrected_form_matches": ctx.tested, "literal_form_counterexample": counterexample},
        "Lee_{C^dual}(X,Y) = (1/|C|) Lee_C(X+Y, X-Y)",
        "the printed substitution (X+Y, X-Y) is the q=2 special case; the q-ary "
        "transform needs (X+(q-1)Y, X-Y), which matched the brute-force dual "
        "distribution on every sample while the printed form fails at q=3",
    )


# ---------------------------------------------------------------------------
# cyclic scope


def _triples(ring, ns):
    """Every divisor triple of every length in ``ns``, length by length."""
    return (spec for n in ns for spec in all_divisor_triples(ring, n))


def _spec_obj(spec: CyclicSpecR) -> dict:
    return {"n": spec.n, "f1": format_poly(spec.f1), "f2": format_poly(spec.f2), "f3": format_poly(spec.f3)}


@_claim("thm8-cyclic-components", "Theorem 8", "cyclic")
def _claim_thm8(ctx):
    ring = ring_over(3)
    for spec in ctx.each(_triples(ring, (2, 3, 4))):
        code = ctx.cyclic_code(ring, spec)
        if not is_cyclic_r(code):
            raise _Refuted({"n": spec.n, "spec": _spec_obj(spec)}, "triple codes are cyclic")
        if not all(c.is_cyclic() for c in code.components_crt()):
            raise _Refuted({"n": spec.n, "spec": _spec_obj(spec)}, "components of cyclic codes are cyclic")
    if is_cyclic_r(LinearCodeR(ring, 2, [[1, 0]])):
        raise _Refuted({"control": "span{(1,0)}"}, "negative control")
    ctx.tested += 1
    return "confirmed", "all divisor-triple codes are cyclic with cyclic components (q=3, n in {2,3,4}); non-cyclic control rejected", "cyclic iff components cyclic", ""


@_claim("cor9-cyclic-dual", "Corollary 9", "cyclic")
def _claim_cor9(ctx):
    ring = ring_over(3)
    for spec in ctx.each(_triples(ring, (2, 3, 4))):
        dual = ctx.cyclic_code(ring, ctx.cyclic_dual_spec(ring, spec))
        if dual != ctx.cyclic_code(ring, spec).dual() or not is_cyclic_r(dual):
            raise _Refuted({"n": spec.n, "spec": _spec_obj(spec)}, "componentwise dual is the dual and cyclic")
    return "confirmed", "componentwise cyclic dual equals the computed dual and is cyclic on every divisor triple (q=3, n in {2,3,4})", "dual of cyclic is cyclic, componentwise", ""


@_claim("cor10-self-dual-cyclic", "Corollary 10", "cyclic")
def _claim_cor10(ctx):
    observed = {}
    consistent = True
    for q, ns in ((3, (2, 3, 4)), (2, (2, 3, 4))):
        ring = ring_over(q)
        for n in ns:
            res = self_dual_cyclic_search(ring, n, ctx.cyclic_code)
            ctx.tested += res["tested"]
            found = res["witness"] is not None
            expected = q % 2 == 0 and n % 2 == 0
            consistent &= found == expected
            observed[f"q={q},n={n}"] = {"found": found, "criterion": expected, "tested": res["tested"], "exhausted": res["exhausted"], **_witness_rows(ring, res)}
    return (
        "confirmed" if consistent else "refuted",
        observed,
        "self-dual cyclic codes exist iff q is a power of 2 and n is even",
        "exhaustive divisor-triple search at q=3 and exhaustive ideal search at q=2; "
        "prime powers q in {4, 8, ...} are outside this artifact (prime fields only) and stay untested",
    )


@_claim("thm11-cardinality", "Theorem 11", "cyclic")
def _claim_thm11(ctx):
    literal_bad = 0
    first = None
    ring = ring_over(3)
    for spec in ctx.each(_triples(ring, (2, 4))):
        expected = spec.size_formula(ring.q)
        code = ctx.cyclic_code(ring, spec)
        if code.size != expected:
            raise _Refuted({"spec": _spec_obj(spec), "size": code.size, "formula": expected}, "|C| = q^(3n - sum deg fi)")
        lit = ctx.cyclic_code(ring, spec, "paper-literal")
        if lit.size != expected:
            literal_bad += 1
            first = first or {"spec": _spec_obj(spec), "literal_size": lit.size, "formula": expected}
    note = (
        f"idempotent combination satisfied the size formula on all {ctx.tested} divisor triples (q=3, n in {{2,4}}); "
        f"the printed combination with coefficients v, 1-v, 1-v^2 missed it on {literal_bad} of them"
    )
    return "confirmed", {"idempotent_ok": ctx.tested, "literal_mismatches": literal_bad, "first_literal_mismatch": first}, "|C| = q^(3n - sum deg fi)", note


# ---------------------------------------------------------------------------
# fsd scope


def _claim_construction(claim_id, anchor, block, make_input, label):
    @_claim(claim_id, anchor, "fsd")
    def run(ctx):
        rng = ctx.rng(claim_id)
        # 100 inputs at q=3, then odd-q spot checks at q=5 (witness only; enumerators get large)
        for q, count, max_n in ((3, 100, 3), (5, 10, 2)):
            ring = ring_over(q)
            drawn = []
            for _ in range(count):
                n = rng.randrange(1, max_n + 1)
                drawn.append((n, make_input(ring, n, rng)))
            # build, dualize and Lee-count the whole stack; the checks below read the memos
            built = constructions(ring, block, [x for _, x in drawn])
            codes = [code for code, _ in built]
            fill_duals(ring, codes)
            if q == 3:
                wenum.fill_lee_enumerators(codes + [code._dual for code in codes], ctx.budget)
            for (n, _), (code, witness) in ctx.each(zip(drawn, built)):
                if not isodual_witness_check(code, witness):
                    raise _Refuted({"failure": "witness", "q": q, "n": n, "gens": _gens(code)}, label)
                if q == 3 and not is_formally_self_dual(code, ctx.budget):
                    raise _Refuted({"failure": "enumerator", "q": q, "n": n, "gens": _gens(code)}, label)
        return (
            "confirmed",
            "isodual witness verified and Lee enumerators of C and its dual matched exactly on every input",
            label,
            "the certifying equivalence is the proof's signed permutation "
            "(block swap with negation), weight-preserving since w_L(-a) = w_L(a)",
        )


def _random_bordered_input(ring, n, rng):
    return random_bordered(ring, max(n, 2), rng)


_claim_construction("thm12-construction-a", "Theorem 12 (construction A)", _symmetric_block, random_symmetric, "symmetric [I|A] codes are isodual, hence FSD")
_claim_construction("thm14-construction-b", "Theorem 14 (construction B)", _circulant_block, random_circulant, "double circulant codes are isodual, hence FSD")
_claim_construction("thm16-construction-c", "Theorem 16 (construction C)", _bordered_block, _random_bordered_input, "bordered circulant codes are FSD")


@_claim("thm18-gray-fsd", "Theorem 18", "fsd")
def _claim_thm18(ctx):
    rng = ctx.rng("thm18")
    ring = ring_over(3)
    matrices = [random_symmetric(ring, rng.randrange(1, 3), rng) for _ in range(40)]
    for code, _ in ctx.each(constructions(ring, _symmetric_block, matrices)):
        if not gray_fsd_transfer(code, ctx.budget):
            raise _Refuted({"gens": _gens(code)}, "gray image of FSD is FSD")
    # negative control: a code that is not FSD must be allowed to fail
    if gray_fsd_transfer(LinearCodeR(ring, 1, [[ring.e1]]), ctx.budget):
        raise _Refuted({"control": "span{e1}, length 1"}, "negative control should fail")
    ctx.tested += 1
    return "confirmed", "gray images of sampled FSD codes are FSD; non-FSD control rejected", "FSD transfers through the Gray map", ""


@_claim("lem19-direct-product", "Lemma 19", "fsd")
def _claim_lem19(ctx):
    rng = ctx.rng("lem19")
    ring = ring_over(3)
    drawn = []
    for _ in range(25):
        matrix = random_symmetric(ring, 1, rng)
        drawn.append((matrix, random_circulant(ring, rng.randrange(1, 3), rng)))
    c1s = constructions(ring, _symmetric_block, [a for a, _ in drawn])
    c2s = constructions(ring, _circulant_block, [b for _, b in drawn])
    triples = [(c1, c2, direct_product(c1, c2)) for (c1, _), (c2, _) in zip(c1s, c2s)]
    fill_duals(ring, [c for triple in triples for c in triple])
    wenum.fill_lee_enumerators([c for c1, c2, prod in triples for c in (c1, c2, prod, prod._dual)], ctx.budget)
    for c1, c2, prod in ctx.each(triples):
        l1 = wenum.lee_enumerator(c1, ctx.budget)
        l2 = wenum.lee_enumerator(c2, ctx.budget)
        if wenum.lee_enumerator(prod, ctx.budget).counts != wenum.product_counts(l1.counts, l2.counts):
            raise _Refuted({"gens": _gens(prod)}, "enumerator product law")
        if prod.dual() != direct_product(c1.dual(), c2.dual()):
            raise _Refuted({"gens": _gens(prod)}, "(C1 x C2)^dual = C1^dual x C2^dual")
        if not is_formally_self_dual(prod, ctx.budget):
            raise _Refuted({"gens": _gens(prod)}, "product of FSD is FSD")
    return "confirmed", "product enumerators, product duals and FSD closure verified exactly on every pair", "direct products preserve FSD", ""


@_claim("thm20-odd-fsd", "Theorem 20", "fsd")
def _claim_thm20(ctx):
    observed = {}
    for q, n in ((2, 1), (3, 1), (3, 2)):
        ring = ring_over(q)
        res = odd_fsd_search(ring, n, ctx.budget)
        ctx.tested += res["tested"]
        observed[f"q={q},n={n}"] = {"witness": res["witness"] is not None, "submodules_tested": res["tested"], "exhausted": res["exhausted"], **_witness_rows(ring, res)}
    len1_refuted = not observed["q=2,n=1"]["witness"] and not observed["q=3,n=1"]["witness"]
    return (
        "refuted" if len1_refuted else "confirmed",
        observed,
        "odd formally self-dual codes exist for all lengths",
        "at length 1 every submodule lattice was exhausted and no FSD code exists at all: "
        "|C| = |C^dual| forces |C|^2 = q^3, impossible for prime q, which breaks the "
        "induction base; odd FSD codes do exist at length 2 (witness recorded)",
    )


# ---------------------------------------------------------------------------
# examples scope


def _repairs(ring, printed, rebuilt) -> list[list]:
    """[row, column, printed, rebuilt], 1-based and spelled, for each entry the rebuild changed."""
    return [
        [i + 1, j + 1, *format_row(ring, (p, r))]
        for i, (printed_row, rebuilt_row) in enumerate(zip(printed, rebuilt))
        for j, (p, r) in enumerate(zip(printed_row, rebuilt_row))
        if p != r
    ]


def _claim_example(claim_id, anchor, build, published, refuted_note, reproduced_note, exact_key=None):
    """Register a worked example whose Gray image was published as ``published`` = [n, k, d].

    ``build(budget)`` returns the example's ring, code and isodual witness, the
    observed keys only it records, and its ``tested`` count.  The claim checks
    the witness and finds the exact Lee distance d, the third Gray parameter
    (or the key ``exact_key``).  The published d canonicalizes the example;
    any other refutes it, with ``refuted_note`` formatted with d and the keys.
    """

    @_claim(claim_id, anchor, "examples")
    def run(ctx):
        ring, code, witness, own, tested = build(ctx.budget)
        d, words = code.minimum_lee_words(ctx.budget)
        observed = {
            "gray_parameters": [3 * code.n, code.dim_fq] + ([] if exact_key else [d]),
            "isodual_witness": isodual_witness_check(code, witness),
            "minimum_weight_codeword": format_row(ring, words[0]),
            **({exact_key: d} if exact_key else {}),
            **own,
        }
        ctx.tested += tested
        if d == published[2]:
            return "canonicalized", observed, published, reproduced_note
        return "refuted", observed, published, refuted_note.format(d=d, **observed)


def _ex13_code(budget: int = DEFAULT_BUDGET):
    ring = ring_over(3)
    printed = [[ring.parse(e).idx for e in row] for row in EX13_PRINTED_ROWS]
    matrix = SymmetricMatrixR.from_upper_triangle(ring, printed)
    code, witness = construction_a(ring, matrix)
    return ring, code, witness, {"repaired_entries": _repairs(ring, printed, matrix.rows)}, code.size


def _ex15_code(budget: int = DEFAULT_BUDGET):
    ring = ring_over(5)
    printed = [[ring.parse(e).idx for e in row] for row in EX15_PRINTED_ROWS]
    spec = CirculantSpecR(ring, tuple(printed[0]))
    code, witness = construction_b(ring, spec)
    comps = code.components_crt()
    params = [[c.n, c.k, c.min_distance(budget)] for c in comps]
    lemma = min(p[2] for p in params)
    # the Lee weights of the idempotent embeddings certify an upper bound too
    upper = min(int(ring.lee_table[e]) * p[2] for e, p in zip((ring.e1, ring.e2, ring.e0), params))
    own = {"component_codes": params, "minimum_distance_lemma5_based": lemma, "certified_distance_range": [lemma, upper]}
    own["repaired_entries"] = _repairs(ring, printed, spec.rows())
    return ring, code, witness, own, sum(c.size for c in comps)  # the component codes whose distances it computed


def _ex17_code(budget: int = DEFAULT_BUDGET):
    ring = ring_over(3)
    printed = [[ring.parse(e).idx for e in row] for row in EX17_PRINTED_CORE]
    spec = BorderedSpecR(ring, ring.parse(EX17_ALPHA).idx, ring.parse(EX17_OMEGA).idx, CirculantSpecR(ring, tuple(printed[0])))
    code, witness = construction_c(ring, spec)
    own = {"repaired_core_entries": _repairs(ring, printed, spec.core.rows()), "alpha": EX17_ALPHA, "omega": EX17_OMEGA}
    return ring, code, witness, own, code.size


_claim_example(
    "ex13-symmetric", "Example 13", _ex13_code, [30, 15, 9],
    "the printed matrix is not symmetric: entry (4,1) reads 1+2v+v^2 against (1,4) = 1+2v+2v^2, so the grid was "
    "symmetrized from its upper triangle; the code is formally self-dual with a [30,15] Gray image, but its minimum "
    "distance, exact by Brouwer-Zimmermann over every codeword, is {d}, not the published 9",
    "matrix symmetrized from its upper triangle (entry (4,1) misprinted); published parameters reproduced",
)
_claim_example(
    "ex15-double-circulant", "Example 15", _ex15_code, [30, 15, 12],
    "printed row 5 is not the cyclic shift of row 4, so the matrix was rebuilt as the circulant of its printed first "
    "row; the Gray image's minimum distance, exact by Brouwer-Zimmermann over every codeword, is {d}, refuting the "
    "published 12 (the component minimum, tagged lemma5-based, is {minimum_distance_lemma5_based}, and the "
    "idempotent embeddings cap the distance at {certified_distance_range[1]})",
    "matrix rebuilt as the circulant of its printed first row; published parameters reproduced",
    exact_key="minimum_distance_exact",
)
_claim_example(
    "ex17-bordered", "Example 17", _ex17_code, [24, 12, 9],
    "core entry (3,2) reads v^2 where circulancy forces 2v^2, so the core was rebuilt from its first row, and alpha "
    "is taken from the prose (2+v+2v^2; the displayed generator matrix drops the square); the code is formally "
    "self-dual with a [24,12] Gray image whose minimum distance, exact by Brouwer-Zimmermann over every codeword, "
    "is {d}, not the published 9",
    "core rebuilt from its first row and alpha taken from the prose; published parameters reproduced",
)


# ---------------------------------------------------------------------------
# runner


def _run_claim(ctx: _Ctx, fn) -> tuple:
    """Run one checker: ``(status, observed, expected, tested, note)``.

    A raised ``_Refuted`` becomes ``refuted`` with the samples that passed
    before it; a ``VCodesError`` (e.g. over budget) becomes ``untestable``
    with its message as the note.  Any other exception propagates.
    """
    ctx.tested = 0
    try:
        status, observed, expected, note = fn(ctx)
    except _Refuted as exc:
        return "refuted", exc.observed, exc.expected, ctx.tested, ""
    except VCodesError as exc:
        return "untestable", None, None, 0, str(exc)
    return status, observed, expected, ctx.tested, note


def run_verification_suite(
    scope: str = "all", seed: int = 42, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Run every registered claim in the scope; failures become entries."""
    if scope not in SCOPES:
        raise ParamMismatch(f"unknown scope {scope!r}; choose from {SCOPES}")
    ctx = _Ctx(seed, budget)
    report = VerificationReport(scope=scope, seed=seed)
    for claim_id, anchor, claim_scope, fn in sorted(CLAIMS, key=lambda c: c[0]):
        if scope in ("all", claim_scope):
            t0 = time.perf_counter()
            status, observed, expected, tested, note = _run_claim(ctx, fn)
            seconds = time.perf_counter() - t0
            report.entries.append(VerificationEntry(claim_id, anchor, status, observed, expected, tested, note, seconds))
    return report
