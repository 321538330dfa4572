"""The three benchmark workloads: inputs from a seed, one timed pass each.

claims-lattice   run_verification_suite for scopes cyclic and fsd: submodule
                 and ideal lattice walks, divisor triples, small CRT duals.
claims-distance  run_verification_suite for scopes examples, gray and
                 enumerators: dominated by full codeword enumeration (Example
                 13 has 3^15 words) and touching no submodule lattice.
library-codes    library calls on seeded random codes larger than the harness
                 reaches: duals (ambient brute force at q = 2), Lee and
                 complete enumerators, MacWilliams and minimum distance.

An operation is one claim on the claims workloads and one code's pipeline on
library-codes.  The program only sees generated inputs: a suite seed picked
from ``SUITE_SEEDS`` (the seeds with recorded golden verdicts) or the
generator rows of the library codes.
"""

from __future__ import annotations

import random
import traceback

import numpy as np

import gate

WORKLOADS = ("claims-lattice", "claims-distance", "library-codes")
CLAIM_SCOPES = {
    "claims-lattice": ("cyclic", "fsd"),
    "claims-distance": ("examples", "gray", "enumerators"),
}
RING_QS = (2, 3, 5)
SUITE_SEEDS = (42, 7, 1, 2, 3, 5, 11, 13)

# (q, n, free generators, generators that are multiples of v); the code then has
# F_q-dimension 3*free + 2*v_multiples, which fixes the work of every slot
LIBRARY_SLOTS = (
    (2, 5, 1, 0),
    (2, 5, 1, 1),
    (2, 5, 2, 1),
    (2, 6, 1, 0),
    (2, 6, 1, 1),
    (2, 6, 3, 2),
    (3, 4, 1, 0),
    (3, 4, 2, 1),
    (3, 4, 2, 2),
    (3, 5, 2, 0),
    (3, 5, 2, 1),
    (3, 5, 3, 0),
    (5, 3, 0, 2),
    (5, 3, 1, 1),
    (5, 3, 1, 1),
)


def suite_seed(seed: int) -> int:
    return SUITE_SEEDS[seed % len(SUITE_SEEDS)]


# ---- library-codes inputs --------------------------------------------------


def _times_v(q: int, coeffs: np.ndarray) -> np.ndarray:
    """(a0, a1, a2) -> coefficients of v*(a0 + a1 v + a2 v^2), using v^3 = v."""
    a0, a1, a2 = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    return np.stack([np.zeros_like(a0), (a0 + a2) % q, a1], axis=-1)


def _coeffs(q: int, idx: np.ndarray) -> np.ndarray:
    """Element indices a0 + q*a1 + q^2*a2 -> coefficient triples (a0, a1, a2)."""
    return np.stack([idx % q, (idx // q) % q, idx // (q * q)], axis=-1)


def span_dimension(q: int, gens) -> int:
    """F_q-dimension of the R-span of ``gens`` (rows of element indices)."""
    idx = np.array(gens, dtype=np.int64)
    coeffs = _coeffs(q, idx)
    vg = _times_v(q, coeffs)
    stacked = np.concatenate([coeffs, vg, _times_v(q, vg)], axis=0)
    rows = stacked.transpose(0, 2, 1).reshape(-1, 3 * idx.shape[1]) % q
    rank = 0
    for col in range(rows.shape[1]):
        hits = np.nonzero(rows[rank:, col])[0]
        if hits.size == 0:
            continue
        pivot = rank + hits[0]
        rows[[rank, pivot]] = rows[[pivot, rank]]
        rows[rank] = rows[rank] * pow(int(rows[rank, col]), q - 2, q) % q
        others = np.nonzero(rows[:, col])[0]
        others = others[others != rank]
        rows[others] = (rows[others] - rows[others, col][:, None] * rows[rank]) % q
        rank += 1
        if rank == rows.shape[0]:
            break
    return rank


def library_codes(seed: int) -> list[dict]:
    """One random code per slot, redrawn until its span has the slot's size."""
    rng = random.Random(f"library-codes:{seed}")
    codes = []
    for q, n, free, v_multiples in LIBRARY_SLOTS:
        k = 3 * free + 2 * v_multiples
        for _ in range(1000):
            gens = np.array(
                [[rng.randrange(q**3) for _ in range(n)] for _ in range(free + v_multiples)],
                dtype=np.int64,
            )
            vh = _times_v(q, _coeffs(q, gens[free:]))
            gens[free:] = vh[..., 0] + q * vh[..., 1] + q * q * vh[..., 2]
            if span_dimension(q, gens) == k:
                break
        else:
            raise RuntimeError(f"no code of dimension {k} found for q={q}, n={n}")
        codes.append({"q": q, "n": n, "k": k, "gens": gens.tolist()})
    return codes


def make_inputs(workload: str, seed: int) -> dict:
    if workload in CLAIM_SCOPES:
        return {"suite_seed": suite_seed(seed)}
    if workload == "library-codes":
        return {"codes": library_codes(seed)}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---- one pass ---------------------------------------------------------------


def _failure(op: str, exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename.rsplit('/', 1)[-1]}:{last[0].lineno}" if last else ""
    return f"{op}: raised {type(exc).__name__}: {exc}{where}"


def run_claims(vcodes, scopes, suite_seed_value: int, golden: dict) -> dict:
    """Run each scope's claims once and gate every entry against golden."""
    reference = golden["reports"][str(suite_seed_value)]
    out = {"attempted": 0, "failures": [], "claim_seconds": {}, "entries_changed": 0}
    for scope in scopes:
        expected = {cid: e for cid, e in reference.items() if e["scope"] == scope}
        out["attempted"] += len(expected)
        try:
            report = vcodes.run_verification_suite(scope, suite_seed_value)
        except Exception as exc:  # one scope failing must not end the run
            out["failures"] += [_failure(cid, exc) for cid in sorted(expected)]
            continue
        got = {e.claim_id: e for e in report.entries}
        for cid, golden_entry in sorted(expected.items()):
            entry = got.get(cid)
            obj = entry.to_json_obj() if entry is not None else None
            problem = gate.check_claim(cid, obj, golden_entry["entry"])
            if problem:
                out["failures"].append(problem)
            if entry is not None:
                out["claim_seconds"][cid] = entry.seconds
                out["entries_changed"] += gate.entry_changed(obj, golden_entry["entry"])
    return out


def library_pipeline(vcodes, q: int, n: int, gens) -> dict:
    """dual, Lee enumerators both sides, MacWilliams, complete enumerator of
    the larger side, minimum Lee distance both ways."""
    ring = vcodes.ring_over(q)
    code = vcodes.LinearCodeR(ring, n, gens)
    dual = code.dual()
    lee_c = vcodes.lee_enumerator(code)
    lee_d = vcodes.lee_enumerator(dual)
    macwilliams = vcodes.macwilliams_lee(lee_c, code.size)
    big, lee_big = (code, lee_c) if code.size >= dual.size else (dual, lee_d)
    cwe = vcodes.complete_enumerator(big)
    d_exhaustive, _ = code.min_lee_distance("exhaustive")
    d_gray, _ = code.min_lee_distance("gray-image")
    return {
        "size": code.size,
        "dual_size": dual.size,
        "lee_dual": lee_d.counts,
        "macwilliams": macwilliams.counts,
        "lee_big": lee_big.counts,
        "cwe_as_lee": vcodes.specialize(cwe, "lee").counts,
        "cwe_total": cwe.total(),
        "d_exhaustive": d_exhaustive,
        "d_gray": d_gray,
    }


def run_library(vcodes, codes) -> dict:
    out = {"attempted": 0, "failures": [], "claim_seconds": {}, "entries_changed": 0}
    for i, c in enumerate(codes):
        op = f"code {i} (q={c['q']}, n={c['n']}, k={c['k']})"
        out["attempted"] += 1
        try:
            result = library_pipeline(vcodes, c["q"], c["n"], c["gens"])
        except Exception as exc:  # count the failure and go on to the next code
            out["failures"].append(_failure(op, exc))
            continue
        out["failures"] += [f"{op}: {p}" for p in gate.check_library_code(c["q"], c["n"], c["k"], result)]
    return out


def run_pass(vcodes, workload: str, inputs: dict, golden: dict) -> dict:
    if workload in CLAIM_SCOPES:
        return run_claims(vcodes, CLAIM_SCOPES[workload], inputs["suite_seed"], golden)
    return run_library(vcodes, inputs["codes"])
