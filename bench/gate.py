"""Correctness gate: golden claim verdicts and library-code oracles.

A claim fails when its scope raised, when it is missing from the report,
when its verdict differs from the golden one, or when it did fewer checks
(``tested``) than the golden run.  Evidence that gets stronger is allowed,
so a changed ``observed`` value is counted in ``entries_changed`` only.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "claims.json"


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_claim(claim_id: str, entry_obj: dict | None, golden_entry: dict) -> str | None:
    """Why one claim's report entry fails the gate, or None when it passes."""
    if entry_obj is None:
        return f"{claim_id}: missing from the report"
    if entry_obj["status"] != golden_entry["status"]:
        return f"{claim_id}: verdict {entry_obj['status']} != golden {golden_entry['status']}"
    if entry_obj["tested"] < golden_entry["tested"]:
        return f"{claim_id}: tested {entry_obj['tested']} < golden {golden_entry['tested']}"
    return None


def entry_changed(entry_obj: dict, golden_entry: dict) -> bool:
    return canonical(json.loads(canonical(entry_obj))) != canonical(golden_entry)


def check_library_code(q: int, n: int, k: int, r) -> list[str]:
    """Oracle checks on one library pipeline result ``r`` (see workloads)."""
    problems = []
    if r["size"] != q**k:
        problems.append(f"|C| = {r['size']}, generators span q^{k} = {q**k}")
    if r["size"] * r["dual_size"] != q ** (3 * n):
        problems.append(f"|C|*|C^perp| = {r['size'] * r['dual_size']} != |R|^n = {q ** (3 * n)}")
    if r["macwilliams"] != r["lee_dual"]:
        problems.append("macwilliams_lee(C) differs from Lee(C^perp)")
    if r["cwe_as_lee"] != r["lee_big"]:
        problems.append("specialize(cwe, 'lee') differs from the Lee enumerator")
    if r["cwe_total"] != max(r["size"], r["dual_size"]):
        problems.append(f"complete enumerator counts {r['cwe_total']} words")
    if r["d_exhaustive"] != r["d_gray"]:
        problems.append(f"exhaustive distance {r['d_exhaustive']} != gray-image distance {r['d_gray']}")
    return problems
