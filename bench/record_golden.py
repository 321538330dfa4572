"""Record the golden claim reports the correctness gate compares against.

Run from the repository root on the commit whose verdicts are the reference:

    PYTHONPATH=src python3 bench/record_golden.py

It runs the whole verification suite once per seed in ``SUITE_SEEDS`` and
writes every entry (without timings) to ``bench/golden/claims.json``.
"""

from __future__ import annotations

import json
import sys
import time

import vcodes
from vcodes.verify import CLAIMS

import gate
from workloads import SUITE_SEEDS


def main() -> int:
    scope_of = {cid: scope for cid, _anchor, scope, _fn in CLAIMS}
    reports = {}
    for seed in SUITE_SEEDS:
        t0 = time.perf_counter()
        report = vcodes.run_verification_suite("all", seed)
        reports[str(seed)] = {
            e.claim_id: {"scope": scope_of[e.claim_id], "entry": e.to_json_obj()} for e in report.entries
        }
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(gate.GOLDEN_PATH, "w") as fh:
        json.dump({"suite_seeds": list(SUITE_SEEDS), "reports": reports}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
