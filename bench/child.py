"""One fresh benchmark process; run.py starts it and reads its last stdout line.

    child.py setup
        import vcodes and build the ring tables, report the seconds it took.
    child.py workload --workload W --seed N --seconds S --trace 0|1 --spans PATH
        set up the same way, make W's inputs from the seed, then run whole
        passes until the next one would end after S seconds (at least one
        pass; exactly one when traced), gating every operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MAX_FAILURES_KEPT = 20


def set_up(tracer=None):
    """Import vcodes from this checkout and build its ring tables."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import vcodes

    if not Path(vcodes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"vcodes imported from {vcodes.__file__}, not from {SRC}")
    modules = None
    if tracer is not None:
        import layers

        modules = layers.install(tracer)
    from workloads import RING_QS

    for q in RING_QS:
        vcodes.ring_over(q)
    return vcodes, perf_counter() - t0, modules


def run_workload(args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    vcodes, setup_s, modules = set_up(tracer)
    import gate
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    golden = gate.load_golden()

    passes: list[float] = []
    attempted = 0
    failures: list[str] = []
    claim_seconds: dict[str, list[float]] = {}
    entries_changed = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if tracer is not None:
            tracer.run_id = len(passes) + 1
            with tracer.span("bench.pass"):
                result = workloads.run_pass(vcodes, args.workload, inputs, golden)
        else:
            result = workloads.run_pass(vcodes, args.workload, inputs, golden)
        dt = perf_counter() - t0
        passes.append(dt)
        attempted += result["attempted"]
        failures += result["failures"]
        for cid, s in result["claim_seconds"].items():
            claim_seconds.setdefault(cid, []).append(s)
        if entries_changed is None:
            entries_changed = result["entries_changed"]
            # peak of set-up plus one pass, so the number of passes cannot change it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None or perf_counter() - start + dt > args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_KEPT],
        "claim_seconds": {cid: statistics.median(v) for cid, v in sorted(claim_seconds.items())},
        "entries_changed": entries_changed,
        "peak_rss_mb": peak_rss_mb,
        "inputs": {"suite_seed": inputs["suite_seed"]} if "suite_seed" in inputs else {
            "codes": [[c["q"], c["n"], c["k"]] for c in inputs["codes"]]
        },
    }
    if tracer is not None:
        import layers

        out["layers"] = layers.span_metrics(tracer, runs=(0, 1))
        out["coverage_problems"] = layers.coverage_problems(tracer, args.workload, modules)
        out["captured_bindings"] = tracer.captured_bindings(modules)
        summary = tracer.summary(run=1)
        top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]
        out["top_self_s"] = [[name, s["self_s"]] for name, s in top]
        out["traced_self_s_total"] = sum(s["self_s"] for s in summary.values())
        tracer.dump(args.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    w = sub.add_parser("workload")
    w.add_argument("--workload", required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--seconds", type=float, required=True)
    w.add_argument("--trace", type=int, choices=(0, 1), required=True)
    w.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = {"setup_s": set_up()[1]}
    else:
        out = run_workload(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
