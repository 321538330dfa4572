"""vcodes benchmark: one run of one workload, one JSON line of metrics.

    python3 bench/run.py --workload claims-lattice --seed 1 --seconds 30 --trace 0

Every measurement happens in a fresh child process (bench/child.py) with one
thread for numpy's math libraries.  With ``--trace 0`` the run reports the
end-to-end metrics: ``report_s`` (median wall seconds of one pass of the
workload), ``setup_s`` (median over fresh processes of importing vcodes and
building the ring tables) and ``peak_rss_mb`` of the workload process.  With
``--trace 1`` it runs the workload once untraced and once traced and
reports the per-layer metrics of bench/layers.py, the claim times and the
tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402
import layers  # noqa: E402
import gate  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run bench/child.py in a fresh interpreter and parse its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child process")
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: no result within {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def workload_args(args, trace: int, spans: Path | None = None) -> list[str]:
    out = [
        "workload",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if spans is not None:
        out += ["--spans", str(spans)]
    return out


def setup_samples(count: int, deadline: float) -> list[float]:
    return [run_child(["setup"], deadline)["setup_s"] for _ in range(count)]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    run_child(["setup"], deadline)  # fills the bytecode cache; not measured
    # half the samples before the workload and half after, so that the
    # median spans the run rather than one moment of a shared machine
    setups = setup_samples(SETUP_SAMPLES // 2, deadline)
    work = run_child(workload_args(args, 0), deadline)
    setups += [work["setup_s"]] + setup_samples(SETUP_SAMPLES // 2, deadline)
    values = {
        "report_s": statistics.median(work["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": work["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record = {"setup_samples": setups, "workload": work}
    return metrics, record


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {m: unit for m, (unit, _names, _field) in layers.SPAN_METRICS.items()}
    units.update(layers.DERIVED_METRICS)
    for cid in sorted(next(iter(gate.load_golden()["reports"].values()))):
        units[f"verify.claim_s.{cid}"] = "s"
    units["verify.entries_changed"] = "count"
    units["trace.overhead_frac"] = "1"
    return units


def per_layer(args, deadline: float, stamp: str) -> tuple[dict, dict]:
    plain = run_child(workload_args(args, 0), deadline)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}-{stamp}.json"
    traced = run_child(workload_args(args, 1, spans), deadline)
    values = dict(traced["layers"])
    for cid, seconds in plain["claim_seconds"].items():
        values[f"verify.claim_s.{cid}"] = seconds
    values["verify.entries_changed"] = plain["entries_changed"]
    values["trace.overhead_frac"] = traced["passes"][0] / statistics.median(plain["passes"]) - 1
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in per_layer_units().items()}
    record = {"untraced": plain, "traced": traced, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one vcodes benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "vcodes" / "__init__.py", BENCH / "golden" / "claims.json") if not p.is_file()]
    if missing:
        print(f"error: not a vcodes checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, record = per_layer(args, deadline, stamp)
        else:
            metrics, record = end_to_end(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    children = [v for v in record.values() if isinstance(v, dict) and "attempted" in v]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c.get("coverage_problems", [])]
    for line in [f for c in children for f in c["failures"]] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    line = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(
        {
            "args": vars(args),
            "environment": environment(),
            "ops_failed_frac": failed / attempted if attempted else 1.0,
            "result": line,
        }
    )
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
