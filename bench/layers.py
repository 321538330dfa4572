"""Which vcodes calls the tracer wraps, and the per-layer metrics built from them.

A layer is a vcodes module.  Each traced entry point below is a public
function or method that does bulk work; element-level helpers (``Ring.mul``,
``Poly.divides``, ...) stay unwrapped so their time lands in the entry point
that called them.  Every metric ``<layer>.<x>_s`` is the summed self time of
the spans listed for it; counts come from span counts or from the ``work``
each span recorded (rows in, words yielded, pairs joined, bytes allocated).

Claim times come from ``VerificationEntry.seconds`` and not from spans,
because ``verify.CLAIMS`` holds the claim functions themselves.
"""

from __future__ import annotations

import importlib
import pkgutil

from tracer import Tracer, package_modules

PACKAGE = "vcodes"


def _rows_in(args, kwargs, result):
    return len(args[0])


def _ambient_words(args, kwargs, result):
    code = args[0]
    return code.ring.size**code.n


def _table_bytes(args, kwargs, result):
    space = args[0]
    return sum(int(getattr(space, a).nbytes) for a in ("decode", "vec_add", "vec_smul", "vec_shift"))


def _result_len(args, kwargs, result):
    return len(result)


def _one(item):
    return 1


# (module, class or None, attribute, measure) -- measure gives a span's work
ENTRY_POINTS = (
    ("gf", None, "monic_divisors_of_xn_minus_1", None),
    ("gf", None, "factor_xn_minus_1", None),
    ("ring", "Ring", "__init__", None),
    ("fieldcode", None, "rref", _rows_in),
    ("fieldcode", "LinearCodeFq", "codeword_chunks", len),
    ("fieldcode", "LinearCodeFq", "dual", None),
    ("fieldcode", "LinearCodeFq", "min_distance", None),
    ("fieldcode", "LinearCodeFq", "weight_counts", None),
    ("ringcode", "LinearCodeR", "__init__", None),
    ("ringcode", "LinearCodeR", "codeword_chunks", len),
    ("ringcode", "LinearCodeR", "dual", None),
    ("ringcode", "LinearCodeR", "brute_force_dual", _ambient_words),
    ("ringcode", "LinearCodeR", "min_lee_distance", None),
    ("wenum", None, "lee_enumerator", None),
    ("wenum", None, "hamming_enumerator_r", None),
    ("wenum", None, "symmetrized_enumerator", None),
    ("wenum", None, "complete_enumerator", None),
    ("wenum", None, "specialize", None),
    ("wenum", None, "macwilliams_counts", None),
    ("wenum", None, "macwilliams_lee", None),
    ("wenum", None, "macwilliams_hamming_fq", None),
    ("cyclic", None, "self_dual_cyclic_search", None),
    ("cyclic", None, "all_divisor_triples", _one),
    ("cyclic", None, "cyclic_code_r", None),
    ("cyclic", None, "cyclic_dual_r", None),
    ("cyclic", None, "is_cyclic_r", None),
    ("submodules", "AmbientSpace", "__init__", _table_bytes),
    ("submodules", "AmbientSpace", "join", None),
    ("submodules", "AmbientSpace", "dual_set", None),
    ("submodules", "AmbientSpace", "cyclic_span", None),
    ("submodules", "AmbientSpace", "principal_ideal", None),
    ("submodules", "AmbientSpace", "all_submodules", _result_len),
    ("submodules", "AmbientSpace", "all_ideals", _result_len),
    ("fsd", None, "isodual_witness_check", None),
    ("fsd", None, "is_formally_self_dual", None),
    ("fsd", None, "has_odd_lee_word", None),
    ("fsd", None, "odd_fsd_search", None),
    ("fsd", None, "gray_fsd_transfer", None),
    ("fsd", None, "direct_product", None),
    ("verify", None, "run_verification_suite", None),
)

JOIN = "submodules.AmbientSpace.join"
WALKS = ("submodules.AmbientSpace.all_submodules", "submodules.AmbientSpace.all_ideals")
DISTANCES = ("ringcode.LinearCodeR.min_lee_distance", "fieldcode.LinearCodeFq.min_distance")
ENUMS = ("ringcode.LinearCodeR.codeword_chunks", "fieldcode.LinearCodeFq.codeword_chunks")
RING_DUAL = "ringcode.LinearCodeR.dual"
BRUTE_DUAL = "ringcode.LinearCodeR.brute_force_dual"

# metric -> (unit, span names whose self time or count it sums, what to sum)
SPAN_METRICS = {
    "ring.build_s": ("s", ("ring.Ring.__init__",), "self_s"),
    "ring.builds": ("count", ("ring.Ring.__init__",), "spans"),
    "gf.divisor_s": ("s", ("gf.monic_divisors_of_xn_minus_1", "gf.factor_xn_minus_1"), "self_s"),
    "gf.divisor_calls": ("count", ("gf.monic_divisors_of_xn_minus_1",), "spans"),
    "fieldcode.rref_s": ("s", ("fieldcode.rref",), "self_s"),
    "fieldcode.rref_calls": ("count", ("fieldcode.rref",), "spans"),
    "fieldcode.rref_rows": ("count", ("fieldcode.rref",), "work"),
    "fieldcode.enum_s": ("s", ("fieldcode.LinearCodeFq.codeword_chunks",), "self_s"),
    "fieldcode.words": ("count", ("fieldcode.LinearCodeFq.codeword_chunks",), "work"),
    "fieldcode.dual_s": ("s", ("fieldcode.LinearCodeFq.dual",), "self_s"),
    "fieldcode.dual_calls": ("count", ("fieldcode.LinearCodeFq.dual",), "spans"),
    "ringcode.enum_s": ("s", ("ringcode.LinearCodeR.codeword_chunks",), "self_s"),
    "ringcode.words": ("count", ("ringcode.LinearCodeR.codeword_chunks",), "work"),
    "ringcode.distance_s": ("s", ("ringcode.LinearCodeR.min_lee_distance",), "self_s"),
    "ringcode.distance_calls": ("count", ("ringcode.LinearCodeR.min_lee_distance",), "spans"),
    "ringcode.dual_s": ("s", (RING_DUAL, BRUTE_DUAL), "self_s"),
    "ringcode.brute_ambient_words": ("count", (BRUTE_DUAL,), "work"),
    "ringcode.build_s": ("s", ("ringcode.LinearCodeR.__init__",), "self_s"),
    "ringcode.codes_built": ("count", ("ringcode.LinearCodeR.__init__",), "spans"),
    "wenum.macwilliams_s": (
        "s",
        ("wenum.macwilliams_counts", "wenum.macwilliams_lee", "wenum.macwilliams_hamming_fq"),
        "self_s",
    ),
    "wenum.macwilliams_calls": ("count", ("wenum.macwilliams_counts",), "spans"),
    "cyclic.search_s": ("s", ("cyclic.self_dual_cyclic_search", "cyclic.all_divisor_triples"), "self_s"),
    "cyclic.triples": ("count", ("cyclic.all_divisor_triples",), "work"),
    "cyclic.build_s": ("s", ("cyclic.cyclic_code_r", "cyclic.cyclic_dual_r"), "self_s"),
    "cyclic.is_cyclic_s": ("s", ("cyclic.is_cyclic_r",), "self_s"),
    "submodules.join_s": ("s", (JOIN,), "self_s"),
    "submodules.joins": ("count", (JOIN,), "spans"),
    "submodules.join_pairs": ("count", (JOIN,), "work"),
    "submodules.walk_s": (
        "s",
        WALKS + ("submodules.AmbientSpace.cyclic_span", "submodules.AmbientSpace.principal_ideal"),
        "self_s",
    ),
    "submodules.lattice_nodes": ("count", WALKS, "work"),
    "submodules.dual_set_s": ("s", ("submodules.AmbientSpace.dual_set",), "self_s"),
    "submodules.ambient_build_s": ("s", ("submodules.AmbientSpace.__init__",), "self_s"),
    "submodules.ambient_builds": ("count", ("submodules.AmbientSpace.__init__",), "spans"),
    "submodules.table_bytes": ("count", ("submodules.AmbientSpace.__init__",), "work"),
    "fsd.witness_s": ("s", ("fsd.isodual_witness_check",), "self_s"),
    "fsd.witness_checks": ("count", ("fsd.isodual_witness_check",), "spans"),
    "fsd.fsd_s": ("s", ("fsd.is_formally_self_dual", "fsd.has_odd_lee_word"), "self_s"),
    "fsd.fsd_checks": ("count", ("fsd.is_formally_self_dual",), "spans"),
    "fsd.search_s": ("s", ("fsd.odd_fsd_search",), "self_s"),
}
for _kind, _fn in (
    ("lee", "lee_enumerator"),
    ("hamming", "hamming_enumerator_r"),
    ("swe", "symmetrized_enumerator"),
    ("cwe", "complete_enumerator"),
):
    SPAN_METRICS[f"wenum.enum_s.{_kind}"] = ("s", (f"wenum.{_fn}",), "self_s")
    SPAN_METRICS[f"wenum.enum_calls.{_kind}"] = ("count", (f"wenum.{_fn}",), "spans")

# metrics derived from the span tree rather than summed per name
DERIVED_METRICS = {
    "fieldcode.words_per_s": "1/s",
    "ringcode.words_per_s": "1/s",
    "ringcode.words_per_distance": "count",
    "ringcode.dual_calls.crt": "count",
    "ringcode.dual_calls.brute": "count",
    "submodules.join_new_frac": "1",
}

# layers each workload must reach, and layers it must not touch at all
COVERAGE = {
    "claims-lattice": {
        "must": ("gf", "ring", "fieldcode", "ringcode", "wenum", "cyclic", "submodules", "fsd", "verify"),
        "never": (),
    },
    "claims-distance": {
        "must": ("ring", "fieldcode", "ringcode", "wenum", "fsd", "verify"),
        "never": ("submodules",),
    },
    "library-codes": {
        "must": ("ring", "fieldcode", "ringcode", "wenum"),
        "never": ("submodules", "cyclic", "fsd", "verify"),
    },
}


def import_all():
    """Import vcodes and every submodule so patching sees every binding."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return package


def install(tracer: Tracer) -> list:
    """Wrap every entry point; returns the package modules that were scanned."""
    import_all()
    modules = package_modules(PACKAGE)
    novelty: dict[int, set] = {}

    def join_measure(args, kwargs, result):
        seen = novelty.setdefault(tracer.stack[-1] if tracer.stack else -1, {b"\0" * 8})
        key = result.tobytes()
        if key not in seen:
            seen.add(key)
            tracer.count("join_new")
        return len(args[1]) * len(args[2])

    for module_name, cls_name, attr, measure in ENTRY_POINTS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        owner = getattr(module, cls_name) if cls_name else module
        name = ".".join(p for p in (module_name, cls_name, attr) if p)
        if name == JOIN:
            measure = join_measure
        tracer.patch(modules, owner, attr, name, measure)
    return modules


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def span_metrics(tracer: Tracer, runs) -> dict[str, float]:
    """Every span-based per-layer metric over the given run ids."""
    summary: dict[str, dict] = {}
    for run in runs:
        for name, s in tracer.summary(run).items():
            acc = summary.setdefault(name, {"self_s": 0.0, "spans": 0, "work": 0})
            for k in acc:
                acc[k] += s[k]
    out: dict[str, float] = {}
    for metric, (_unit, names, field) in SPAN_METRICS.items():
        out[metric] = sum(summary.get(n, {}).get(field, 0) for n in names)
    out["fieldcode.words_per_s"] = _rate(out["fieldcode.words"], out["fieldcode.enum_s"])
    out["ringcode.words_per_s"] = _rate(out["ringcode.words"], out["ringcode.enum_s"])

    names, parents = tracer.names, tracer.parents
    in_runs = set(runs)

    def ancestors(i):
        p = parents[i]
        while p >= 0:
            yield p
            p = parents[p]

    distance_words = 0
    outer_distances = 0
    brute_under_dual: set[int] = set()
    dual_calls = 0
    for i, name in enumerate(names):
        if tracer.runs[i] not in in_runs:
            continue
        if name in ENUMS and any(names[a] in DISTANCES for a in ancestors(i)):
            distance_words += tracer.work[i]
        elif name in DISTANCES and not any(names[a] in DISTANCES for a in ancestors(i)):
            outer_distances += 1
        elif name == RING_DUAL:
            dual_calls += 1
        elif name == BRUTE_DUAL and parents[i] >= 0 and names[parents[i]] == RING_DUAL:
            brute_under_dual.add(parents[i])
    out["ringcode.words_per_distance"] = _rate(distance_words, outer_distances)
    out["ringcode.dual_calls.brute"] = len(brute_under_dual)
    out["ringcode.dual_calls.crt"] = dual_calls - len(brute_under_dual)
    joins = out["submodules.joins"]
    new = sum(tracer.counts.get((run, "join_new"), 0) for run in runs)
    out["submodules.join_new_frac"] = _rate(new, joins)
    return out


def _rate(num, den) -> float:
    return num / den if den else 0.0


def coverage_problems(tracer: Tracer, workload: str, modules) -> list[str]:
    """Why the trace cannot be trusted for this workload; empty when it can."""
    problems = [f"unpatched binding {b}" for b in tracer.unpatched_bindings(modules)]
    calls: dict[str, int] = {}
    for name in tracer.names:
        layer = layer_of(name)
        calls[layer] = calls.get(layer, 0) + 1
    expect = COVERAGE[workload]
    problems += [f"no calls recorded in layer {layer}" for layer in expect["must"] if not calls.get(layer)]
    problems += [
        f"{calls[layer]} calls recorded in layer {layer}, which this workload must bypass"
        for layer in expect["never"]
        if calls.get(layer)
    ]
    return problems
