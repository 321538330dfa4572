"""Command line interface.

Subcommands: gray, weight, dual, enum, cyclic, construct, verify-paper.
Exit codes: 0 success, 1 a requested verification failed or a library error
occurred, 2 usage error.  The verify-paper report treats disagreements with
the source text as first-class results, so it exits 0 whenever the suite
ran to completion; read the statuses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import wenum
from .cyclic import CyclicSpecR, cyclic_code_r, is_cyclic_r, self_dual_cyclic_search
from .errors import DEFAULT_BUDGET, VCodesError
from .fileio import (
    format_code_file,
    format_field_code,
    parse_code_file,
    parse_matrix_file,
    parse_ring_matrix_file,
    parse_vector,
)
from .fsd import (
    BorderedSpecR,
    CirculantSpecR,
    SymmetricMatrixR,
    construction_a,
    construction_b,
    construction_c,
    is_formally_self_dual,
    isodual_witness_check,
)
from .gf import parse_poly
from .fieldcode import LinearCodeFq
from .ring import format_elem, format_row, parse_elem, ring_over
from .verify import SCOPES, run_verification_suite

_ENUM_BUILDERS = {
    "lee": wenum.lee_enumerator,
    "hamming": wenum.hamming_enumerator_r,
    "swe": wenum.symmetrized_enumerator,
    "cwe": wenum.complete_enumerator,
}


def _int(text: str) -> int:
    """An integer option in ASCII digits with an optional sign; ``int`` alone
    would also read other scripts' digits and underscores."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcodes",
        description="linear codes over F_q[v]/(v^3 - v): Gray maps, Lee weights, "
        "duals, enumerators, cyclic and formally self-dual constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --format for every subcommand; --budget for those that enumerate codewords
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    enumerating = argparse.ArgumentParser(add_help=False, parents=[output])
    enumerating.add_argument("--budget", type=_int, default=DEFAULT_BUDGET)

    p = sub.add_parser("gray", parents=[output], help="Gray image and Lee weight of one element")
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--element", required=True)

    p = sub.add_parser("weight", parents=[output], help="Lee weight of an element or a vector")
    p.add_argument("--q", type=_int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--element")
    g.add_argument("--vector", help="whitespace-separated elements")

    p = sub.add_parser("dual", parents=[output], help="dual of a code file (over R) or matrix file (over GF(q))")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--code", help="code file over R")
    g.add_argument("--matrix", help="generator matrix file over GF(q)")

    p = sub.add_parser("enum", parents=[enumerating], help="weight enumerator of a code over R")
    p.add_argument("--kind", choices=tuple(_ENUM_BUILDERS), default="lee")
    p.add_argument("--code", required=True)

    p = sub.add_parser("cyclic", parents=[output], help="cyclic code from a divisor triple, or self-dual search")
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--f1")
    p.add_argument("--f2")
    p.add_argument("--f3")
    p.add_argument("--mode", choices=("idempotent", "paper-literal"), help="default idempotent")
    p.add_argument("--search-self-dual", action="store_true", help="takes none of --f1/--f2/--f3/--mode")

    p = sub.add_parser("construct", help="formally self-dual constructions")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("a", parents=[enumerating], help="[I_n | A] from a symmetric matrix over R")
    k.add_argument("--matrix-file", required=True, help="symmetric matrix over R")
    circulant = argparse.ArgumentParser(add_help=False, parents=[enumerating])
    circulant.add_argument("--q", type=_int, required=True)
    circulant.add_argument("--first-row", required=True, help="circulant first row")
    kinds.add_parser("b", parents=[circulant], help="double circulant")
    k = kinds.add_parser("c", parents=[circulant], help="bordered double circulant")
    k.add_argument("--alpha", required=True, help="border corner")
    k.add_argument("--omega", required=True, help="border edge")

    p = sub.add_parser("verify-paper", parents=[enumerating], help="run the claim verification suite")
    p.add_argument("--seed", type=_int, default=42)
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--timings", action="store_true", help="include wall-clock seconds (not byte-reproducible)")

    return parser


def _emit(args, obj, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_gray(args) -> int:
    ring = ring_over(args.q)
    x = parse_elem(ring, args.element)
    g = x.gray()
    _emit(
        args,
        {"element": format_elem(x), "gray": list(g), "lee_weight": x.lee_weight()},
        [f"[{g[0]},{g[1]},{g[2]}] weight {x.lee_weight()}"],
    )
    return 0


def _cmd_weight(args) -> int:
    ring = ring_over(args.q)
    if args.element is not None:
        w = parse_elem(ring, args.element).lee_weight()
    else:
        vec = parse_vector(ring, args.vector)
        w = sum(int(ring.lee_table[x]) for x in vec)
    _emit(args, {"lee_weight": w}, [str(w)])
    return 0


def _cmd_dual(args) -> int:
    if args.code:
        code = parse_code_file(Path(args.code).read_text())
        dual = code.dual()
        obj = {
            "q": code.ring.q,
            "n": code.n,
            "size": code.size,
            "dual_size": dual.size,
            "dual_generators": [format_row(code.ring, g) for g in dual.gens],
        }
        _emit(args, obj, [f"|C| = {code.size}  |C^dual| = {dual.size}", format_code_file(dual).rstrip()])
    else:
        field, n, mat = parse_matrix_file(Path(args.matrix).read_text())
        code = LinearCodeFq(field, n, mat)
        dual = code.dual()
        obj = {
            "q": field.q,
            "n": n,
            "k": code.k,
            "dual_k": dual.k,
            "dual_generators": dual.gen.tolist(),
        }
        _emit(args, obj, [f"[{n},{code.k}] -> dual [{n},{dual.k}]", format_field_code(dual).rstrip()])
    return 0


def _cmd_enum(args) -> int:
    code = parse_code_file(Path(args.code).read_text())
    enum = _ENUM_BUILDERS[args.kind](code, args.budget)
    obj = enum.to_json_obj()
    _emit(args, obj, [f"{args.kind} counts over |C| = {enum.total()}:"] + [
        f"  {k}: {v}" for k, v in sorted(obj["counts"].items(), key=lambda kv: kv[0])
    ])
    return 0


def _cmd_cyclic(args) -> int:
    unread = [f"--{name}" for name in ("f1", "f2", "f3", "mode") if getattr(args, name) is not None]
    if args.search_self_dual and unread:
        print(f"cyclic: --search-self-dual reads no {'/'.join(unread)}", file=sys.stderr)
        return 2
    if not (args.search_self_dual or (args.f1 and args.f2 and args.f3)):
        print("cyclic: --f1/--f2/--f3 required unless --search-self-dual", file=sys.stderr)
        return 2
    ring = ring_over(args.q)
    if args.search_self_dual:
        res = self_dual_cyclic_search(ring, args.n)
        witness = res["witness"]
        wobj = None if witness is None else {"generators": [format_row(ring, g) for g in witness.gens]}
        obj = {"witness": wobj, "exhausted": res["exhausted"], "tested": res["tested"]}
        _emit(args, obj, [json.dumps(obj, sort_keys=True)])
        return 0
    field, mode = ring.field, args.mode or "idempotent"
    spec = CyclicSpecR(args.n, parse_poly(field, args.f1), parse_poly(field, args.f2), parse_poly(field, args.f3))
    code = cyclic_code_r(ring, spec, mode)
    obj = {
        "q": args.q,
        "n": args.n,
        "mode": mode,
        "size": code.size,
        "size_formula": spec.size_formula(args.q),
        "is_cyclic": is_cyclic_r(code),
        "generators": [format_row(ring, g) for g in code.gens],
    }
    _emit(args, obj, [f"|C| = {code.size} (formula {obj['size_formula']}), cyclic: {obj['is_cyclic']}"])
    return 0


def _cmd_construct(args) -> int:
    if args.kind == "a":
        ring, rows = parse_ring_matrix_file(Path(args.matrix_file).read_text())
        code, witness = construction_a(ring, SymmetricMatrixR(ring, rows))
    else:
        ring = ring_over(args.q)
        circulant = CirculantSpecR(ring, parse_vector(ring, args.first_row))
        if args.kind == "b":
            code, witness = construction_b(ring, circulant)
        else:
            border = (parse_elem(ring, args.alpha).idx, parse_elem(ring, args.omega).idx)
            code, witness = construction_c(ring, BorderedSpecR(ring, *border, circulant))

    ok = isodual_witness_check(code, witness)
    obj = {
        "q": code.ring.q,
        "length": code.n,
        "generators": [format_row(code.ring, g) for g in code.gens],
        "witness": witness.to_json_obj(),
        "isodual_witness_check": ok,
    }
    if code.size <= args.budget:
        obj["formally_self_dual"] = is_formally_self_dual(code, args.budget)
        image = code.gray_image()
        obj["gray_parameters"] = [image.n, image.k, image.min_distance(args.budget)]
    _emit(
        args,
        obj,
        [
            f"length {code.n} over q={code.ring.q}, |C| = {code.size}",
            f"isodual witness check: {ok}",
        ]
        + ([f"formally self-dual: {obj['formally_self_dual']}", f"gray image: {obj['gray_parameters']}"] if "formally_self_dual" in obj else []),
    )
    return 0 if ok and obj.get("formally_self_dual", True) else 1


def _cmd_verify(args) -> int:
    report = run_verification_suite(scope=args.scope, seed=args.seed, budget=args.budget)
    render = report.to_json if args.format == "json" else report.to_text
    payload = render(include_timings=args.timings)
    if args.out:
        Path(args.out).write_text(payload + ("\n" if not payload.endswith("\n") else ""))
        print(f"report written to {args.out}")
    else:
        print(payload)
    return 0


_COMMANDS = {
    "gray": _cmd_gray,
    "weight": _cmd_weight,
    "dual": _cmd_dual,
    "enum": _cmd_enum,
    "cyclic": _cmd_cyclic,
    "construct": _cmd_construct,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", 1) < 1:  # admits no enumeration
            parser.error(f"argument --budget: must be at least 1, not {args.budget}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (VCodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
