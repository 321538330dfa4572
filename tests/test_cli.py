import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vcodes.cli import main
from vcodes.fileio import format_code_file, parse_code_file, parse_matrix_file, parse_ring_matrix_file
from vcodes.errors import ParamMismatch, ParseError
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gray_command(capsys):
    rc, out, _ = run(capsys, "gray", "--q", "3", "--element", "[1,0,2]")
    assert rc == 0
    assert out.strip() == "[1,0,0] weight 1"


def test_gray_command_json(capsys):
    rc, out, _ = run(capsys, "gray", "--q", "3", "--element", "1+2v", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["gray"] == [1, 1, 2] and obj["lee_weight"] == 3


def test_python_dash_m_runs_the_cli(capsys):
    root = Path(__file__).resolve().parents[1]
    argv = ["gray", "--q", "3", "--element", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "vcodes", *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    rc, out, _ = run(capsys, *argv)
    assert done.returncode == 0 == rc
    assert done.stdout == out


def test_weight_command(capsys):
    rc, out, _ = run(capsys, "weight", "--q", "2", "--element", "v")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run(capsys, "weight", "--q", "2", "--vector", "[0,1,0] 1+v")
    assert rc == 0 and out.strip() == "4"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "gray", "--q", "3")[0] == 2
    assert run(capsys, "cyclic", "--q", "3", "--n", "2")[0] == 2


def test_options_a_command_does_not_read_are_usage_errors(tmp_path, capsys):
    matrix = tmp_path / "sym.txt"
    matrix.write_text("q=3 n=2\n1 2\n2 1\n")
    assert run(capsys, "construct", "a", "--matrix-file", str(matrix))[0] == 0  # the same file alone is fine
    for argv in (
        ("gray", "--q", "3", "--element", "1", "--seed", "1"),
        ("cyclic", "--q", "3", "--n", "2", "--search-self-dual", "--budget", "9"),
        ("construct", "a", "--matrix-file", str(matrix), "--first-row", "1 2", "--alpha", "1", "--q", "5"),
        ("construct", "b", "--q", "3", "--first-row", "1 2", "--matrix-file", "/nonexistent"),
        ("construct", "c", "--q", "3", "--first-row", "1 2", "--alpha", "1"),  # c reads --omega too
        ("cyclic", "--q", "3", "--n", "2", "--search-self-dual", "--f1", "x+1", "--mode", "paper-literal"),
        ("cyclic", "--q", "3", "--n", "2", "--search-self-dual", "--mode", "idempotent"),
    ):
        rc, out, _ = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv


def test_cyclic_search_refuses_a_factor_too_large_to_find(capsys):
    # x^47 - 1 over GF(3) has two irreducible factors of degree 23
    rc, out, err = run(capsys, "cyclic", "--q", "3", "--n", "47", "--search-self-dual")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "degree 23" in err


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "gray", "--q", "3", "--element", "[1,2,5]")
    assert rc == 1 and "error" in err


@pytest.mark.parametrize("element", ["1+2*", "*v", "\u0663v"])
def test_element_typos_are_one_line_errors(capsys, element):
    rc, out, err = run(capsys, "gray", "--q", "5", "--element", element)
    assert rc == 1 and out == ""
    assert err.startswith("error: bad element term ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(("gray", "--q", "\u0663", "--element", "1"), "--q", id="q-arabic-indic-digit"),
        pytest.param(("cyclic", "--q", "3", "--n", "1_0", "--search-self-dual"), "--n", id="n-underscore"),
        pytest.param(("verify-paper", "--seed", "\u0664\u0662", "--scope", "gray"), "--seed", id="seed-arabic-indic-digits"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, option):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: argument {option}: invalid int value: {argv[argv.index(option) + 1]!r}\n")


def test_integer_options_allow_a_sign_and_surrounding_whitespace(capsys):
    assert run(capsys, "gray", "--q", " +3 ", "--element", "1")[:2] == (0, "[1,1,0] weight 2\n")


def test_matrix_entry_with_an_underscore_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("q=3 n=2\n1_0 2\n")
    rc, out, err = run(capsys, "dual", "--matrix", str(path))
    assert rc == 1 and out == ""
    assert err == "error: bad matrix entry '1_0', expected an integer mod q\n"


def test_ring_too_large_to_tabulate_is_a_one_line_error(capsys):
    rc, out, err = run(capsys, "gray", "--q", "131", "--element", "1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "131" in err


_BELOW_ONE_CASES = {  # id prefix -> the cyclic arguments besides --n
    "": ["--q", "3", "--f1", "x+2", "--f2", "1", "--f3", "1"],
    "q3-search:": ["--q", "3", "--search-self-dual"],
    "q2-search:": ["--q", "2", "--search-self-dual"],  # walks R^n, not x^n - 1
}


@pytest.mark.parametrize(
    "n,rest",
    [pytest.param(n, rest, id=tag + n) for tag, rest in _BELOW_ONE_CASES.items() for n in ("0", "-1")],
)
def test_cyclic_length_below_one_is_a_one_line_error(capsys, n, rest):
    rc, out, err = run(capsys, "cyclic", "--n", n, *rest)
    assert rc == 1 and out == ""
    assert err == "error: n must be >= 1\n"


def test_enum_command(tmp_path, capsys):
    code_file = tmp_path / "code.txt"
    code_file.write_text("q=2 n=1\n[0,1,0]\n")
    rc, out, _ = run(capsys, "enum", "--kind", "lee", "--code", str(code_file), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"counts": {"0": 1, "1": 2, "2": 1}, "kind": "lee", "n": 1}


@pytest.mark.parametrize("kind", ["swe", "cwe"])
def test_enum_command_tally_kinds_keep_their_json_bytes(tmp_path, capsys, kind):
    code_file = tmp_path / "code.txt"
    code_file.write_text("q=3 n=3\n[1,0,0] [0,1,0] [1,1,2]\n")
    rc, out, _ = run(capsys, "enum", "--kind", kind, "--code", str(code_file), "--format", "json")
    assert rc == 0
    assert out == (Path(__file__).parent / "data" / f"enum_q3_{kind}.json").read_text()


def test_dual_command_code_file(tmp_path, capsys):
    code_file = tmp_path / "code.txt"
    code_file.write_text("q=3 n=2\n[1,0,0] [1,0,0]\n")
    rc, out, _ = run(capsys, "dual", "--code", str(code_file), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["size"] == 27 and obj["dual_size"] == 27
    ring = ring_over(3)
    dual = LinearCodeR(ring, 2, [[ring.parse(e).idx for e in g] for g in obj["dual_generators"]])
    assert dual.contains([1, ring.neg(1)])


def test_dual_command_prints_a_basis_at_q2(tmp_path, capsys):
    code_file = tmp_path / "code.txt"
    code_file.write_text("q=2 n=3\n1 0 v\n")
    rc, out, _ = run(capsys, "dual", "--code", str(code_file), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["size"] == 8 and obj["dual_size"] == 64
    assert len(obj["dual_generators"]) <= 3 * 3
    ring = ring_over(2)
    dual = LinearCodeR(ring, 3, [[ring.parse(e).idx for e in g] for g in obj["dual_generators"]])
    assert dual.size == 64 and dual.contains([0, 1, 0])


def test_dual_command_matrix_file(tmp_path, capsys):
    mfile = tmp_path / "mat.txt"
    mfile.write_text("q=3 n=3\n1 1 1\n")
    rc, out, _ = run(capsys, "dual", "--matrix", str(mfile), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["k"] == 1 and obj["dual_k"] == 2


def test_cyclic_command(capsys):
    rc, out, _ = run(
        capsys, "cyclic", "--q", "3", "--n", "2", "--f1", "x+2", "--f2", "x+1", "--f3", "1", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["size"] == 81 == obj["size_formula"]
    assert obj["is_cyclic"] is True


def test_cyclic_search_command(capsys):
    rc, out, _ = run(capsys, "cyclic", "--q", "3", "--n", "2", "--search-self-dual", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"exhausted": True, "tested": 64, "witness": None}
    rc, out, _ = run(capsys, "cyclic", "--q", "2", "--n", "2", "--search-self-dual", "--format", "json")
    obj = json.loads(out)
    assert obj["witness"] is not None and obj["exhausted"]


def test_construct_a_command(tmp_path, capsys):
    mfile = tmp_path / "sym.txt"
    mfile.write_text("q=3 n=2\n[0,1,0] [1,0,0]\n[1,0,0] [2,0,0]\n")
    rc, out, _ = run(capsys, "construct", "a", "--matrix-file", str(mfile), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["isodual_witness_check"] is True
    assert obj["formally_self_dual"] is True
    assert obj["length"] == 4
    assert obj["gray_parameters"][0] == 12 and obj["gray_parameters"][1] == 6


def test_construct_b_command(capsys):
    rc, out, _ = run(
        capsys, "construct", "b", "--q", "3", "--first-row", "[1,1,0] [0,2,0]", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["isodual_witness_check"] is True and obj["formally_self_dual"] is True


def test_construct_c_command(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "c", "--q", "3", "--alpha", "1", "--omega", "v",
        "--first-row", "1+v", "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["isodual_witness_check"] is True and obj["formally_self_dual"] is True
    assert obj["length"] == 4


def test_construct_rejects_asymmetric_matrix(tmp_path, capsys):
    mfile = tmp_path / "bad.txt"
    mfile.write_text("q=3 n=2\n[0,1,0] [1,0,0]\n[2,0,0] [2,0,0]\n")
    rc, _, err = run(capsys, "construct", "a", "--matrix-file", str(mfile))
    assert rc == 1 and "error" in err


def test_verify_paper_scope_gray(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify-paper", "--scope", "gray", "--seed", "42", "--format", "json", "--out", str(out_file)
    )
    assert rc == 0
    report = json.loads(out_file.read_text())
    ids = {e["claim_id"] for e in report["entries"]}
    assert "thm2-weight-preserving" in ids and "lee-table-audit" in ids
    statuses = {e["claim_id"]: e["status"] for e in report["entries"]}
    assert statuses["thm2-weight-preserving"] == "confirmed"
    assert statuses["thm6-dual-gray-image"] == "confirmed"
    assert statuses["lee-table-audit"] == "refuted"


def test_verify_paper_text_is_reproducible_and_timed_only_on_request(capsys):
    argv = ("verify-paper", "--scope", "enumerators", "--seed", "42")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert "(60 checks)" in first[1] and not re.search(r"\d\.\d\ds\)", first[1])
    rc, timed, _ = run(capsys, *argv, "--timings")
    assert rc == 0 and re.search(r"\(60 checks, \d+\.\d\ds\)", timed)


def test_verify_paper_over_budget_claim_is_untestable(capsys):
    # Brouwer-Zimmermann meets ex13's and ex17's distances within 72 codewords;
    # ex15 needs 360 (its component codes reach round 2)
    rc, out, err = run(capsys, "verify-paper", "--scope", "examples", "--budget", "100", "--format", "json")
    assert rc == 0 and not err
    entries = {e["claim_id"]: e for e in json.loads(out)["entries"]}
    assert set(entries) == {"ex13-symmetric", "ex15-double-circulant", "ex17-bordered"}
    ex15 = entries["ex15-double-circulant"]
    assert ex15["status"] == "untestable" and ex15["tested"] == 0
    assert ex15["note"] == "360 codewords exceeds budget 100"
    assert entries["ex13-symmetric"]["status"] == "refuted"
    assert entries["ex13-symmetric"]["tested"] > 0


def test_code_file_roundtrip():
    ring = ring_over(3)
    code = LinearCodeR(ring, 2, [[1, ring.q], [ring.q**2, 2]])
    text = format_code_file(code)
    assert text == "q=3 n=2\n[1,0,0] [0,1,0]\n[0,0,1] [2,0,0]\n"
    back = parse_code_file(text)
    assert back == code
    assert parse_code_file("q=3 n=0\n") == LinearCodeR(ring, 0, [])
    with pytest.raises(ParseError, match="generator has 1 entries"):
        parse_code_file("q=3 n=2\n[1,0,0]\n")


# (reader, file text, error type, message): a bad header or q fails before any row is read
FILE_ERROR_TABLE = [
    (parse_matrix_file, "", ParseError, "empty file"),
    (parse_matrix_file, "n=2 q=3\n1 2\n", ParseError, "bad header 'n=2 q=3', expected 'q=<q> n=<n>'"),
    (parse_matrix_file, "q=4 n=2\n1 x\n", ParamMismatch, "q must be prime, got 4"),
    (parse_matrix_file, "q=3 n=2\n1 2 0\n", ParseError, "row has 3 entries, expected 2"),
    (parse_matrix_file, "q=3 n=2\n1 x\n", ParseError, "bad matrix entry 'x', expected an integer mod q"),
    (parse_matrix_file, "q=3 n=2\n1 2.0\n", ParseError, "bad matrix entry '2.0', expected an integer mod q"),
    (parse_code_file, "# only a comment\n", ParseError, "empty file"),
    (parse_code_file, "q 3 n 2\n", ParseError, "bad header 'q 3 n 2', expected 'q=<q> n=<n>'"),
    (parse_code_file, "q=4 n=1\n[9,9,9]\n", ParamMismatch, "q must be prime, got 4"),
    (parse_code_file, "q=3 n=2\n[1,0,0]\n", ParseError, "generator has 1 entries, expected 2"),
    (parse_code_file, "q=3 n=1\n1.5\n", ParseError, "bad element term '1.5'"),
    (parse_ring_matrix_file, "q=3 n=2\n1 0 0\n0 1\n", ParseError, "matrix row has 3 entries, expected 2"),
    (parse_ring_matrix_file, "q=3 n=2\n1 0\n", ParseError, "matrix has 1 rows, expected 2"),
    (parse_matrix_file, "q=3 n=2\n1 \u0662\n", ParseError, "bad matrix entry '\u0662', expected an integer mod q"),
    (parse_matrix_file, "q=\u0663 n=2\n1 2\n", ParseError, "bad header 'q=\u0663 n=2', expected 'q=<q> n=<n>'"),
]


@pytest.mark.parametrize(
    "reader,text,error,message", [pytest.param(*row, id=f"{row[0].__name__}:{i}") for i, row in enumerate(FILE_ERROR_TABLE)]
)
def test_file_errors(reader, text, error, message):
    with pytest.raises(error) as exc:
        reader(text)
    assert str(exc.value) == message


def test_matrix_file_entries_are_integers_mod_q():
    field, n, mat = parse_matrix_file("q=3 n=2\n7 -1\n")
    assert (field.q, n, mat.tolist()) == (3, 2, [[1, 2]])
    assert parse_matrix_file("q=3 n=2\n")[2].shape == (0, 2)


def test_matrix_file_with_a_non_integer_entry_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("q=3 n=2\n1 x\n")
    rc, out, err = run(capsys, "dual", "--matrix", str(path))
    assert rc == 1 and out == ""
    assert err == "error: bad matrix entry 'x', expected an integer mod q\n"


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        parse_matrix_file("n=2 q=3\n1 2\n")
    with pytest.raises(ParseError):
        parse_matrix_file("q=3 n=2\n1 2 3\n")
