import json

import pytest

from vcodes.cli import main
from vcodes.fileio import format_code_file, parse_code_file, parse_matrix_file
from vcodes.errors import ParseError
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


def test_weight_command(capsys):
    rc, out, _ = run(capsys, "weight", "--q", "2", "--element", "v")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run(capsys, "weight", "--q", "2", "--vector", "[0,1,0] 1+v")
    assert rc == 0 and out.strip() == "4"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "gray", "--q", "3")[0] == 2
    assert run(capsys, "cyclic", "--q", "3", "--n", "2")[0] == 2


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "gray", "--q", "3", "--element", "[1,2,5]")
    assert rc == 1 and "error" in err


def test_ring_too_large_to_tabulate_is_a_one_line_error(capsys):
    rc, out, err = run(capsys, "gray", "--q", "131", "--element", "1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "131" in err


def test_enum_command(tmp_path, capsys):
    code_file = tmp_path / "code.txt"
    code_file.write_text("q=2 n=1\n[0,1,0]\n")
    rc, out, _ = run(capsys, "enum", "--kind", "lee", "--code", str(code_file), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"counts": {"0": 1, "1": 2, "2": 1}, "kind": "lee", "n": 1}


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
    back = parse_code_file(format_code_file(code))
    assert back == code


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        parse_matrix_file("n=2 q=3\n1 2\n")
    with pytest.raises(ParseError):
        parse_matrix_file("q=3 n=2\n1 2 3\n")
