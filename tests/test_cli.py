import hashlib
import json
import os

import pytest

from cartaninv.cli import GOLDEN_FILES, golden_text, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_block_invariants_output(capsys):
    code, out, _ = run(capsys, "invariants", "--ell", "4", "--weight", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total multiset: 32^1 4^2 2^1 1^5"


def test_full_invariants_breakdowns(capsys):
    code, out, _ = run(capsys, "invariants", "--ell", "6", "--n", "18")
    assert code == 0
    assert "0 | 1 | 40×1+14×5+4×20+1×32=222" in out
    assert "1 | 6 | 14×1+4×5+1×20=54" in out
    assert "2 | 3, 72 | 4×1+1×5=9" in out
    assert "3 | 2, 18, 1296 | 1×1=1" in out


def test_json_table_parity(capsys):
    code, table_out, _ = run(capsys, "invariants", "--ell", "6", "--n", "12")
    assert code == 0
    code, json_out, _ = run(capsys, "invariants", "--ell", "6", "--n", "12",
                            "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["command"] == "invariants"
    assert payload["params"] == {"ell": 6, "n": 12}
    # rebuild the aggregate multiset from the json entries and compare with
    # the table's total line
    agg = {}
    for e in payload["entries"]:
        v = int(e["value"])
        agg[v] = agg.get(v, 0) + e["multiplicity"]
    total_line = table_out.strip().splitlines()[-1]
    rendered = " ".join(
        f"{v}^{m}" for v, m in sorted(agg.items(), reverse=True))
    assert total_line == "total multiset: " + rendered


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "invariants", "--ell", "6", "--n", "18",
                     "--format", "json")
    _, out2, _ = run(capsys, "invariants", "--ell", "6", "--n", "18",
                     "--format", "json")
    assert out1 == out2


def test_usage_errors(capsys):
    code, _, err = run(capsys, "invariants", "--ell", "4")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "invariants", "--ell", "4", "--n", "8",
                       "--weight", "2")
    assert code == 1
    code, _, err = run(capsys, "verify", "nope")
    assert code == 1
    code, _, err = run(capsys, "series", "--name", "bogus")
    assert code == 1
    code, _, err = run(capsys, "matrix", "X_ell", "--d", "2")
    assert code == 1 and "requires --ell" in err
    # the label-count guards are fixed, and --order belongs to verify and series
    code, _, err = run(capsys, "matrix", "X_ell", "--ell", "4", "--d", "2",
                       "--max-partitions", "5")
    assert code == 1 and "unrecognized" in err
    code, _, err = run(capsys, "invariants", "--ell", "4", "--n", "3",
                       "--order", "5")
    assert code == 1 and "unrecognized" in err
    # verify det checks degrees 0..d_max: an empty range or a single --d is
    # an error, not a vacuous or silently widened run
    code, out, err = run(capsys, "verify", "det", "--ell", "4", "--dmax", "-1")
    assert code == 1 and out == "" and "d_max" in err
    code, out, err = run(capsys, "verify", "det", "--ell", "4", "--d", "3")
    assert code == 1 and out == "" and "--dmax" in err
    # every suite rejects a flag it does not read, or one given without its
    # key flags, instead of silently running its default grid
    for argv, flag in [
        ("splitting --a 2", "--b"),
        ("splitting --ell 5", "--ell"),
        ("kor --ell 4 --d 3", "--d"),
        ("snf --n 3", "--n"),
        ("snf --d 3", "--ell"),
        ("snf --ell 4 --d 2 --dmax 5", "--dmax"),
        ("all --ell 3", "--ell"),
        ("series --ell 4", "--ell"),
        ("snf --ell 4 --order 5", "--order"),
        ("det --dmax 5", "--ell"),
    ]:
        code, out, err = run(capsys, "verify", *argv.split())
        assert code == 1 and out == "" and flag in err, argv


# stdout sha256 of whole runs; verify all is also pinned by perfbench/run.py
STDOUT_DIGESTS = {
    "verify all":
        "05a3c8d2817b5f4a0f97fb68199aa15500be220de66bce91128a78c88cc67b7d",
    "invariants --ell 6 --n 18 --format json":
        "a723b16ecca271116b335ffb873b73049cc9a0cec394878962e1e16e4d63cc09",
    "matrix X_A --ell 4 --d 2 --snf --format json":
        "f59621888cf8517bb8f7e3f339cf6bceff15df2db8ca5ccd634cb8eb4a5fb648",
    "verify reduction --ell 3 --d 2 --format json":
        "9a21ea249926159f09d3a54adb4653621a9d14c8f29a90273ffe4b4fa53acfb4",
}


def test_stdout_digests(capsys):
    for line, digest in STDOUT_DIGESTS.items():
        code, out, _ = run(capsys, *line.split())
        assert code == 0, line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


def test_size_guard_exit(capsys):
    code, _, err = run(capsys, "matrix", "X_ell", "--ell", "4", "--d", "30")
    assert code == 1
    assert "exceeding" in err


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "X_ell", "--ell", "4", "--d", "2")
    assert code == 0
    assert out.strip() == "[[4, 0], [6, 16]]"
    code, out, _ = run(capsys, "matrix", "X_ell", "--ell", "4", "--d", "2",
                       "--snf")
    assert out.strip() == "2, 32"
    code, out, _ = run(capsys, "matrix", "M_pm", "--d", "3")
    assert out.strip() == "[[1, 0, 0], [1, 1, 0], [1, 3, 6]]"
    code, out, _ = run(capsys, "matrix", "X_A", "--ell", "4", "--d", "2",
                       "--snf")
    assert out.strip() == "1, 1, 1, 1, 1, 2, 4, 4, 32"
    code, out, _ = run(capsys, "matrix", "B_ell", "--ell", "4", "--d", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["matrix"] == [["4", "0"], ["0", "16"]]


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--name", "P", "--order", "6")
    assert code == 0
    assert out.strip() == "1 1 2 3 5 7 11"
    code, out, _ = run(capsys, "series", "--name", "P^k", "--k", "4",
                       "--order", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "4", "14", "40"]


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "kor", "--ell", "4", "--n", "8")
    assert code == 0
    assert "[verified] kor-multiset ell=4 n=8" in out
    code, out, _ = run(capsys, "verify", "snf", "--ell", "4", "--d", "2")
    assert code == 0
    assert out.count("snf-closed-form") == 1
    code, out, _ = run(capsys, "verify", "snf", "--ell", "8", "--dmax", "3")
    assert code == 0  # unproven-match is a success status
    assert "unproven-match" in out
    code, out, _ = run(capsys, "verify", "series", "--order", "40")
    assert code == 0
    assert "summary: verified=" in out


def test_exit_code_mapping():
    from cartaninv.cli import (
        EXIT_OK,
        EXIT_REFUTED,
        EXIT_UNPROVEN_MISMATCH,
        _exit_code,
    )

    assert _exit_code({"verified": 3}) == EXIT_OK
    assert _exit_code({"verified": 3, "unproven-match": 2}) == EXIT_OK
    assert _exit_code({"unproven-mismatch": 1}) == EXIT_UNPROVEN_MISMATCH
    assert _exit_code({"refuted": 1, "unproven-mismatch": 1}) == EXIT_REFUTED


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "reduction", "--ell", "3",
                       "--dmax", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    for report in payload["report"]:
        assert set(report) == {"claim", "status", "params", "witness"}
        assert report["status"] == "verified"


def test_golden_files_current(tmp_path):
    # the checked-in golden files must match a fresh computation
    for filename, (kind, ell, param) in GOLDEN_FILES.items():
        path = os.path.join(GOLDEN_DIR, filename)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == golden_text(kind, ell, param), filename


def test_seed_tables_reproducible(tmp_path, capsys):
    out_dir = tmp_path / "golden"
    code, _, _ = run(capsys, "seed-tables", "--dir", str(out_dir))
    assert code == 0
    for filename in GOLDEN_FILES:
        with open(out_dir / filename, encoding="utf-8") as fh:
            fresh = fh.read()
        with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
            committed = fh.read()
        assert fresh == committed, filename


def test_golden_file_schema():
    # one entry per line: value multiplicity degree, all decimal
    for filename in GOLDEN_FILES:
        with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
            for line in fh.read().strip().splitlines():
                value, mult, degree = line.split()
                assert int(value) >= 1
                assert int(mult) >= 1
                assert int(degree) >= 0
