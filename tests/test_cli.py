import hashlib
import json
import os
import subprocess
import sys

import pytest

import cartaninv.cli as cli
import cartaninv.invariants as inv
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


def test_usage_errors(capsys, tmp_path):
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
    # a negative degree bound, degree or size is an error in every suite and
    # matrix kind, with a message naming it
    for argv, message in [
        ("verify snf --ell 4 --dmax -1", "--dmax must be >= 0"),
        ("verify reduction --ell 4 --dmax -2", "--dmax must be >= 0"),
        ("verify splitting --a 2 --b 3 --dmax -1", "--dmax must be >= 0"),
        ("verify snf --ell 4 --d -1", "d must be >= 0"),
        ("verify reduction --ell 3 --d -1", "d must be >= 0"),
        ("verify kor --ell 4 --n -1", "n must be >= 0"),
        ("matrix X_ell --ell 4 --d -1", "d must be >= 0"),
        ("matrix X_A --ell 3 --d -1", "d must be >= 0"),
        ("matrix B_ell --ell 3 --d -1", "d must be >= 0"),
        ("matrix M_pm --d -1", "d must be >= 0"),
        # an ell below 2 is named by its own flag in every suite
        ("verify snf --ell 1", "ell must be >= 2"),
        ("verify det --ell 1", "ell must be >= 2"),
        ("verify reduction --ell 1", "ell must be >= 2"),
        ("verify kor --ell 1", "ell must be >= 2"),
        ("invariants --ell 1 --n 3", "ell must be >= 2"),
        # the series layer checks the truncation order before any output
        ("verify series --order 600", "order must lie in 0..512"),
        ("verify all --order 600", "order must lie in 0..512"),
        ("series --name P --order 600", "order must lie in 0..512"),
        ("verify series --order -1", "order must lie in 0..512"),
    ]:
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == "" and message in err, argv
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
    # matrix and series reject a flag the kind or name does not read, in
    # either format, instead of ignoring it and echoing it in params
    for argv, flag in [
        ("matrix M_pm --ell 7 --d 2", "--ell"),
        ("series --name P --ell 4 --k 3", "ell"),
        ("series --name P --k 3", "k"),
        ("series --name P^k --k 3 --ell 4", "ell"),
        ("series --name D0_ell --ell 6 --k 2", "k"),
    ]:
        for fmt in ("table", "json"):
            code, out, err = run(capsys, *argv.split(), "--format", fmt)
            assert code == 1 and out == "" and f"does not take {flag}" in err, \
                (argv, fmt)
    # a golden directory that cannot be created is an error, not a traceback
    existing = tmp_path / "golden"
    existing.write_text("")
    code, out, err = run(capsys, "seed-tables", "--dir", str(existing))
    assert code == 1 and out == "" and "error:" in err


# stdout sha256 of whole runs; verify all, verify kor and the n = 200
# invariants are also pinned by perfbench/run.py
STDOUT_DIGESTS = {
    "verify all":
        "05a3c8d2817b5f4a0f97fb68199aa15500be220de66bce91128a78c88cc67b7d",
    "verify kor --ell 6 --n 55":
        "1a8836698810a13d7ce2b861047cdf51d39275e0b4602a3135b7b268f693b414",
    "invariants --ell 6 --n 200":
        "eada695c4d4e430f067000d17b012cefefd9eaad8ffaee09a71a48dcec2f9fb9",
    "invariants --ell 6 --n 18 --format json":
        "a723b16ecca271116b335ffb873b73049cc9a0cec394878962e1e16e4d63cc09",
    "matrix X_A --ell 4 --d 2 --snf --format json":
        "f59621888cf8517bb8f7e3f339cf6bceff15df2db8ca5ccd634cb8eb4a5fb648",
    "verify reduction --ell 3 --d 2 --format json":
        "9a21ea249926159f09d3a54adb4653621a9d14c8f29a90273ffe4b4fa53acfb4",
    # odd ell: the d = 1 witness determinants are -1
    "verify reduction --ell 5 --dmax 3 --format json":
        "1576300547e28af4fca28b49db9b225bd1f20be79e2e7ba954347e6b4d74f237",
    "matrix M_pm --d 12":
        "5de609f7d44eb3be33b158552875037b41ce8c816b52b9a2584eaf7898c21b05",
    "matrix X_ell --ell 6 --d 12":
        "f37406daf8d9cf97ba67d389d4d6ea10330f466c82722eb85742ed1a8c2ea9d2",
    "matrix X_A --ell 4 --d 3":
        "609a4826a9c1049d217943f5787b36b05b7784c14955b449a1d58afe05b39929",
    "invariants --ell 6 --weight 4":
        "f9c23bca6fa99417b8a3ad4df1f6e6486e9d1b2b949ef5c86aee2aeb6ae82cf6",
    "invariants --ell 6 --weight 4 --format json":
        "35e5e5e3f99f8a247bbdebf9335961577f910f5da591f4629ccf3e8631637901",
    "matrix X_A --ell 4 --d 3 --format json":
        "2c6dc3e526c41f412bedcc1e32cccf45a23bb68a9ba7afb9bb0a07c78f79369b",
    "series --name P_ell --ell 3 --order 40 --format json":
        "bf59b0196253d6226e6f560c7c6a681d0bc781b3743eeb18f7e5b5ff8e414731",
    "verify all --format json":
        "1ddccc105cc8bf6415c4eeb1ec6d9d9719cf9e1cf0665ba412d988fb7f90f928",
}


def test_stdout_digests(capsys):
    for line, digest in STDOUT_DIGESTS.items():
        code, out, _ = run(capsys, *line.split())
        assert code == 0, line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


# modules a command process need not load: dataclasses pulls in inspect, ast,
# dis and tokenize, fractions pulls in decimal, and json serves only the json
# format
UNUSED_AT_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
                    "decimal", "json", "typing"}


def test_import_footprint():
    # without site, which may import typing itself, importing the CLI loads
    # none of them; fractions comes in with the first Matrix.inverse
    script = ("import sys, cartaninv.cli\n"
              "print(' '.join(sorted(sys.modules)))\n"
              "cartaninv.cli.inv.Matrix([[2]]).inverse()\n"
              "print('fractions' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded, inverse_loads = out.splitlines()
    assert "cartaninv.cli" in loaded.split()
    assert not UNUSED_AT_IMPORT & set(loaded.split())
    assert inverse_loads == "True"


def test_size_guard_exit(capsys, monkeypatch):
    # a request past a size guard fails before any matrix is built, even
    # when the smaller degrees of its range are inside the guards
    builds = []
    for module, name in [(inv, "transition_tensor"), (inv, "length_power_diagonal"),
                         (inv, "smith_normal_form"), (cli, "transition_p_to_m")]:
        monkeypatch.setattr(module, name, lambda *a, name=name: builds.append(name))
    for argv, labels in [
        ("matrix X_ell --ell 4 --d 30", "5604 labels, exceeding the bound 1000"),
        ("matrix M_pm --d 22", "1002 labels, exceeding the bound 1000"),
        ("matrix B_ell --ell 2 --d 40", "37338 labels, exceeding the bound 1000"),
        ("verify det --ell 4 --dmax 22", "1002 labels, exceeding the bound 1000"),
        ("verify snf --ell 4 --dmax 22", "1002 labels, exceeding the bound 1000"),
        ("verify splitting --a 2 --b 3 --dmax 22", "1002 labels, exceeding the bound 1000"),
        ("verify reduction --ell 6 --dmax 8", "6765 labels, exceeding the bound 3000"),
        ("verify reduction --ell 2 --d 22", "1002 labels, exceeding the bound 1000"),
    ]:
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == "" and labels in err, argv
    assert builds == []


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
    # degrees 0 and 1: M_pm has no prime p <= d to bound, X_ell the bound 0
    for argv in ("matrix M_pm --d 0 --snf", "matrix M_pm --d 1 --snf",
                 "matrix X_ell --ell 4 --d 0 --snf"):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out == "1\n", argv
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
    # a huge k builds its power chain in a loop, not by deep recursion
    k = 2 ** 2000 - 1
    code, out, _ = run(capsys, "series", "--name", "P^k", "--k", str(k), "--order", "1")
    assert code == 0 and out == f"1 {k}\n"


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


def test_verifiers_read_graded_multiset(capsys, monkeypatch):
    # verify snf and verify det take the closed form from the graded
    # multiset, which evaluates it on one-size partitions k^m only, not
    # partition by partition
    graded_invariant = inv.graded_invariant

    def refuse(ell, d):
        raise AssertionError(f"graded_invariants({ell}, {d}) evaluated per partition")

    def one_size(lam, ell):
        assert len(set(lam.parts)) <= 1, lam
        return graded_invariant(lam, ell)

    monkeypatch.setattr(inv, "graded_invariants", refuse)
    monkeypatch.setattr(inv, "graded_invariant", one_size)
    for argv in ("verify snf --ell 4 --dmax 8", "verify snf --ell 12 --d 6",
                 "verify det --ell 6 --dmax 9"):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and "refuted" not in out and "mismatch" not in out, argv


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
