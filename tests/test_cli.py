"""Tests for the command-line front end."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rrw
from rrw.cli import main

from conftest import CORPUS_DIR

EXAMPLE1 = str(CORPUS_DIR / "ocdgs_example1.rrw")
WITNESS = str(CORPUS_DIR / "entry_witness.rrw")
FRCCD = str(CORPUS_DIR / "frccd_small.rrw")
PCD = str(CORPUS_DIR / "pcd_chain.rrw")
GC_CHOICE = str(CORPUS_DIR / "gc_choice.rrw")
GC_FIN = str(CORPUS_DIR / "gc_fin.rrw")


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_parse_reports_shape(capsys):
    status, out, _ = run_cli(capsys, "parse", EXAMPLE1)
    assert status == 0
    assert "ocdgs system example1" in out
    assert "3 components" in out


def test_enum_prints_shortlex_words(capsys):
    status, out, _ = run_cli(
        capsys, "enum", EXAMPLE1, "--mode", "t", "--max-len", "8",
        "--workspace", "8",
    )
    assert status == 0
    assert out.splitlines() == ["a", "aa", "aaaa", "aaaaaaaa"]


def test_enum_incomplete_exits_3(capsys):
    status, _, err = run_cli(
        capsys, "enum", str(CORPUS_DIR / "cf_star.rrw"),
        "--mode", "*", "--max-len", "2", "--workspace", "2",
    )
    assert status == 3
    assert "INCOMPLETE" in err


def test_derive_found_and_not_found(capsys):
    status, out, _ = run_cli(
        capsys, "derive", EXAMPLE1, "--mode", "t", "--word", "aaaa",
        "--trace",
    )
    assert status == 0
    assert "derivable in 6 activation(s)" in out
    status, out, _ = run_cli(
        capsys, "derive", EXAMPLE1, "--mode", "t", "--word", "aaa"
    )
    assert status == 1


def test_transform_writes_parseable_document(capsys, tmp_path):
    target = tmp_path / "out.rrw"
    status, _, err = run_cli(
        capsys, "transform", EXAMPLE1, "--construction", "ord-to-frc",
        "-o", str(target),
    )
    assert status == 0
    assert "construction ord-to-frc" in err
    from rrw import parse_system

    assert parse_system(target.read_text()).kind == "frccdgs"


def test_transform_mode_rejection_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "transform", FRCCD, "--construction", "frccd-merge",
        "--mode", ">=2",
    )
    assert status == 2
    assert "error:" in err


def test_equiv_equal_and_unequal(capsys):
    status, out, _ = run_cli(
        capsys, "equiv", EXAMPLE1, WITNESS,
        "--mode-a", "t", "--mode-b", ">=2", "--max-len", "8",
        "--workspace", "8",
    )
    assert status == 0
    status, out, _ = run_cli(
        capsys, "equiv", EXAMPLE1, str(CORPUS_DIR / "cf_anbn.rrw"),
        "--mode-a", "t", "--mode-b", "*", "--max-len", "6",
    )
    assert status == 1
    assert "only in" in out


def test_nonempty_report(capsys):
    status, out, _ = run_cli(capsys, "nonempty", EXAMPLE1)
    assert status == 0
    assert "P3" in out


def test_missing_file_exits_2(capsys):
    status, _, err = run_cli(capsys, "enum", "no_such_file.rrw",
                             "--mode", "t", "--max-len", "4")
    assert status == 2


def test_bad_mode_exits_2(capsys):
    status, _, _ = run_cli(capsys, "enum", EXAMPLE1,
                           "--mode", "banana", "--max-len", "4")
    assert status == 2


def test_json_output_is_deterministic(capsys):
    argv = ["enum", EXAMPLE1, "--mode", "t", "--max-len", "8",
            "--workspace", "8", "--json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["words"] == ["a", "aa", "aaaa", "aaaaaaaa"]
    assert doc["complete"] is True
    assert doc["elapsed_ms"] is None


def test_json_schema_fields(capsys):
    _, out, _ = run_cli(
        capsys, "equiv", EXAMPLE1, EXAMPLE1, "--mode", "t",
        "--max-len", "6", "--workspace", "6", "--json",
    )
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "verdict", "complete",
                        "elapsed_ms"}
    assert doc["verdict"]["equal"] is True


def test_derive_trace_json_ignores_the_hash_seed():
    src = str(pathlib.Path(rrw.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "rrw.cli", "derive",
            str(CORPUS_DIR / "cdgs_pair.rrw"), "--mode", "=1", "--word", "aa",
            "--trace", "--json"]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["verdict"]["derivable"] is True


def test_gc_derive_starved_form_budget_exits_3(capsys):
    status, _, err = run_cli(capsys, "derive", GC_CHOICE, "--word", "aa",
                             "--form-budget", "1")
    assert status == 3
    assert "error:" in err
    status, _, _ = run_cli(capsys, "enum", GC_CHOICE, "--max-len", "4",
                           "--form-budget", "1")
    assert status == 3


def test_gc_derive_non_member_exits_1(capsys):
    status, out, _ = run_cli(capsys, "derive", GC_CHOICE, "--word", "ab")
    assert status == 1
    assert "not derivable" in out
    status, _, _ = run_cli(capsys, "derive", GC_CHOICE, "--word", "bb")
    assert status == 0


def test_gc_enum_needs_no_mode(capsys):
    status, out, _ = run_cli(capsys, "enum", GC_FIN, "--max-len", "4",
                             "--json")
    assert status == 0
    assert json.loads(out)["words"] == ["aa"]
    # a given mode is still accepted, and ignored
    status, out, _ = run_cli(capsys, "enum", GC_FIN, "--mode", "*",
                             "--max-len", "4", "--json")
    assert status == 0
    assert json.loads(out)["words"] == ["aa"]


def test_gc_equiv_needs_no_mode(capsys):
    status, out, _ = run_cli(capsys, "equiv", GC_FIN, GC_CHOICE,
                             "--max-len", "4")
    assert status == 1
    assert "only in B" in out
