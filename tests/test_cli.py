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


@pytest.mark.parametrize("mode", ["*", ">=1"])
def test_enum_of_every_power_up_to_16_is_complete(capsys, mode):
    # under these modes ocdgs_example1 derives every a^n; its activations
    # over one letter are assembled on multisets
    status, out, _ = run_cli(capsys, "enum", EXAMPLE1, "--mode", mode,
                             "--max-len", "16", "--json")
    assert status == 0
    result = json.loads(out)
    assert result["complete"]
    assert result["words"] == ["a" * n for n in range(1, 17)]


def test_enum_incomplete_exits_3(capsys):
    status, _, err = run_cli(
        capsys, "enum", str(CORPUS_DIR / "cf_star.rrw"),
        "--mode", "*", "--max-len", "2", "--workspace", "2",
    )
    assert status == 3
    assert "INCOMPLETE" in err


def test_enum_of_an_erasing_system_is_complete(capsys):
    # every form that the default workspace cuts weighs more than max_len
    status, out, err = run_cli(
        capsys, "enum", str(CORPUS_DIR / "cf_star.rrw"),
        "--mode", "*", "--max-len", "6",
    )
    assert status == 0
    assert out.splitlines() == ["eps"] + ["a" * n for n in range(1, 7)]
    assert "# 7 word(s), complete" in err


@pytest.mark.parametrize("word", ["aa", "aaaa"])
def test_derive_in_an_erasing_system_decides_not_derivable(capsys, word):
    # under =2 cf_star derives the odd powers of a only, and no cut form
    # weighs at most len(word)
    status, out, _ = run_cli(
        capsys, "derive", str(CORPUS_DIR / "cf_star.rrw"), "--mode", "=2",
        "--word", word,
    )
    assert status == 1
    assert "not derivable" in out


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


def test_derive_takes_no_max_len(capsys):
    # derive bounds its search by the word, so --max-len is unknown there
    with pytest.raises(SystemExit) as err:
        main(["derive", EXAMPLE1, "--mode", "t", "--word", "aa",
              "--max-len", "4"])
    assert err.value.code == 2
    assert "unrecognized arguments: --max-len 4" in capsys.readouterr().err
    status, out, _ = run_cli(capsys, "derive", EXAMPLE1, "--mode", "t",
                             "--word", "aa", "--json")
    assert status == 0
    assert json.loads(out)["params"]["maxLen"] is None


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


@pytest.mark.parametrize("argv", [
    ("ordered_chain.rrw", "--construction", "ocdgs-t-to-ord", "--mode", "=2"),
    ("frccd_small.rrw", "--construction", "frc-to-ord", "--mode", "t"),
    ("frccd_small.rrw", "--construction", "frccd-merge", "--mode", "*",
     "--compact"),
    ("entry_witness.rrw", "--construction", "cdfrc-eq2-to-eqk", "--mode",
     "=3"),
])
def test_transform_outside_the_contract_exits_2(capsys, argv):
    status, out, err = run_cli(capsys, "transform",
                               str(CORPUS_DIR / argv[0]), *argv[1:])
    assert status == 2
    assert out == ""
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


@pytest.mark.parametrize("command, files, max_len", [
    ("enum", ["cf_anbn.rrw"], "-1"),
    ("enum", ["cf_star.rrw"], "-1"),
    ("enum", ["cf_star.rrw"], "-2"),
    ("equiv", ["cf_anbn.rrw", "cf_star.rrw"], "-1"),
])
def test_negative_max_len_exits_2(capsys, command, files, max_len):
    paths = [str(CORPUS_DIR / f) for f in files]
    status, out, err = run_cli(capsys, command, *paths, "--mode", "*",
                               "--max-len", max_len)
    assert status == 2
    assert out == ""
    assert "max_len must be >= 0" in err


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


def fresh_python(*argv, **env):
    """stdout of ``python argv`` in a new interpreter that imports this
    checkout's rrw."""
    src = str(pathlib.Path(rrw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, check=True).stdout


def test_derive_trace_json_ignores_the_hash_seed():
    argv = ["-m", "rrw.cli", "derive", str(CORPUS_DIR / "cdgs_pair.rrw"),
            "--mode", "=1", "--word", "aa", "--trace", "--json"]
    outputs = [fresh_python(*argv, PYTHONHASHSEED=seed) for seed in "01"]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["verdict"]["derivable"] is True


COUNT_PARSER_BUILDS = """
import argparse, contextlib, io, sys

built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    if self.prog == "rrw":  # not a sub-parser
        built.append(self)

argparse.ArgumentParser.__init__ = counting
import rrw.cli
print(len(built))
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        rrw.cli.main(["parse", sys.argv[1]])
print(len(built))
"""


def test_main_builds_its_parser_once_and_import_builds_none():
    out = fresh_python("-c", COUNT_PARSER_BUILDS, EXAMPLE1)
    assert out.split() == [b"0", b"1"]


def test_calls_that_reuse_the_parser_are_independent(capsys):
    # each call starts from the parser's defaults, whatever the calls
    # before it gave or failed to parse
    calls = [
        ("enum", EXAMPLE1, "--mode", "*", "--max-len", "6",
         "--workspace", "8", "--json"),
        ("enum", EXAMPLE1, "--mode", "*", "--max-len", "6", "--json"),
        ("enum", EXAMPLE1, "--mode", "*"),
        ("--help",),
        ("derive", EXAMPLE1, "--mode", "t", "--word", "aaaa", "--trace",
         "--json"),
        ("transform", EXAMPLE1, "--construction", "ord-to-frc", "--json"),
    ]

    def run(argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        return status, capsys.readouterr().out

    first = [run(argv) for argv in calls]
    assert [run(argv) for argv in calls] == first
    assert [status for status, _ in first] == [0, 0, 2, 0, 0, 0]
    assert json.loads(first[0][1])["params"]["workspace"] == 8
    assert json.loads(first[1][1])["params"]["workspace"] == 16
    assert first[3][1].startswith("usage: rrw ")
    derive = fresh_python("-m", "rrw.cli", *calls[4])
    assert derive.decode("utf-8") == first[4][1]


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


def test_enum_default_workspace_is_clamped_to_max_len(capsys):
    status, out, _ = run_cli(capsys, "enum", EXAMPLE1, "--mode", "*",
                             "--max-len", "6", "--json")
    assert status == 0
    doc = json.loads(out)
    assert doc["words"] == ["a" * n for n in range(1, 7)]
    assert doc["complete"] is True
    # the workspace asked for (here the default) is reported, not the clamp
    assert doc["params"]["workspace"] == 16


@pytest.mark.parametrize("n", (1, 2, 4, 8))
def test_derive_trace_is_the_same_at_the_word_length_workspace(capsys, n):
    docs = []
    for workspace in (None, n):
        extra = () if workspace is None else ("--workspace", str(workspace))
        status, out, _ = run_cli(capsys, "derive", EXAMPLE1, "--mode", "t",
                                 "--word", "a" * n, "--trace", "--json",
                                 *extra)
        assert status == 0
        doc = json.loads(out)
        assert doc["params"].pop("workspace") == (workspace or 2 * n + 4)
        docs.append(json.dumps(doc, sort_keys=True, indent=2))
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["verdict"]["derivable"] is True


def test_transform_reports_the_mode_given_to_a_mode_free_construction(
        capsys):
    status, _, err = run_cli(capsys, "transform",
                             str(CORPUS_DIR / "frccd_pair.rrw"),
                             "--construction", "frc-to-ord", "--mode", "=2")
    assert status == 0
    assert "modes: =2 -> =2" in err


@pytest.mark.parametrize("word, status, text", [
    ("eps", 1, "not derivable within the given bounds"),
    ("a a", 0, "derivable in 4 activation(s)"),
    ("A", 0, "derivable in 0 activation(s)"),  # the start symbol
    ("q", 2, "error: cannot read word 'q' over the alphabet"),
    ("a q", 2, "error: unknown symbol 'q' in word"),
], ids=["eps", "spaced", "start", "unknown", "unknown-spaced"])
def test_derive_reads_the_word(capsys, word, status, text):
    got, out, err = run_cli(capsys, "derive", EXAMPLE1, "--mode", "t",
                            "--word", word)
    assert got == status
    assert text in (out + err).splitlines()


def test_derive_reads_a_symbol_of_several_letters(capsys, tmp_path):
    doc = tmp_path / "multi.rrw"
    doc.write_text("system cf multi\nnonterminals: S\nterminals: ab c\n"
                   "start: S\ncomponent P { S -> ab }\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "derive", str(doc), "--mode", "t",
                             "--word", "ab", "--trace")
    assert status == 0
    assert out.splitlines() == ["derivable in 1 activation(s)", "S",
                                "  =P=> ab"]


def test_enum_without_a_mode_or_a_default_exits_2(capsys):
    status, out, err = run_cli(capsys, "enum", EXAMPLE1, "--max-len", "4")
    assert status == 2
    assert out == ""
    assert "error: --mode is required (the document declares no default)" \
        in err


def test_transform_of_a_system_where_no_rule_pair_can_fire(capsys, tmp_path):
    doc = tmp_path / "dead.rrw"
    doc.write_text("system frccdgs dead\nnonterminals: S A\n"
                   "terminals: a b\nstart: S\n"
                   "component P1 { S -> S b forbid { S } }\n",
                   encoding="utf-8")
    status, out, _ = run_cli(capsys, "transform", str(doc), "--construction",
                             "frccd-eq2-to-cdfrc", "--mode", "=2")
    assert status == 0
    assert rrw.parse_system(out).kind == "entry-cdgs"


def test_derive_of_a_word_heavier_than_its_length(capsys, tmp_path):
    # S => B C => B, and B weighs 3: the cut of B C at workspace 1 may hide
    # the word, so the search is cut, not exhaustive
    doc = tmp_path / "nt.rrw"
    doc.write_text("system cf t\nnonterminals: S B C\nterminals: a\n"
                   "start: S\ncomponent P {\nS -> B C\nC -> eps\n"
                   "B -> a a a\n}\n", encoding="utf-8")
    argv = ("derive", str(doc), "--mode", "=1", "--word", "B")
    status, _, err = run_cli(capsys, *argv, "--workspace", "1")
    assert status == 3
    assert "was cut by the bounds" in err
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    assert "derivable in 2 activation(s)" in out


def test_budget_exits_of_enum_and_derive_exit_3(capsys, tmp_path):
    # the product assembly of P2 on A A A A runs out of forms; the trace of
    # a found derivation cannot be rebuilt within the form budget, though
    # the step budget that let the search find it is enough
    four = tmp_path / "four.rrw"
    four.write_text("system cdgs four\nnonterminals: S A\nterminals: a b\n"
                    "start: S\ncomponent P1 { S -> A A A A }\n"
                    "component P2 { A -> a\n A -> b }\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "enum", str(four), "--mode", "*",
                             "--max-len", "4", "--form-budget", "10")
    assert status == 3
    assert "INCOMPLETE" in err
    chain = tmp_path / "chain.rrw"
    chain.write_text("system cdgs chain\nnonterminals: S A B C D\n"
                     "terminals: a\nstart: S\ncomponent P1 { S -> A A A A }\n"
                     "component P2 { A -> B\n B -> C\n C -> D\n D -> a }\n",
                     encoding="utf-8")
    status, _, err = run_cli(capsys, "derive", str(chain), "--mode", "t",
                             "--word", "aaaa", "--form-budget", "10")
    assert status == 3
    assert "could not rebuild the P2 activation" in err
    status, _, _ = run_cli(capsys, "derive", str(chain), "--mode", "t",
                           "--word", "aaaa", "--step-budget", "10")
    assert status == 0


def test_parse_json_reports_the_shape(capsys):
    status, out, _ = run_cli(capsys, "parse", EXAMPLE1, "--json")
    assert status == 0
    report = json.loads(out)["report"]
    assert report["kind"] == "ocdgs"
    assert [c["name"] for c in report["components"]] == ["P1", "P2", "P3"]
    assert report["gcRules"] == 0


def test_nonempty_json_and_graph_control(capsys):
    status, out, _ = run_cli(capsys, "nonempty", EXAMPLE1, "--json")
    assert status == 0
    report = json.loads(out)["report"]
    assert [entry["component"] for entry in report] == ["P1", "P2", "P3"]
    status, out, _ = run_cli(capsys, "nonempty", GC_CHOICE)
    assert status == 0
    assert out == "P: nonempty for A, S\n"


def test_the_readme_synopsis_lists_every_option():
    # each subcommand's synopsis line names every option string that its
    # parser takes, help aside
    import argparse
    import re

    from rrw.cli import _build_parser

    readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line tool", 1)[1].split("```")[1]
    lines = {line.split()[1]: line for line in block.strip().splitlines()}
    sub, = (action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert set(lines) == set(sub.choices)
    for name, parser in sub.choices.items():
        listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", lines[name]))
        options = {option for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings}
        assert options <= listed, (name, sorted(options - listed))
