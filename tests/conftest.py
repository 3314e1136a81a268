"""Shared helpers: corpus loading and commonly used example systems."""

import os
import pathlib
import subprocess
import sys

import pytest

import rrw
from rrw import parse_system

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS_DIR.glob("*.rrw"))

# the modes a construction is tried in, against its declared contract
MODE_GRID = ("t", "*", "=1", "=2", "=3", "=4", "<=2", "<=3", ">=1", ">=2",
             ">=3")


def load_corpus(name):
    path = CORPUS_DIR / name
    return parse_system(path.read_text(encoding="utf-8"))


def corpus_text(name):
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def fresh_python(*argv, **env):
    """stdout of ``python argv`` in a new interpreter that imports this
    checkout's rrw."""
    src = str(pathlib.Path(rrw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, check=True).stdout


@pytest.fixture
def example1():
    """Three-component ordered system generating {a^(2^n) | n >= 0} in
    maximal-derivation mode."""
    return load_corpus("ocdgs_example1.rrw")


@pytest.fixture
def entry_witness():
    """Entry-condition system generating {a^(2^n)} under >=k for every k."""
    return load_corpus("entry_witness.rrw")
