"""Shared helpers: corpus loading and commonly used example systems."""

import pathlib

import pytest

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


@pytest.fixture
def example1():
    """Three-component ordered system generating {a^(2^n) | n >= 0} in
    maximal-derivation mode."""
    return load_corpus("ocdgs_example1.rrw")


@pytest.fixture
def entry_witness():
    """Entry-condition system generating {a^(2^n)} under >=k for every k."""
    return load_corpus("entry_witness.rrw")
