"""Every demo script runs to completion."""

import pathlib
import runpy

import pytest

DEMOS_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(p.name for p in DEMOS_DIR.glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS_DIR / name), run_name="__main__")
    assert capsys.readouterr().out
