"""The repository's own tools, run on inline samples."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os


def f(a,
      b):
    """A function docstring."""
    x = (a +  # a trailing comment
         b)

    return os.path.join(
        x,
        "y",
    )


class C:
    """A class docstring."""

    text = """a string that
    is not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    code_lines = _load("code_lines")
    # the import, f's two-line header, the two-line assignment, the
    # four-line call, the class line and the two-line string
    assert sorted(code_lines.code_lines(SAMPLE)) == [
        5, 8, 9, 11, 12, 14, 15, 16, 17, 20, 23, 24]
    assert code_lines.definition_lines(SAMPLE) == {"f": 8, "C": 3}
