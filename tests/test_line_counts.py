"""The line split of scripts/line_counts.py on a fixed snippet."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_counts.py"

SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a trailing comment makes no comment line

# a comment line


class Record:
    """One-line class docstring."""

    def area(self, r):
        """Method docstring

        with a blank line inside, which counts as docstring.
        """
        text = """a string that is no docstring
        spans code lines"""
        return math.pi * r * r
'''


@pytest.fixture(scope="module")
def line_counts():
    spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_counts_each_kind_once(line_counts):
    counts = line_counts.split(SNIPPET)
    assert counts == {"code": 6, "docstring": 7, "comment": 1, "blank": 5}
    assert sum(counts.values()) == len(SNIPPET.splitlines())


def test_split_of_a_module_without_docstrings(line_counts):
    assert line_counts.split("x = 1\n\n# note\n") == {
        "code": 1,
        "docstring": 0,
        "comment": 1,
        "blank": 1,
    }
