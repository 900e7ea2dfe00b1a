"""Tests for the code-line yardstick, ``benchmarks/code_lines.py``."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "benchmarks" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def count(source):
    return code_lines.count_code_lines(textwrap.dedent(source))


def test_plain_statements_count_one_each():
    assert count("""\
        x = 1
        y = x + 1
        print(y)
        """) == 3


def test_blank_lines_and_comments_do_not_count():
    assert count("""\
        # a comment


        x = 1  # a trailing comment keeps its line a code line
            # an indented comment
        """) == 1


@pytest.mark.parametrize("source, expected", [
    ('''\
    """Module docstring,
    over two lines."""
    x = 1
    ''', 1),
    ('''\
    def f():
        """Function docstring."""
        return 1
    ''', 2),
    ('''\
    class C:
        """Class docstring,

        with a blank line inside."""
        x = 1
    ''', 2),
    ('''\
    async def g():
        """A body that is only a docstring leaves the def line."""
    ''', 1),
], ids=["module", "function", "class", "async"])
def test_docstrings_do_not_count(source, expected):
    assert count(source) == expected


def test_a_string_that_is_not_a_docstring_counts():
    assert count('''\
        x = 1
        """A bare string after the first statement is code."""
        ''') == 2


def test_imports_do_not_count():
    assert count("""\
        import os
        from typing import (
            Any,
            Dict,
        )
        x = os.sep
        """) == 1


def test_multi_line_expression_counts_once_per_line():
    assert count("""\
        total = (
            1
            + 2
        )
        call(a,
             b)
        """) == 6


def test_multi_line_string_counts_every_line_it_spans():
    assert count('''\
        x = 1
        text = """one
        two
        three"""
        ''') == 4


def test_main_prints_per_file_counts_and_total(tmp_path, capsys):
    a = tmp_path / "a.py"
    a.write_text('"""Doc."""\nimport os\n\nx = 1\ny = 2\n', encoding="utf-8")
    b = tmp_path / "b.py"
    b.write_text("# only a comment\nz = (\n    3\n)\n", encoding="utf-8")
    assert code_lines.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     2  {a}", f"     3  {b}", "     5  total"]
