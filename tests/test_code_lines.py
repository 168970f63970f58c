import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


def f(a, b):
    """One-line docstring."""
    x = "not a docstring"
    return os.path.join(
        a,
        b,
    )


class C:
    """Class docstring
    on two lines."""

    y = 1
'''


def test_code_lines_counts_tokens_and_leaves_out_docstrings_comments_and_blanks():
    # import, def, x =, the four lines of the call, class, y = 1
    assert code_lines.code_lines(SNIPPET) == 9


def test_code_lines_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert [line.split() for line in out if line] == [
        ["9", "a.py"],
        ["1", "sub/b.py"],
        ["10", "total"],
    ]
