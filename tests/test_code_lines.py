"""``benchmarks/code_lines.py``: what counts as a code line."""

from benchmarks.code_lines import count_code_lines, main

FIXTURE = '''"""Module docstring
spanning two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string, not a docstring,
    counts on both lines"""

    def f(self):
        """Function
        docstring."""
        return os.sep

    async def g(self):
        \'\'\'Async docstring.\'\'\'
        pass
'''


def test_comments_blanks_and_docstrings_do_not_count():
    # import, class, the two-line string, def f, return, async def g, pass
    assert count_code_lines(FIXTURE) == 8


def test_a_docstring_only_module_has_no_code():
    assert count_code_lines('"""Only a docstring."""\n') == 0


def test_prints_per_file_counts_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["9", "total"],
    ]
