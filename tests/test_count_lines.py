"""``tools/count_lines.py``: what counts as a code line, and the git delta."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment line
class Holder:
    """Class docstring."""

    TEXT = """a multi-line string
that is data, not a docstring"""

    def path(self):
        """Function
        docstring."""

        return os.sep


async def fetch():
    """Async function docstring."""
    return "one-line string"
'''


def test_code_lines_of_a_synthetic_module():
    # import, class, TEXT (two lines), def path, return, async def, return.
    assert count_lines.code_lines(SYNTHETIC) == 8
    assert count_lines.count(SYNTHETIC) == (len(SYNTHETIC.splitlines()), 8)


def test_docstrings_comments_and_blanks_do_not_count():
    assert count_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert count_lines.code_lines('def f():\n    """Doc."""\n') == 1
    # The same string as a statement that is not first in its body is data.
    assert count_lines.code_lines('def f():\n    pass\n    """Not a docstring."""\n') == 3


def test_delta_against_a_revision(tmp_path, capsys, monkeypatch):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "kept.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "pkg" / "gone.py").write_text("y = 2\nz = 3\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (tmp_path / "pkg" / "kept.py").write_text('"""Doc."""\nx = 1\n\n# note\nw = 4\n')
    (tmp_path / "pkg" / "gone.py").unlink()
    (tmp_path / "pkg" / "new.py").write_text("v = 5\n")
    monkeypatch.chdir(tmp_path)
    assert count_lines.main(["--rev", "HEAD", "pkg"]) == 0
    rows = {line.split()[-1]: line.split()[:4] for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert rows == {
        "pkg/gone.py": ["0", "0", "-2", "-2"],
        "pkg/kept.py": ["5", "2", "+3", "+1"],
        "pkg/new.py": ["1", "1", "+1", "+1"],
    }
