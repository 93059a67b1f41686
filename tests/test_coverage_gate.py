"""Tests for the line counting of the coverage gate (``scripts/coverage.py``).

The stdlib backend counts what :func:`trace._find_executable_linenos`
reports, less line 0 (no run can hit it) and the ``# pragma: no cover``
blocks that pytest-cov excludes too, so both backends gate the same lines.
"""

from __future__ import annotations

import importlib.util
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "coverage.py"


def _load_script():
    module_spec = importlib.util.spec_from_file_location("coverage_gate", SCRIPT)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


coverage_gate = _load_script()

MODULE = '''\
"""A module."""

try:
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - old interpreters
    def popcount(x):
        return bin(x).count("1")


def kept(x):
    if x:
        return 1
    return 0  # pragma: no cover


class Thing:
    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            "Thing"
        )

    def size(self):
        return 2
'''


def _lines(tmp_path, text=MODULE):
    path = tmp_path / "module.py"
    path.write_text(text, encoding="utf-8")
    lines = text.splitlines()
    counted = coverage_gate.executable_lines(path)
    return counted, set(trace._find_executable_linenos(str(path))), lines


def test_line_zero_is_not_counted(tmp_path):
    counted, raw, _ = _lines(tmp_path, "x = 1\ny = x + 1\n")
    assert counted == raw - {0} == {1, 2}


def test_a_no_cover_block_is_not_counted(tmp_path):
    counted, raw, lines = _lines(tmp_path)

    def number(text):
        return lines.index(text) + 1

    def block(first, last):
        return set(range(number(first), number(last) + 1))

    excluded = (
        # the except clause and the fallback it opens
        block("except AttributeError:  # pragma: no cover - old interpreters",
              '        return bin(x).count("1")')
        # a marked simple statement, alone
        | {number("    return 0  # pragma: no cover")}
        # a marked method, its continuation lines included
        | block("    def __repr__(self):  # pragma: no cover - cosmetic", "        )")
    )
    assert {number('        return bin(x).count("1")'), number('            "Thing"')} <= raw
    assert not excluded & counted
    kept = {
        number("    popcount = int.bit_count"),
        number("        return 1"),
        number("        return 2"),
    }
    assert kept <= counted
    assert counted == raw - {0} - excluded


def test_the_library_markers_and_line_zero_are_not_counted():
    marked = 0
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        counted = coverage_gate.executable_lines(path)
        assert 0 not in counted, path
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if coverage_gate.NO_COVER.search(line):
                marked += 1
                assert number not in counted, f"{path}:{number}"
    assert marked > 0
