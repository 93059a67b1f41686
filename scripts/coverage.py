#!/usr/bin/env python
"""Line-coverage gate for the whole library, with a dependency-free fallback.

Measures line coverage of every module under ``src/repro`` under the full
test suite and fails when the aggregate drops below ``FAIL_UNDER`` percent
(the floor measured when the gate was introduced — raise it when coverage
improves, never lower it to make a regression pass).

Two measurement backends:

* ``pytest-cov`` when it is installed (fast, standard); the floor is
  enforced via ``--cov-fail-under``.
* otherwise the stdlib :mod:`trace` module (no third-party dependency;
  roughly 5× slower than an untraced run).  Executable line numbers come
  from :func:`trace._find_executable_linenos`, less line 0 and the
  ``# pragma: no cover`` blocks that pytest-cov excludes too
  (:func:`executable_lines`), and *every* module file in the target
  packages counts — files the suite never imports contribute zero hit
  lines.

Usage: ``python scripts/coverage.py`` (from the repository root; run by
``make coverage`` and ``scripts/check.sh``).
"""

from __future__ import annotations

import ast
import os
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Packages whose line coverage is gated (paths under src/).
TARGET_PACKAGES = ("repro",)

#: Aggregate fail-under floor in percent: the stdlib backend measured
#: 93.6% (core 91.6 / maxis 94.5 / graphs 94.8) when the gate was
#: introduced.  PR 4 added src/repro/runtime (98.4% at introduction) and
#: fixed the trace._Ignore module-name cache poisoning that had been
#: dropping __init__.py (and runtime/tasks.py) from the counts, lifting
#: the measured aggregate to 95.3% (floor 94).  PR 5's shard/worker-pool/
#: instance-cache runtime plus its campaign fuzz harness measured 95.6%
#: (runtime 98.9%) — the floor ratchets up to 95.  PR 8 added
#: src/repro/obs (98.8% at introduction; aggregate 96.1%).  The gate then
#: widened from those five packages to all of src/repro, which read 96.9%
#: on the stdlib backend; the floor stays 95.  The stdlib count then
#: dropped line 0 of every module and the ``# pragma: no cover`` blocks,
#: as pytest-cov does: the same run read 6714/6819 = 98.5% instead of
#: 6729/6944 = 96.9%, and the floor rose to 96 so the correction does not
#: loosen the gate.
#: pytest-cov counts lines slightly differently; the common floor is
#: conservative for both backends.
FAIL_UNDER = 96

#: The exclusion marker: its line, and the whole block a marked line opens
#: (a ``def``, an ``if``, an ``except`` clause), are not counted.
NO_COVER = re.compile(r"#\s*pragma:\s*no\s*cover")


def _have_pytest_cov() -> bool:
    try:
        import pytest_cov  # noqa: F401

        return True
    except ImportError:
        return False


def _run_with_pytest_cov() -> int:
    import subprocess

    args = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        *(f"--cov={pkg.replace('/', '.')}" for pkg in TARGET_PACKAGES),
        "--cov-report=term",
        f"--cov-fail-under={FAIL_UNDER}",
        "tests",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(SRC)
    return subprocess.call(args, cwd=REPO_ROOT, env=env)


def executable_lines(path: Path) -> set:
    """The line numbers of ``path`` the stdlib backend counts.

    :func:`trace._find_executable_linenos` also reports line 0, where a
    module's code object starts on Python 3.11 and which no run can hit,
    and the lines under ``# pragma: no cover``; both are dropped.
    """
    import trace

    text = path.read_text(encoding="utf-8")
    marked = {
        number for number, line in enumerate(text.splitlines(), start=1) if NO_COVER.search(line)
    }
    excluded = set(marked)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)) and node.lineno in marked:
            excluded.update(range(node.lineno, node.end_lineno + 1))
    return set(trace._find_executable_linenos(str(path))) - excluded - {0}


def _target_files():
    for pkg in TARGET_PACKAGES:
        for path in sorted((SRC / pkg).rglob("*.py")):
            yield pkg, path


def _run_with_stdlib_trace() -> int:
    import trace

    import pytest

    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    # trace._Ignore caches its ignore decision by *bare module name*: once a
    # stdlib file in an ignored dir runs (asyncio/tasks.py, any __init__.py),
    # every same-named file under src/ is silently dropped from the counts.
    # Pre-seed the cache with "do not ignore" for every gated module name so
    # e.g. repro/runtime/tasks.py and the package __init__ files are counted.
    for _pkg, path in _target_files():
        tracer.ignore._ignore[path.stem] = 0
    rc = tracer.runfunc(
        pytest.main, ["-q", "-p", "no:cacheprovider", str(REPO_ROOT / "tests")]
    )
    if rc:
        print(f"coverage: test run failed (pytest exit code {rc})")
        return int(rc)

    hit_lines = {}
    for (fname, lineno), _count in tracer.results().counts.items():
        hit_lines.setdefault(os.path.realpath(fname), set()).add(lineno)

    per_package = {pkg: [0, 0] for pkg in TARGET_PACKAGES}
    total_executable = total_hit = 0
    for pkg, path in _target_files():
        executable = executable_lines(path)
        hits = hit_lines.get(os.path.realpath(str(path)), set())
        per_package[pkg][0] += len(executable & hits)
        per_package[pkg][1] += len(executable)
        total_hit += len(executable & hits)
        total_executable += len(executable)

    print()
    print("line coverage (stdlib trace backend):")
    for pkg, (hit, executable) in per_package.items():
        pct = 100.0 * hit / executable if executable else 100.0
        print(f"  src/{pkg:<14s} {hit:5d}/{executable:<5d}  {pct:5.1f}%")
    total_pct = 100.0 * total_hit / total_executable if total_executable else 100.0
    print(f"  {'TOTAL':<18s} {total_hit:5d}/{total_executable:<5d}  {total_pct:5.1f}%")
    if total_pct < FAIL_UNDER:
        print(f"coverage: FAIL — total {total_pct:.1f}% is below the floor {FAIL_UNDER}%")
        return 1
    print(f"coverage: OK — total {total_pct:.1f}% ≥ floor {FAIL_UNDER}%")
    return 0


def main() -> int:
    if _have_pytest_cov():
        return _run_with_pytest_cov()
    print("coverage: pytest-cov not installed; using the stdlib trace backend")
    return _run_with_stdlib_trace()


if __name__ == "__main__":
    raise SystemExit(main())
