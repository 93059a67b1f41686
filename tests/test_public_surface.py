"""The library keeps no definition that only the tests call.

Every top-level function and class in ``src/repro`` must be named outside
its own body somewhere in ``src/`` (``__init__.py`` re-exports do not
count), ``examples/``, ``scripts/`` or ``perfbench/``: as a name, as an
attribute, or as an identifier inside a string (the benchmark's ledger
hooks name their targets in strings).  A docstring, the first statement
of a module, class or function body, is prose, not a use.  Otherwise it
is a key of ``KEEP``, which says which test or ROADMAP item needs it.
Anything else is surface that only the tests call: move it into
``tests/`` or delete it together with its tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "scripts", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BODIES = (ast.Module,) + DEFINITIONS

#: Library definitions that only tests call, each with the test or ROADMAP
#: item that needs it.
KEEP = {
    "clusterwise_maxis": "E9, tests/core/test_containment.py",
    "ClusterwiseMaxISResult": "E9, the result of clusterwise_maxis",
    "is_maximal": "E9, tests/core/test_containment.py",
    "polylog_lambda": "E6, tests/test_paper_claims.py",
    "is_polylog": "E4, tests/test_paper_claims.py",
    "conflict_graph_vertex_count": "E5, tests/core/test_bounds.py",
    "conflict_graph_edge_count_upper_bound": "E5, tests/core/test_bounds.py",
    "cole_vishkin_ring": "E7, tests/local_model/test_deterministic.py",
    "randomized_coloring": "E7, tests/local_model/test_algorithms.py",
    "is_proper_coloring": "E7, tests/local_model/test_algorithms.py",
    "greedy_conflict_free_coloring": "the baseline in tests/test_integration.py",
    "single_coloring_as_multicoloring": "the baseline in tests/test_integration.py",
    "exact_via_networkx": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "greedy_maximal_independent_set": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "greedy_min_degree_independent_set": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "clique_cover_approximation": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "slocal_mis": "the registry's 'mis' fact: SLOCAL locality 1 (GKM17)",
    "slocal_greedy_coloring": "the registry's 'delta-plus-one-coloring' fact: SLOCAL locality 1",
    "cf_multicoloring_to_maxis_reduction": "ROADMAP item 10 measures its locality_factor",
    "sunflower_hypergraph": "ROADMAP item 8, the vertex-disjoint family",
    "run_simulated": "ROADMAP item 10 replaces it",
    "get_tracer": "tests/obs/test_trace.py: tracing() installs and restores the tracer",
    "tracing_enabled": "tests/obs/test_trace.py: tracing() installs and restores the tracer",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _docstrings(tree: ast.AST):
    """The ids of the docstring constants under ``tree``."""
    return {
        id(body.body[0].value)
        for body in ast.walk(tree)
        if isinstance(body, BODIES) and ast.get_docstring(body, clean=False) is not None
    }


def _names(node: ast.AST, docstrings):
    """Every name, attribute and identifier inside a non-docstring string under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in docstrings
        ):
            yield from IDENTIFIER.findall(sub.value)


def _definitions():
    """``(path, name)`` of every top-level function and class in ``src/repro``."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, DEFINITIONS):
                yield path, node.name


def _uses():
    """Map each name to the ``(path, top-level definition or None)`` sites naming it."""
    uses = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if directory == "src" and path.name == "__init__.py":
                continue
            tree = _parse(path)
            docstrings = _docstrings(tree)
            for node in tree.body:
                owner = node.name if isinstance(node, DEFINITIONS) else None
                for name in _names(node, docstrings):
                    uses.setdefault(name, set()).add((path, owner))
    return uses


def test_every_library_definition_has_a_caller_outside_the_tests():
    uses = _uses()
    test_only = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, name in _definitions()
        if name not in KEEP and not uses.get(name, set()) - {(path, name)}
    ]
    assert not test_only, (
        f"{len(test_only)} definitions have no caller outside tests/ (move each into "
        "tests/, delete it with its tests, or add it to KEEP with the test that needs it):\n"
        + "\n".join(test_only)
    )


def test_a_docstring_is_not_a_use_but_another_string_is():
    tree = ast.parse(
        '"""Names alpha."""\n'
        "def f():\n"
        '    """Names beta."""\n'
        '    return "gamma"\n'
        "class C:\n"
        '    """Names delta."""\n'
        '    hook = "epsilon"\n'
    )
    docstrings = _docstrings(tree)
    names = {name for node in tree.body for name in _names(node, docstrings)}
    assert {"gamma", "epsilon"} <= names
    assert not names & {"alpha", "beta", "delta"}


def test_every_keep_entry_is_a_library_definition():
    defined = {name for _, name in _definitions()}
    assert sorted(set(KEEP) - defined) == []
