"""The library keeps no definition that only the tests call.

Every top-level function and class in ``src/repro``, and every method and
property of its classes (dunders aside), must be named outside its own
body somewhere in ``src/`` (``__init__.py`` re-exports do not count),
``examples/``, ``scripts/`` or ``perfbench/``: as a name, as an attribute,
or as an identifier inside a string (the benchmark's ledger hooks name
their targets in strings).  A docstring, the first statement of a module,
class or function body, is prose, not a use.

A method is checked class by class.  A use of ``m`` counts for ``C.m``
only as an attribute or inside a string (a bare name ``m`` is a local
variable or a function, never a method), and only in C's own module, in a
file that names C or a class related to C by inheritance, or in a file
that imports C's module or C's package.  So a caller of one class's
``to_dict`` does not keep another class's ``to_dict`` alive, and neither
does a call ``handle.read()`` on a file object in a module that never
reaches the class.

A definition without such a use is a key of ``KEEP`` (``name`` or
``Class.method``), which says which test or ROADMAP item needs it, and a
``KEEP`` key must name a definition that has no such use.  Anything else
is surface that only the tests call: move it into ``tests/`` or delete it
together with its tests.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "scripts", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)
BODIES = (ast.Module,) + DEFINITIONS

#: Library definitions that only tests call, each with the test or ROADMAP
#: item that needs it.
KEEP = {
    "clusterwise_maxis": "E9, tests/core/test_containment.py",
    "is_maximal": "E9, tests/core/test_containment.py",
    "polylog_lambda": "E6, tests/test_paper_claims.py",
    "conflict_graph_edge_count_upper_bound": "E5, tests/core/test_bounds.py",
    "cole_vishkin_ring": "E7, tests/local_model/test_deterministic.py",
    "randomized_coloring": "E7, tests/local_model/test_algorithms.py",
    "is_proper_coloring": "E7, tests/local_model/test_algorithms.py",
    "greedy_conflict_free_coloring": "the baseline in tests/test_integration.py",
    "single_coloring_as_multicoloring": "the baseline in tests/test_integration.py",
    "exact_via_networkx": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "clique_cover_approximation": "kernel reference, DESIGN.md 'One kernel per oracle'",
    "slocal_mis": "the registry's 'mis' fact: SLOCAL locality 1 (GKM17)",
    "slocal_greedy_coloring": "the registry's 'delta-plus-one-coloring' fact: SLOCAL locality 1",
    "cf_multicoloring_to_maxis_reduction": "ROADMAP item 10 measures its locality_factor",
    "sunflower_hypergraph": "ROADMAP item 8, the vertex-disjoint family",
    "run_simulated": "ROADMAP item 10 replaces it",
    "get_tracer": "tests/obs/test_trace.py: tracing() installs and restores the tracer",
    "tracing_enabled": "tests/obs/test_trace.py: tracing() installs and restores the tracer",
    "ConflictGraph.bucket_structure": "tests/core: maintained and rebuilt G_k compared",
    "ConflictGraph.expected_num_vertices": "tests/core: maintained and rebuilt G_k compared",
    "ConflictGraph.triples_of_edge": "tests/core: maintained and rebuilt G_k compared",
    "ConflictGraph.triples_of_vertex": "tests/core: maintained and rebuilt G_k compared",
    "ConflictGraph.edge_kinds": "tests/core: maintained and rebuilt G_k compared",
    "ConflictGraph.host_assignment": "E5, tests/test_integration.py; ROADMAP item 10",
    "VirtualGraphEmbedding.simulation_rounds": "E5, tests/test_integration.py; ROADMAP item 10",
    "VirtualGraphEmbedding.verify_dilation_bound": "E5, tests/test_integration.py; ROADMAP item 10",
    "Hypergraph.primal_graph": "E5, the host network of tests/test_integration.py; ROADMAP item 10",
    "ReductionOverhead.is_polylog": "E4, TestPaperReduction: Theorem 1.1's polylog overhead",
    "LocalReduction.apply": "runs cf_multicoloring_to_maxis_reduction (ROADMAP item 10)",
    "HappinessTracker.edges_containing": "ROADMAP item 12 deletes the class with its fuzz test",
}


class Source(NamedTuple):
    """One parsed file: where it is, what it imports, and where it names what."""

    path: Path
    module: str
    tree: ast.Module
    imports: frozenset
    #: name -> {(top-level definition or None, (class, method) or None)} of its uses
    sites: dict
    #: the same, for the uses a method can have: attributes and string identifiers
    members: dict


def _docstrings(tree: ast.AST):
    """The ids of the docstring constants under ``tree``."""
    return {
        id(body.body[0].value)
        for body in ast.walk(tree)
        if isinstance(body, BODIES) and ast.get_docstring(body, clean=False) is not None
    }


def _names(node: ast.AST, docstrings):
    """``(name, member)`` for the name, attribute or identifiers of a non-docstring string at ``node``.

    ``member`` is False for a bare name, which can be no method use.
    """
    if isinstance(node, ast.Name):
        yield node.id, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, True
    elif (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ):
        for name in IDENTIFIER.findall(node.value):
            yield name, True


def _sites(tree: ast.Module):
    """``(sites, members)``: each name used in ``tree`` mapped to the definitions its uses sit in.

    ``members`` keeps only the attribute and string uses.
    """
    docstrings = _docstrings(tree)
    sites, members = {}, {}

    def visit(node, top, method):
        for name, member in _names(node, docstrings):
            sites.setdefault(name, set()).add((top, method))
            if member:
                members.setdefault(name, set()).add((top, method))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, FUNCTIONS):
                visit(child, top, (node.name, child.name))
            else:
                visit(child, top, method)

    for node in tree.body:
        visit(node, node.name if isinstance(node, DEFINITIONS) else None, None)
    return sites, members


def _imports(tree: ast.Module, module: str, is_package: bool):
    """The dotted names of the modules ``tree`` imports, relative imports resolved."""
    package = module if is_package else module.rpartition(".")[0]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return frozenset(imported)


def _source(path: Path, module: str, text: str) -> Source:
    tree = ast.parse(text, filename=str(path))
    is_package = path.name == "__init__.py"
    return Source(path, module, tree, _imports(tree, module, is_package), *_sites(tree))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(library):
    """``(source, class, method)`` of every method and property in ``library``, dunders aside."""
    seen = set()
    for source in library:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                key = (source.path, node.name, getattr(method, "name", None))
                if isinstance(method, FUNCTIONS) and not _dunder(method.name) and key not in seen:
                    seen.add(key)
                    yield source, node.name, method.name


def _relatives(library):
    """Map each class name to itself, its ancestors and its descendants in ``library``."""
    bases = {}
    for source in library:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
    children = {}
    for name, parents in bases.items():
        for parent in parents:
            children.setdefault(parent, set()).add(name)

    def closure(start, edges):
        found, stack = set(), [start]
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in found:
                    found.add(nxt)
                    stack.append(nxt)
        return found

    return {name: {name} | closure(name, bases) | closure(name, children) for name in bases}


def uncalled(library, callers):
    """``{key: path}`` of the definitions in ``library`` with no use in ``callers``.

    ``library`` and ``callers`` are lists of :class:`Source`; a key is a
    top-level name or ``Class.method``.  ``KEEP`` is not consulted.
    """
    flagged = {}
    for source in library:
        for node in source.tree.body:
            if isinstance(node, DEFINITIONS) and not any(
                site.path != source.path or top != node.name
                for site in callers
                for top, _ in site.sites.get(node.name, ())
            ):
                flagged[node.name] = source.path

    relatives = _relatives(library)
    for source, cls, name in _methods(library):
        package = source.module.rpartition(".")[0]

        def counts(site):
            owners = site.members.get(name, set())
            if site.path == source.path:
                owners = {owner for owner in owners if owner[1] != (cls, name)}
            if not owners:
                return False
            return (
                site.path == source.path
                or not relatives[cls].isdisjoint(site.sites)
                or not {source.module, package}.isdisjoint(site.imports)
            )

        if not any(counts(site) for site in callers):
            flagged[f"{cls}.{name}"] = source.path
    return flagged


def _module_name(path: Path) -> str:
    relative = path.relative_to(ROOT / "src").with_suffix("")
    parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
    return ".".join(parts)


def _scan():
    """``(library, callers)`` for this repository, each file parsed once."""
    library, callers = [], []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            module = _module_name(path) if directory == "src" else ""
            source = _source(path, module, path.read_text(encoding="utf-8"))
            if directory == "src":
                library.append(source)
                if path.name == "__init__.py":
                    continue
            callers.append(source)
    return library, callers


@functools.lru_cache(maxsize=None)
def _repository():
    return _scan()


@functools.lru_cache(maxsize=None)
def _flagged():
    return uncalled(*_repository())


def _defined(library):
    """Every key a definition in ``library`` can have in ``KEEP``."""
    top_level = {
        node.name
        for source in library
        for node in source.tree.body
        if isinstance(node, DEFINITIONS)
    }
    return top_level | {f"{cls}.{name}" for _, cls, name in _methods(library)}


def test_every_library_definition_has_a_caller_outside_the_tests():
    test_only = [
        f"{path.relative_to(ROOT)}: {key}"
        for key, path in sorted(_flagged().items())
        if key not in KEEP
    ]
    assert not test_only, (
        f"{len(test_only)} definitions have no caller outside tests/ (move each into "
        "tests/, delete it with its tests, or add it to KEEP with the test that needs it):\n"
        + "\n".join(test_only)
    )


def test_every_keep_entry_is_a_library_definition_without_a_caller():
    library, _ = _repository()
    assert sorted(set(KEEP) - _defined(library)) == [], "KEEP keys that name no definition"
    assert sorted(set(KEEP) - set(_flagged())) == [], "KEEP keys with a caller outside tests/"


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
    names = set(_sites(tree)[0])
    assert {"gamma", "epsilon"} <= names
    assert not names & {"alpha", "beta", "delta"}


def _synthetic(files):
    """``uncalled`` over ``{module: text}``, the ``lib.*`` modules being the library."""
    sources = [
        _source(Path(module.replace(".", "/") + ".py"), module, text)
        for module, text in files.items()
    ]
    library = [source for source in sources if source.module.startswith("lib.")]
    return uncalled(library, sources)


def test_a_shared_method_name_counts_only_where_its_class_is_in_reach():
    library = {
        "lib.a.mod": "class A:\n    def f(self):\n        return 1\n",
        "lib.b.mod": "class B:\n    def f(self):\n        return self.f()\n",
    }
    names_a = _synthetic({**library, "app.one": "def g(x):\n    return A, x.f()\n"})
    assert "A.f" not in names_a
    assert names_a["B.f"] == Path("lib/b/mod.py"), "B.f's own body and A's site do not count"

    imports_b = _synthetic(
        {**library, "app.two": "import lib.b.mod\ndef g(x):\n    return x.f()\n"}
    )
    assert "B.f" not in imports_b and "A.f" in imports_b

    imports_package = _synthetic(
        {**library, "app.three": "from lib.a import thing\ndef g(x):\n    return x.f()\n"}
    )
    assert "A.f" not in imports_package and "B.f" in imports_package

    subclass = {"lib.c.mod": "from lib.a.mod import A\nclass D(A):\n    pass\n"}
    names_child = _synthetic(
        {**library, **subclass, "app.four": "def g(x):\n    return D, x.f()\n"}
    )
    assert "A.f" not in names_child and "B.f" in names_child

    unique = _synthetic(
        {"lib.a.mod": library["lib.a.mod"], "app.five": "def g(x):\n    return x.f()\n"}
    )
    assert "A.f" in unique, "a name only one class defines counts only where A is in reach"


def test_a_bare_name_is_not_a_method_use():
    library = {"lib.a.mod": "class A:\n    def f(self):\n        return 1\n"}
    local = _synthetic(
        {**library, "app.six": "import lib.a.mod\ndef g():\n    f = 2\n    return f\n"}
    )
    assert "A.f" in local, "a local variable named f does not keep A.f alive"
    attribute = _synthetic(
        {**library, "app.seven": "import lib.a.mod\ndef g(x):\n    return x.f()\n"}
    )
    assert "A.f" not in attribute
    hooked = _synthetic({**library, "app.eight": 'import lib.a.mod\nHOOK = "A.f"\n'})
    assert "A.f" not in hooked, "a string naming the method is a use"


def test_keep_resolves_class_qualified_keys():
    library, _ = _repository()
    defined = _defined(library)
    methods = {key for key in KEEP if "." in key}
    assert methods and methods <= defined
    assert "Graph.add_edge" in defined and "Graph.__init__" not in defined


def test_the_guard_scans_the_repository_in_under_two_seconds():
    # The coverage gate's line tracer slows the scan several-fold; time the
    # scan itself, with the tracer suspended.
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        start = time.perf_counter()
        uncalled(*_scan())
        elapsed = time.perf_counter() - start
    finally:
        sys.settrace(tracer)
    assert elapsed < 2.0
