"""JSON forms of hypergraphs and reduction results.

:func:`hypergraph_to_json` is the canonical text of a hypergraph: the
campaign runtime hashes it into each task's instance digest
(:mod:`repro.runtime.tasks`).  This module also round-trips
:class:`~repro.core.reduction.ReductionResult` — the campaign runtime's
artifact store (:mod:`repro.runtime.store`) persists one such summary per
task.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.exceptions import ReproError
from repro.hypergraph.hypergraph import Hypergraph


def hypergraph_to_dict(hypergraph: Hypergraph) -> Dict[str, object]:
    """Serialize a hypergraph whose vertices and edge ids are JSON-representable.

    The format is ``{"vertices": [...], "edges": [[edge_id, [members...]], ...]}``.
    Vertices and edge ids must be JSON-representable (ints, strings, …);
    tuples are written as lists.
    """
    return {
        "vertices": sorted(hypergraph.vertices, key=repr),
        "edges": [[e, sorted(members, key=repr)] for e, members in hypergraph.edges()],
    }


def hypergraph_to_json(hypergraph: Hypergraph) -> str:
    """Serialize to a JSON string."""
    return json.dumps(hypergraph_to_dict(hypergraph), sort_keys=True)


def _encode_atom(value):
    """JSON-encode a vertex or edge id, keeping tuples distinguishable from lists.

    Plain JSON scalars pass through; tuples (e.g. the sunflower generator's
    ``("core", 0)`` vertices) become ``{"__tuple__": [...]}`` so that
    :func:`_decode_atom` can reconstruct them exactly.
    """
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_atom(item) for item in value]}
    return value


def _decode_atom(value):
    """Inverse of :func:`_encode_atom`."""
    if isinstance(value, dict):
        if set(value) != {"__tuple__"}:
            raise ReproError(f"malformed encoded atom {value!r}")
        return tuple(_decode_atom(item) for item in value["__tuple__"])
    return value


def reduction_result_to_dict(result) -> Dict[str, Any]:
    """Serialize a :class:`~repro.core.reduction.ReductionResult` to JSON-friendly data.

    Vertices and edge ids must be JSON-representable (ints, strings, …) or
    tuples thereof (encoded via a ``{"__tuple__": [...]}`` marker); colors
    are the reduction's phase-private ``(phase, palette_color)`` pairs and
    are stored as two-element lists.  The multicoloring is stored as a
    sorted list of ``[vertex, [[phase, color], ...]]`` pairs rather than a
    JSON object so that integer vertices survive the round trip unchanged.
    """
    return {
        "k": result.k,
        "lam": result.lam,
        "phase_bound": result.phase_bound,
        "color_bound": result.color_bound,
        "multicoloring": [
            [_encode_atom(v), sorted([phase, c] for phase, c in colors)]
            for v, colors in sorted(
                result.multicoloring.as_dict().items(), key=lambda item: repr(item[0])
            )
        ],
        "phases": [
            {
                "phase": p.phase,
                "edges_before": p.edges_before,
                "edges_after": p.edges_after,
                "independent_set_size": p.independent_set_size,
                "happy_edges": [
                    _encode_atom(e) for e in sorted(p.happy_edges, key=repr)
                ],
                "conflict_graph_vertices": p.conflict_graph_vertices,
                "conflict_graph_edges": p.conflict_graph_edges,
                "guaranteed_edges_after": p.guaranteed_edges_after,
            }
            for p in result.phases
        ],
    }


def reduction_result_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`reduction_result_to_dict`.

    Returns a :class:`~repro.core.reduction.ReductionResult` that compares
    equal to the serialized one (multicoloring, phase records and bounds).
    """
    from repro.coloring.multicoloring import Multicoloring
    from repro.core.reduction import PhaseRecord, ReductionResult

    for key in ("k", "lam", "phase_bound", "color_bound", "multicoloring", "phases"):
        if key not in data:
            raise ReproError(f"reduction result is missing the {key!r} field")
    multicoloring = Multicoloring()
    for item in data["multicoloring"]:
        if len(item) != 2:
            raise ReproError(
                f"multicoloring entry must be [vertex, colors], got {item!r}"
            )
        vertex, colors = item
        for color in colors:
            if len(color) != 2:
                raise ReproError(
                    f"color must be a [phase, palette_color] pair, got {color!r}"
                )
            multicoloring.add_color(_decode_atom(vertex), (color[0], color[1]))
    phases = [
        PhaseRecord(
            phase=p["phase"],
            edges_before=p["edges_before"],
            edges_after=p["edges_after"],
            independent_set_size=p["independent_set_size"],
            happy_edges={_decode_atom(e) for e in p["happy_edges"]},
            conflict_graph_vertices=p["conflict_graph_vertices"],
            conflict_graph_edges=p["conflict_graph_edges"],
            guaranteed_edges_after=p["guaranteed_edges_after"],
        )
        for p in data["phases"]
    ]
    return ReductionResult(
        multicoloring=multicoloring,
        phases=phases,
        k=data["k"],
        lam=data["lam"],
        phase_bound=data["phase_bound"],
        color_bound=data["color_bound"],
    )
