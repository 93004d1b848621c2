"""Join-order optimisation for basic graph patterns.

A real SPARQL engine (the paper benchmarks Virtuoso) reorders triple
patterns so selective patterns run first and every join stays
connected.  This module implements the classic greedy strategy:

1. estimate each pattern's cardinality against the graph's indexes
   (constants bound now, variables assumed bound if a previously
   chosen pattern binds them),
2. repeatedly pick the cheapest pattern that shares a variable with
   the already-chosen set (or the globally cheapest one when none
   connects).

Only *consecutive runs of triple patterns* are reordered; filters and
other elements keep their positions, so FILTER/OPTIONAL semantics are
untouched.  The evaluator applies this by default; pass
``optimize=False`` to :func:`repro.paper.sparql.evaluator.select` /
``query`` to keep the textual order (the benchmarks use that to show
what the naive order costs).
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.paper.sparql.ast import (
    GroupPattern,
    PathAlternative,
    PathInverse,
    PathLink,
    PathMod,
    PathSequence,
    TriplePattern,
    Var,
)

__all__ = ["optimize_group", "estimate_pattern"]

_PATH_TYPES = (PathLink, PathInverse, PathSequence, PathAlternative, PathMod)


def _is_path(predicate) -> bool:
    return isinstance(predicate, _PATH_TYPES)


def estimate_pattern(graph: Graph, pattern: TriplePattern, bound: set[Var]) -> float:
    """Rough result-cardinality estimate for one pattern.

    Uses the graph indexes where a position is a constant; variables in
    ``bound`` count as constants with an optimistic selectivity factor.
    Property paths get a pessimistic constant (their closure can blow
    up), which pushes them late in the join order.
    """
    subject = pattern.subject
    predicate = pattern.predicate
    obj = pattern.obj

    def state(node) -> str:
        if isinstance(node, Var):
            return "bound" if node in bound else "free"
        return "const"

    s, o = state(subject), state(obj)
    if _is_path(predicate):
        base = float(len(graph)) * 4.0
        for end_state in (s, o):
            if end_state == "const":
                base /= 50.0
            elif end_state == "bound":
                base /= 10.0
        return max(base, 1.0)
    p = state(predicate)

    # Exact counts for fully/partially constant shapes.
    if s == "const" and p == "const" and o == "const":
        return 0.5  # existence check
    if s == "const" and p == "const":
        return float(sum(1 for _ in graph.triples(subject, predicate, None)))  # type: ignore[arg-type]
    if p == "const" and o == "const":
        return float(sum(1 for _ in graph.triples(None, predicate, obj)))  # type: ignore[arg-type]
    if s == "const" and o == "const":
        return float(sum(1 for _ in graph.triples(subject, None, obj)))  # type: ignore[arg-type]
    if p == "const":
        count = float(sum(1 for _ in graph.triples(None, predicate, None)))  # type: ignore[arg-type]
    elif s == "const":
        count = float(sum(1 for _ in graph.triples(subject, None, None)))  # type: ignore[arg-type]
    elif o == "const":
        count = float(sum(1 for _ in graph.triples(None, None, obj)))
    else:
        count = float(len(graph))
    # Bound variables shrink the result like constants would, but we
    # cannot index on them ahead of time; use a heuristic divisor.
    for end_state in (s, p, o):
        if end_state == "bound":
            count /= 10.0
    return max(count, 0.5)


def _pattern_variables(pattern: TriplePattern) -> set[Var]:
    out: set[Var] = set()
    for node in (pattern.subject, pattern.predicate, pattern.obj):
        if isinstance(node, Var):
            out.add(node)
    return out


def _order_run(graph: Graph, run: list[TriplePattern], bound: set[Var]) -> list[TriplePattern]:
    """Greedy connected ordering of one run of triple patterns."""
    remaining = list(run)
    ordered: list[TriplePattern] = []
    current_bound = set(bound)
    while remaining:
        connected = [
            p for p in remaining if _pattern_variables(p) & current_bound
        ] or remaining
        best = min(connected, key=lambda p: estimate_pattern(graph, p, current_bound))
        remaining.remove(best)
        ordered.append(best)
        current_bound |= _pattern_variables(best)
    return ordered


def optimize_group(graph: Graph, group: GroupPattern, bound: set[Var] | None = None) -> GroupPattern:
    """Reorder consecutive triple patterns of ``group`` (recursively).

    Nested groups (OPTIONAL/UNION/EXISTS bodies) are optimised with the
    variables of the enclosing patterns assumed bound.
    """
    from repro.paper.sparql.ast import Exists, Filter, OptionalPattern, UnionPattern

    bound = set(bound or ())
    elements: list[object] = []
    run: list[TriplePattern] = []

    def flush() -> None:
        nonlocal run
        if run:
            ordered = _order_run(graph, run, bound)
            elements.extend(ordered)
            for pattern in ordered:
                bound.update(_pattern_variables(pattern))
            run = []

    for element in group.elements:
        if isinstance(element, TriplePattern):
            run.append(element)
            continue
        flush()
        if isinstance(element, OptionalPattern):
            elements.append(OptionalPattern(optimize_group(graph, element.group, bound)))
        elif isinstance(element, UnionPattern):
            elements.append(
                UnionPattern(
                    tuple(optimize_group(graph, branch, bound) for branch in element.branches)
                )
            )
        elif isinstance(element, Exists):
            elements.append(
                Exists(optimize_group(graph, element.group, bound), element.negated)
            )
        elif isinstance(element, GroupPattern):
            elements.append(optimize_group(graph, element, bound))
        else:
            elements.append(element)
    flush()
    return GroupPattern(tuple(elements))
