"""The rule-based comparator (Section 4, "Rule-based").

Two modes:

* ``"faithful"`` (default) — a generated rule program whose derived
  links coincide with the library semantics.  Universal quantification
  over dimensions is *unrolled*: because the dimension bus is known
  when the program is generated (and padding gives every observation a
  value for every dimension), the full-containment rule simply carries
  one atom triple per dimension.  Partial containment needs negation
  (``∃ containing ∧ ¬∀``), which forward rules cannot express, so the
  engine derives ``anyContains`` links and the wrapper subtracts the
  full-containment pairs.
* ``"paper"`` — the three rules as printed in the paper, including
  their relaxed partial-containment rule (shared dimension *value*
  instead of hierarchical ancestry).

The shared prelude computes the reflexive-transitive ``sub`` relation
(``x sub y`` ⟺ y is an ancestor-or-self of x) from ``skos:broader``
edges — the transitive closure whose cost dominates the comparator.
"""

from __future__ import annotations

from typing import Literal as TypingLiteral

from repro.errors import AlgorithmError
from repro.paper.export import space_to_graph
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.rdf.namespaces import CCREL
from repro.rdf.terms import URIRef
from repro.paper.rules import RuleEngine, parse_rules

__all__ = ["compute_rules", "build_rule_program"]

Mode = TypingLiteral["faithful", "paper"]

_PRELUDE = """
[subDirect: (?x skos:broader ?y) -> (?x ccrel:sub ?y)]
[subTrans: (?x ccrel:sub ?y), (?y skos:broader ?z) -> (?x ccrel:sub ?z)]
[subRefl: (?x a skos:Concept) -> (?x ccrel:sub ?x)]
"""


def _full_rule(dimensions: tuple[URIRef, ...]) -> str:
    """Unrolled universal quantification: one atom pair per dimension."""
    atoms = [
        "(?o1 a qb:Observation)",
        "(?o2 a qb:Observation)",
        "notEqual(?o1, ?o2)",
        "(?o1 ?m ?x1)",
        "(?o2 ?m ?x2)",
        "(?m a qb:MeasureProperty)",
    ]
    for position, dimension in enumerate(dimensions):
        atoms.append(f"(?o1 <{dimension}> ?a{position})")
        atoms.append(f"(?o2 <{dimension}> ?b{position})")
        atoms.append(f"(?b{position} ccrel:sub ?a{position})")
    body = ",\n    ".join(atoms)
    return f"[fullContainment:\n    {body}\n    -> (?o1 ccrel:fullyContains ?o2)]"


def _complement_rule(dimensions: tuple[URIRef, ...]) -> str:
    """Equality on every dimension, encoded by shared variables."""
    atoms = [
        "(?o1 a qb:Observation)",
        "(?o2 a qb:Observation)",
        "notEqual(?o1, ?o2)",
    ]
    for position, dimension in enumerate(dimensions):
        atoms.append(f"(?o1 <{dimension}> ?v{position})")
        atoms.append(f"(?o2 <{dimension}> ?v{position})")
    body = ",\n    ".join(atoms)
    return f"[complementarity:\n    {body}\n    -> (?o1 ccrel:complements ?o2)]"


def _any_rules(dimensions: tuple[URIRef, ...]) -> str:
    """One rule per dimension deriving partial-containment candidates."""
    rules = []
    for position, dimension in enumerate(dimensions):
        rules.append(
            f"[anyContainment{position}:\n"
            "    (?o1 a qb:Observation), (?o2 a qb:Observation), notEqual(?o1, ?o2),\n"
            "    (?o1 ?m ?x1), (?o2 ?m ?x2), (?m a qb:MeasureProperty),\n"
            f"    (?o1 <{dimension}> ?v1), (?o2 <{dimension}> ?v2), (?v2 ccrel:sub ?v1)\n"
            "    -> (?o1 ccrel:anyContains ?o2)]"
        )
    return "\n".join(rules)


_PAPER_RULES = """
[paperFull:
    (?o1 a qb:Observation), (?o2 a qb:Observation), notEqual(?o1, ?o2),
    (?o1 ?d ?v1), (?o2 ?d ?v2), (?d a qb:DimensionProperty),
    (?v2 ccrel:sub ?v1)
    -> (?o1 ccrel:fullyContains ?o2)]

[paperPartial:
    (?o1 a qb:Observation), (?o2 a qb:Observation), notEqual(?o1, ?o2),
    (?o1 ?d ?v), (?o2 ?d ?v), (?d a qb:DimensionProperty)
    -> (?o1 ccrel:partiallyContains ?o2)]

[paperComplement:
    (?o1 a qb:Observation), (?o2 a qb:Observation), notEqual(?o1, ?o2),
    (?o1 ?d ?v), (?o2 ?d ?v), (?d a qb:DimensionProperty)
    -> (?o1 ccrel:complements ?o2)]
"""


def build_rule_program(
    dimensions: tuple[URIRef, ...], mode: Mode = "faithful", targets=None
) -> str:
    """Generate the rule text for a dimension bus.

    ``targets`` restricts which relationship rules are included (the
    ``sub`` prelude is always needed).  Note the faithful "partial"
    rules require the full-containment rule too, for the set difference
    in :func:`compute_rules`.
    """
    from repro.core.baseline import normalize_targets

    if mode == "paper":
        return _PRELUDE + _PAPER_RULES
    if mode != "faithful":
        raise AlgorithmError(f"unknown rules mode {mode!r}")
    resolved = normalize_targets(targets)
    parts = [_PRELUDE]
    if "full" in resolved or "partial" in resolved:
        parts.append(_full_rule(dimensions))
    if "complementary" in resolved:
        parts.append(_complement_rule(dimensions))
    if "partial" in resolved:
        parts.append(_any_rules(dimensions))
    return "\n".join(parts)


def compute_rules(
    space: ObservationSpace,
    mode: Mode = "faithful",
    collect_partial: bool = True,
    targets=None,
) -> RelationshipSet:
    """Compute the relationship sets by forward chaining."""
    from repro.core.baseline import normalize_targets

    resolved = normalize_targets(targets, collect_partial)
    graph = space_to_graph(space)
    program = build_rule_program(space.dimensions, mode=mode, targets=resolved)
    engine = RuleEngine(parse_rules(program))
    closed = engine.run(graph)
    result = RelationshipSet()
    full_pairs: set[tuple[URIRef, URIRef]] = set()
    for s, _, o in closed.triples(None, CCREL.fullyContains, None):
        assert isinstance(s, URIRef) and isinstance(o, URIRef)
        full_pairs.add((s, o))
        if "full" in resolved:
            result.add_full(s, o)
    if "complementary" in resolved:
        for s, _, o in closed.triples(None, CCREL.complements, None):
            assert isinstance(s, URIRef) and isinstance(o, URIRef)
            result.add_complementary(s, o)
    if "partial" in resolved:
        if mode == "faithful":
            for s, _, o in closed.triples(None, CCREL.anyContains, None):
                if (s, o) not in full_pairs:
                    assert isinstance(s, URIRef) and isinstance(o, URIRef)
                    result.add_partial(s, o)
        else:
            for s, _, o in closed.triples(None, CCREL.partiallyContains, None):
                assert isinstance(s, URIRef) and isinstance(o, URIRef)
                result.add_partial(s, o)
    return result
