"""Abstract syntax tree for the SPARQL subset.

The node classes are plain immutable dataclasses; evaluation logic lives
in :mod:`repro.paper.sparql.evaluator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.rdf.terms import Term

__all__ = [
    "Var",
    "PathLink",
    "PathInverse",
    "PathSequence",
    "PathAlternative",
    "PathMod",
    "Path",
    "TriplePattern",
    "Filter",
    "Exists",
    "OptionalPattern",
    "UnionPattern",
    "GroupPattern",
    "ValuesPattern",
    "BindPattern",
    "MinusPattern",
    "GraphGraphPattern",
    "Expression",
    "TermExpr",
    "VarExpr",
    "UnaryExpr",
    "BinaryExpr",
    "FunctionCall",
    "ExistsExpr",
    "InExpr",
    "OrderCondition",
    "Aggregate",
    "Projection",
    "SelectQuery",
    "ConstructQuery",
    "AskQuery",
]


@dataclass(frozen=True)
class Var:
    """A query variable, stored without the ``?``/``$`` sigil."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


# ----------------------------------------------------------------------
# Property paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathLink:
    """An atomic path step: a single predicate IRI."""

    iri: Term


@dataclass(frozen=True)
class PathInverse:
    """``^path`` — traverse the inner path backwards."""

    path: "Path"


@dataclass(frozen=True)
class PathSequence:
    """``p1/p2/...`` — paths applied one after the other."""

    steps: tuple["Path", ...]


@dataclass(frozen=True)
class PathAlternative:
    """``p1|p2|...`` — union of the component paths."""

    options: tuple["Path", ...]


@dataclass(frozen=True)
class PathMod:
    """``path*``, ``path+`` or ``path?`` closures."""

    path: "Path"
    modifier: str  # one of '*', '+', '?'


Path = Union[PathLink, PathInverse, PathSequence, PathAlternative, PathMod]


# ----------------------------------------------------------------------
# Graph patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern; the predicate may be a property path."""

    subject: Term | Var
    predicate: Term | Var | PathInverse | PathSequence | PathAlternative | PathMod | PathLink
    obj: Term | Var


@dataclass(frozen=True)
class Filter:
    """``FILTER expr`` constraint inside a group."""

    expression: "Expression"


@dataclass(frozen=True)
class Exists:
    """``FILTER [NOT] EXISTS { ... }`` used as a pattern-level constraint."""

    group: "GroupPattern"
    negated: bool


@dataclass(frozen=True)
class OptionalPattern:
    """``OPTIONAL { ... }``."""

    group: "GroupPattern"


@dataclass(frozen=True)
class UnionPattern:
    """``{ ... } UNION { ... } [UNION ...]``."""

    branches: tuple["GroupPattern", ...]


@dataclass(frozen=True)
class ValuesPattern:
    """``VALUES (?a ?b) { (x y) ... }`` inline data."""

    variables: tuple[Var, ...]
    rows: tuple[tuple[Term | None, ...], ...]


@dataclass(frozen=True)
class BindPattern:
    """``BIND(expr AS ?var)``."""

    expression: "Expression"
    variable: Var


@dataclass(frozen=True)
class MinusPattern:
    """``MINUS { ... }`` — remove compatible solutions."""

    group: "GroupPattern"


@dataclass(frozen=True)
class GraphGraphPattern:
    """``GRAPH ?g { ... }`` / ``GRAPH <iri> { ... }``."""

    name: Term | Var
    group: "GroupPattern"


@dataclass(frozen=True)
class GroupPattern:
    """A ``{ ... }`` group: ordered list of patterns and constraints."""

    elements: tuple[object, ...] = field(default_factory=tuple)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TermExpr:
    term: Term


@dataclass(frozen=True)
class VarExpr:
    var: Var


@dataclass(frozen=True)
class UnaryExpr:
    op: str  # '!' or '-'
    operand: "Expression"


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # comparison, arithmetic or logical operator
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class FunctionCall:
    name: str  # upper-cased builtin name, e.g. 'BOUND'
    args: tuple["Expression", ...]


@dataclass(frozen=True)
class ExistsExpr:
    """``[NOT] EXISTS { ... }`` inside an expression."""

    group: GroupPattern
    negated: bool


@dataclass(frozen=True)
class InExpr:
    """``expr [NOT] IN (e1, e2, ...)``."""

    needle: "Expression"
    haystack: tuple["Expression", ...]
    negated: bool


Expression = Union[TermExpr, VarExpr, UnaryExpr, BinaryExpr, FunctionCall, ExistsExpr, InExpr]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Aggregate:
    """An aggregate call in a projection: COUNT/SUM/AVG/MIN/MAX.

    ``argument is None`` encodes ``COUNT(*)``.
    """

    name: str  # upper-cased
    argument: "Expression | None"
    distinct: bool = False


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a bare variable or ``(expr AS ?alias)``."""

    variable: Var
    expression: "Expression | Aggregate | None" = None  # None = bare variable


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    variables: tuple[Var, ...]  # empty tuple means SELECT *
    where: GroupPattern
    distinct: bool = False
    order_by: tuple[OrderCondition, ...] = ()
    limit: int | None = None
    offset: int = 0
    projections: tuple[Projection, ...] = ()  # aliased/aggregate items
    group_by: tuple[Var, ...] = ()
    having: tuple["Expression", ...] = ()


@dataclass(frozen=True)
class ConstructQuery:
    """``CONSTRUCT { template } WHERE { ... }``."""

    template: tuple[TriplePattern, ...]
    where: GroupPattern


@dataclass(frozen=True)
class AskQuery:
    where: GroupPattern
