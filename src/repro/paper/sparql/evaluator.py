"""Evaluator for the SPARQL subset.

Evaluation is a straightforward streaming nested-loop index join: a
group pattern threads a list of partial solutions through its elements,
substituting bound variables before each index lookup.  Property paths
with ``*``/``+`` modifiers run a breadth-first closure over the graph.

This deliberately mirrors how a general-purpose engine behaves on the
paper's comparator queries — correct, but with no containment-specific
pruning — which is what makes the SPARQL baseline slow in Figure 5.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import SPARQLEvaluationError
from repro.rdf.dataset import RDFDataset
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, Literal, Term, URIRef
from repro.paper.sparql.ast import (
    Aggregate,
    AskQuery,
    BinaryExpr,
    BindPattern,
    ConstructQuery,
    Exists,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    GraphGraphPattern,
    GroupPattern,
    InExpr,
    MinusPattern,
    OptionalPattern,
    OrderCondition,
    Path,
    PathAlternative,
    PathInverse,
    PathLink,
    PathMod,
    PathSequence,
    Projection,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnaryExpr,
    UnionPattern,
    ValuesPattern,
    Var,
    VarExpr,
)
from repro.paper.sparql.functions import FALSE, TRUE, EvalError, call_builtin, compare_terms, ebv, numeric_value
from repro.paper.sparql.parser import parse_query

__all__ = ["query", "select", "evaluate_group", "Solution"]

Solution = dict[Var, Term]


# ----------------------------------------------------------------------
# Property path evaluation
# ----------------------------------------------------------------------
def _graph_nodes(graph: Graph) -> Iterator[Term]:
    """All terms that occur in subject or object position."""
    seen: set[Term] = set()
    for s, _, o in graph:
        if s not in seen:
            seen.add(s)
            yield s
        if o not in seen:
            seen.add(o)
            yield o


def _path_forward(graph: Graph, path: Path, start: Term) -> Iterator[Term]:
    """All terms reachable from ``start`` over ``path`` (one application)."""
    if isinstance(path, PathLink):
        if isinstance(start, (URIRef, BNode)):
            yield from graph.objects(start, path.iri)  # type: ignore[arg-type]
        return
    if isinstance(path, PathInverse):
        yield from _path_backward(graph, path.path, start)
        return
    if isinstance(path, PathSequence):
        frontier = {start}
        for step in path.steps:
            frontier = {end for node in frontier for end in _path_forward(graph, step, node)}
            if not frontier:
                return
        yield from frontier
        return
    if isinstance(path, PathAlternative):
        seen: set[Term] = set()
        for option in path.options:
            for end in _path_forward(graph, option, start):
                if end not in seen:
                    seen.add(end)
                    yield end
        return
    if isinstance(path, PathMod):
        yield from _closure(graph, path, start, forward=True)
        return
    raise SPARQLEvaluationError(f"unsupported path {path!r}")


def _path_backward(graph: Graph, path: Path, end: Term) -> Iterator[Term]:
    """All terms from which ``end`` is reachable over ``path``."""
    if isinstance(path, PathLink):
        yield from graph.subjects(path.iri, end)
        return
    if isinstance(path, PathInverse):
        yield from _path_forward(graph, path.path, end)
        return
    if isinstance(path, PathSequence):
        frontier = {end}
        for step in reversed(path.steps):
            frontier = {s for node in frontier for s in _path_backward(graph, step, node)}
            if not frontier:
                return
        yield from frontier
        return
    if isinstance(path, PathAlternative):
        seen: set[Term] = set()
        for option in path.options:
            for node in _path_backward(graph, option, end):
                if node not in seen:
                    seen.add(node)
                    yield node
        return
    if isinstance(path, PathMod):
        yield from _closure(graph, path, end, forward=False)
        return
    raise SPARQLEvaluationError(f"unsupported path {path!r}")


def _closure(graph: Graph, mod: PathMod, origin: Term, forward: bool) -> Iterator[Term]:
    """Breadth-first closure for ``* + ?`` path modifiers."""
    step = _path_forward if forward else _path_backward
    if mod.modifier in ("*", "?"):
        yield origin
    if mod.modifier == "?":
        for node in step(graph, mod.path, origin):
            if node != origin:
                yield node
        return
    seen: set[Term] = {origin}
    frontier = [origin]
    while frontier:
        next_frontier: list[Term] = []
        for node in frontier:
            for neighbour in step(graph, mod.path, node):
                if neighbour not in seen:
                    seen.add(neighbour)
                    next_frontier.append(neighbour)
                    yield neighbour
                elif neighbour == origin and mod.modifier == "+":
                    # origin reachable in >=1 steps still counts for '+'.
                    yield origin
                    seen.add(origin)
        frontier = next_frontier


def _path_pairs(graph: Graph, path: Path, subject: Term | None, obj: Term | None) -> Iterator[tuple[Term, Term]]:
    """Yield (subject, object) pairs related by ``path``.

    ``None`` in a position means unbound.  With both ends unbound the
    candidate domain is every node of the graph (required for the
    zero-length semantics of ``*`` and ``?``).
    """
    if subject is not None:
        for end in _path_forward(graph, path, subject):
            if obj is None or obj == end:
                yield (subject, end)
        return
    if obj is not None:
        for start in _path_backward(graph, path, obj):
            yield (start, obj)
        return
    if isinstance(path, PathLink):
        for s, _, o in graph.triples(None, path.iri, None):
            yield (s, o)
        return
    for node in list(_graph_nodes(graph)):
        for end in _path_forward(graph, path, node):
            yield (node, end)


# ----------------------------------------------------------------------
# Pattern evaluation
# ----------------------------------------------------------------------
def _substitute(node: Term | Var, solution: Solution) -> Term | None:
    if isinstance(node, Var):
        return solution.get(node)
    return node


def _match_triple(graph: Graph, pattern: TriplePattern, solution: Solution) -> Iterator[Solution]:
    subject = _substitute(pattern.subject, solution)
    obj = _substitute(pattern.obj, solution)
    predicate = pattern.predicate
    if isinstance(predicate, (PathLink, PathInverse, PathSequence, PathAlternative, PathMod)):
        for s, o in _path_pairs(graph, predicate, subject, obj):
            extended = dict(solution)
            if isinstance(pattern.subject, Var):
                extended[pattern.subject] = s
            if isinstance(pattern.obj, Var):
                if subject is None and isinstance(pattern.subject, Var) and pattern.subject == pattern.obj and s != o:
                    continue
                extended[pattern.obj] = o
            yield extended
        return
    pred_term = _substitute(predicate, solution)  # type: ignore[arg-type]
    sub_q = subject if isinstance(subject, (URIRef, BNode)) or subject is None else subject
    if isinstance(subject, Literal):
        return  # literals cannot be subjects
    for s, p, o in graph.triples(sub_q, pred_term, obj):  # type: ignore[arg-type]
        extended = dict(solution)
        consistent = True
        for var_or_term, value in ((pattern.subject, s), (pattern.predicate, p), (pattern.obj, o)):
            if isinstance(var_or_term, Var):
                bound = extended.get(var_or_term)
                if bound is None:
                    extended[var_or_term] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield extended


def evaluate_group(
    graph: Graph,
    group: GroupPattern,
    bindings: Iterable[Solution],
    dataset: RDFDataset | None = None,
) -> Iterator[Solution]:
    """Thread solutions through the elements of a group pattern.

    ``dataset`` supplies the named graphs for ``GRAPH`` patterns; with
    ``None`` those patterns simply match nothing.
    """
    solutions: Iterable[Solution] = bindings
    for element in group.elements:
        solutions = _apply_element(graph, element, solutions, dataset)
    yield from solutions


def _apply_element(
    graph: Graph,
    element: object,
    solutions: Iterable[Solution],
    dataset: RDFDataset | None = None,
) -> Iterator[Solution]:
    if isinstance(element, TriplePattern):
        for solution in solutions:
            yield from _match_triple(graph, element, solution)
        return
    if isinstance(element, Filter):
        for solution in solutions:
            if _filter_passes(graph, element.expression, solution, dataset):
                yield solution
        return
    if isinstance(element, Exists):
        for solution in solutions:
            has = _group_has_solution(graph, element.group, solution, dataset)
            if has != element.negated:
                yield solution
        return
    if isinstance(element, OptionalPattern):
        for solution in solutions:
            matched = False
            for extended in evaluate_group(graph, element.group, [solution], dataset):
                matched = True
                yield extended
            if not matched:
                yield solution
        return
    if isinstance(element, UnionPattern):
        for solution in solutions:
            for branch in element.branches:
                yield from evaluate_group(graph, branch, [solution], dataset)
        return
    if isinstance(element, GraphGraphPattern):
        names = dataset.names() if dataset is not None else []
        for solution in solutions:
            target = element.name
            if isinstance(target, Var):
                bound = solution.get(target)
                candidates = [bound] if bound is not None else names
            else:
                candidates = [target]
            for name in candidates:
                if dataset is None or not isinstance(name, URIRef) or name not in names:
                    continue
                named_graph = dataset.graph(name, create=False)
                extended_base = dict(solution)
                if isinstance(element.name, Var) and element.name not in extended_base:
                    extended_base[element.name] = name
                yield from evaluate_group(named_graph, element.group, [extended_base], dataset)
        return
    if isinstance(element, BindPattern):
        for solution in solutions:
            if element.variable in solution:
                raise SPARQLEvaluationError(
                    f"BIND would rebind already-bound variable ?{element.variable.name}"
                )
            extended = dict(solution)
            try:
                extended[element.variable] = _evaluate_expression(
                    graph, element.expression, solution
                )
            except EvalError:
                pass  # expression error leaves the variable unbound
            yield extended
        return
    if isinstance(element, MinusPattern):
        removal = list(evaluate_group(graph, element.group, [{}], dataset))
        for solution in solutions:
            removed = False
            for candidate in removal:
                shared = solution.keys() & candidate.keys()
                if shared and all(solution[v] == candidate[v] for v in shared):
                    removed = True
                    break
            if not removed:
                yield solution
        return
    if isinstance(element, ValuesPattern):
        for solution in solutions:
            for row in element.rows:
                extended = dict(solution)
                consistent = True
                for var, value in zip(element.variables, row):
                    if value is None:
                        continue
                    bound = extended.get(var)
                    if bound is None:
                        extended[var] = value
                    elif bound != value:
                        consistent = False
                        break
                if consistent:
                    yield extended
        return
    if isinstance(element, GroupPattern):
        for solution in solutions:
            yield from evaluate_group(graph, element, [solution], dataset)
        return
    raise SPARQLEvaluationError(f"unsupported pattern element {element!r}")


def _group_has_solution(
    graph: Graph, group: GroupPattern, solution: Solution, dataset: RDFDataset | None = None
) -> bool:
    for _ in evaluate_group(graph, group, [dict(solution)], dataset):
        return True
    return False


def _filter_passes(
    graph: Graph, expression: Expression, solution: Solution, dataset: RDFDataset | None = None
) -> bool:
    try:
        return ebv(_evaluate_expression(graph, expression, solution, dataset))
    except EvalError:
        return False


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def _evaluate_expression(
    graph: Graph, expression: Expression, solution: Solution, dataset: RDFDataset | None = None
) -> Term:
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, VarExpr):
        value = solution.get(expression.var)
        if value is None:
            raise EvalError(f"unbound variable {expression.var!r}")
        return value
    if isinstance(expression, UnaryExpr):
        if expression.op == "!":
            inner = ebv(_evaluate_expression(graph, expression.operand, solution))
            return FALSE if inner else TRUE
        if expression.op == "-":
            value = numeric_value(_evaluate_expression(graph, expression.operand, solution))
            return Literal(-value)
        raise EvalError(f"unknown unary operator {expression.op}")
    if isinstance(expression, BinaryExpr):
        return _evaluate_binary(graph, expression, solution)
    if isinstance(expression, FunctionCall):
        if expression.name == "BOUND":
            arg = expression.args[0]
            if not isinstance(arg, VarExpr):
                raise EvalError("BOUND requires a variable")
            return TRUE if arg.var in solution else FALSE
        if expression.name == "IF":
            if len(expression.args) != 3:
                raise EvalError("IF requires exactly three arguments")
            condition = ebv(_evaluate_expression(graph, expression.args[0], solution))
            chosen = expression.args[1] if condition else expression.args[2]
            return _evaluate_expression(graph, chosen, solution)
        if expression.name == "COALESCE":
            for arg in expression.args:
                try:
                    return _evaluate_expression(graph, arg, solution)
                except EvalError:
                    continue
            raise EvalError("COALESCE: every argument errored")
        args = [_evaluate_expression(graph, arg, solution) for arg in expression.args]
        return call_builtin(expression.name, args)
    if isinstance(expression, ExistsExpr):
        has = _group_has_solution(graph, expression.group, solution, dataset)
        return TRUE if has != expression.negated else FALSE
    if isinstance(expression, InExpr):
        needle = _evaluate_expression(graph, expression.needle, solution)
        found = False
        for option in expression.haystack:
            try:
                if compare_terms("=", needle, _evaluate_expression(graph, option, solution)):
                    found = True
                    break
            except EvalError:
                continue
        return TRUE if found != expression.negated else FALSE
    raise EvalError(f"unsupported expression {expression!r}")


def _evaluate_binary(graph: Graph, expression: BinaryExpr, solution: Solution) -> Term:
    op = expression.op
    if op == "||":
        # SPARQL 3-valued OR: an error on one side is recoverable if the
        # other side is true.
        left_err: EvalError | None = None
        try:
            if ebv(_evaluate_expression(graph, expression.left, solution)):
                return TRUE
        except EvalError as exc:
            left_err = exc
        right = ebv(_evaluate_expression(graph, expression.right, solution))
        if right:
            return TRUE
        if left_err is not None:
            raise left_err
        return FALSE
    if op == "&&":
        left_err = None
        left_value = True
        try:
            left_value = ebv(_evaluate_expression(graph, expression.left, solution))
            if not left_value:
                return FALSE
        except EvalError as exc:
            left_err = exc
        right = ebv(_evaluate_expression(graph, expression.right, solution))
        if not right:
            return FALSE
        if left_err is not None:
            raise left_err
        return TRUE
    left = _evaluate_expression(graph, expression.left, solution)
    right = _evaluate_expression(graph, expression.right, solution)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return TRUE if compare_terms(op, left, right) else FALSE
    if op in ("+", "-", "*", "/"):
        lv, rv = numeric_value(left), numeric_value(right)
        try:
            if op == "+":
                return Literal(lv + rv)
            if op == "-":
                return Literal(lv - rv)
            if op == "*":
                return Literal(lv * rv)
            return Literal(lv / rv)
        except ZeroDivisionError as exc:
            raise EvalError("division by zero") from exc
    raise EvalError(f"unknown operator {op}")


# ----------------------------------------------------------------------
# Query execution
# ----------------------------------------------------------------------
def _sort_key_for(term: Term | None):
    if term is None:
        return (-1, "")
    try:
        value = numeric_value(term)
        return (1, float(value))
    except EvalError:
        return (2,) + term._sort_key()


def _evaluate_aggregate(
    graph: Graph, aggregate: Aggregate, solutions: list[Solution]
) -> Term | None:
    """Fold an aggregate over one group; ``None`` means unbound."""
    if aggregate.argument is None:  # COUNT(*)
        if aggregate.distinct:
            distinct = {
                tuple(sorted((v.name, t) for v, t in sol.items())) for sol in solutions
            }
            return Literal(len(distinct))
        return Literal(len(solutions))
    values: list[Term] = []
    for solution in solutions:
        try:
            values.append(_evaluate_expression(graph, aggregate.argument, solution))
        except EvalError:
            continue
    if aggregate.distinct:
        unique: list[Term] = []
        seen: set[Term] = set()
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    name = aggregate.name
    if name == "COUNT":
        return Literal(len(values))
    if name == "SAMPLE":
        return values[0] if values else None
    if name == "SUM":
        total = 0
        for value in values:
            total = total + numeric_value(value)
        return Literal(total)
    if not values:
        return None
    if name == "AVG":
        total = 0
        for value in values:
            total = total + numeric_value(value)
        return Literal(total / len(values))
    # MIN/MAX: numeric when possible, else lexicographic on sort keys.
    try:
        keyed = [(numeric_value(v), v) for v in values]
    except EvalError:
        keyed = [(v._sort_key(), v) for v in values]  # type: ignore[misc]
    keyed.sort(key=lambda pair: pair[0])
    return keyed[0][1] if name == "MIN" else keyed[-1][1]


def _select_with_aggregates(graph: Graph, parsed: SelectQuery, solutions: list[Solution]) -> list[Solution]:
    """GROUP BY evaluation: one output row per group."""
    group_vars = parsed.group_by
    groups: dict[tuple, list[Solution]] = {}
    for solution in solutions:
        key = tuple(solution.get(var) for var in group_vars)
        groups.setdefault(key, []).append(solution)
    if not group_vars and not groups:
        groups[()] = []  # aggregates over an empty match set still yield a row
    grouped_allowed = set(group_vars)
    rows: list[Solution] = []
    for key, members in groups.items():
        row: Solution = {}
        key_bindings: Solution = {
            var: term for var, term in zip(group_vars, key) if term is not None
        }
        for projection in parsed.projections:
            if projection.expression is None:
                if projection.variable not in grouped_allowed:
                    raise SPARQLEvaluationError(
                        f"variable ?{projection.variable.name} must appear in GROUP BY"
                    )
                value = key_bindings.get(projection.variable)
                if value is not None:
                    row[projection.variable] = value
            elif isinstance(projection.expression, Aggregate):
                value = _evaluate_aggregate(graph, projection.expression, members)
                if value is not None:
                    row[projection.variable] = value
            else:
                try:
                    row[projection.variable] = _evaluate_expression(
                        graph, projection.expression, key_bindings
                    )
                except EvalError:
                    pass
        rows.append(row)
    return rows


def select(
    graph: Graph,
    parsed: SelectQuery,
    optimize: bool = True,
    dataset: RDFDataset | None = None,
) -> list[Solution]:
    """Execute a parsed SELECT query and return solution mappings.

    ``optimize`` (default) reorders basic graph patterns by estimated
    selectivity before evaluation; results are identical either way.
    """
    where = _maybe_optimize(graph, parsed.where, optimize)
    solutions = list(evaluate_group(graph, where, [{}], dataset))
    has_aggregates = any(
        isinstance(p.expression, Aggregate) for p in parsed.projections
    )
    if parsed.group_by or has_aggregates:
        projected = _select_with_aggregates(graph, parsed, solutions)
        if parsed.having:
            # HAVING evaluates over the projected row, so aggregate
            # aliases are visible to the condition.
            projected = [
                row
                for row in projected
                if all(_filter_passes(graph, condition, row) for condition in parsed.having)
            ]
    elif parsed.projections and any(p.expression is not None for p in parsed.projections):
        projected = []
        for solution in solutions:
            row: Solution = {}
            for projection in parsed.projections:
                if projection.expression is None:
                    if projection.variable in solution:
                        row[projection.variable] = solution[projection.variable]
                else:
                    try:
                        row[projection.variable] = _evaluate_expression(
                            graph, projection.expression, solution  # type: ignore[arg-type]
                        )
                    except EvalError:
                        pass
            projected.append(row)
    elif parsed.variables:
        projected = [
            {var: sol[var] for var in parsed.variables if var in sol} for sol in solutions
        ]
    else:
        projected = solutions
    if parsed.order_by:
        def order_key(sol: Solution):
            key = []
            for condition in parsed.order_by:
                try:
                    term = _evaluate_expression(graph, condition.expression, sol)
                except EvalError:
                    term = None
                part = _sort_key_for(term)
                key.append((part, condition.descending))
            return tuple(
                _Reversed(part) if desc else part for part, desc in key
            )
        projected.sort(key=order_key)
    if parsed.distinct:
        seen: set[tuple] = set()
        unique: list[Solution] = []
        for sol in projected:
            fingerprint = tuple(sorted((v.name, t) for v, t in sol.items()))
            if fingerprint not in seen:
                seen.add(fingerprint)
                unique.append(sol)
        projected = unique
    if parsed.offset:
        projected = projected[parsed.offset :]
    if parsed.limit is not None:
        projected = projected[: parsed.limit]
    return projected


class _Reversed:
    """Wrapper inverting comparison order, for ORDER BY ... DESC."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _maybe_optimize(graph: Graph, group: GroupPattern, optimize: bool) -> GroupPattern:
    if not optimize:
        return group
    from repro.paper.sparql.optimizer import optimize_group

    return optimize_group(graph, group)


def construct(
    graph: Graph,
    parsed: ConstructQuery,
    optimize: bool = True,
    dataset: RDFDataset | None = None,
) -> Graph:
    """Execute a CONSTRUCT query; returns the built graph.

    Template triples with unbound variables or invalid positions
    (literal subjects/predicates) are skipped per solution, as the
    SPARQL specification requires.
    """
    out = Graph()
    where = _maybe_optimize(graph, parsed.where, optimize)
    for solution in evaluate_group(graph, where, [{}], dataset):
        for pattern in parsed.template:
            s = _substitute(pattern.subject, solution)
            p = _substitute(pattern.predicate, solution)  # type: ignore[arg-type]
            o = _substitute(pattern.obj, solution)
            if not isinstance(s, (URIRef, BNode)) or not isinstance(p, URIRef) or o is None:
                continue
            out.add((s, p, o))
    return out


def query(
    graph: Graph | RDFDataset, text: str, optimize: bool = True
) -> list[Solution] | bool | Graph:
    """Parse and execute ``text`` against a graph or RDF dataset.

    SELECT queries return a list of ``{Var: Term}`` solution dicts, ASK
    queries a boolean, CONSTRUCT queries a :class:`Graph`.  ``optimize``
    toggles BGP join reordering (results are order-independent).

    Passing an :class:`~repro.rdf.dataset.RDFDataset` makes ``GRAPH``
    patterns match its named graphs; plain patterns match its default
    graph.
    """
    dataset: RDFDataset | None = None
    if isinstance(graph, RDFDataset):
        dataset = graph
        graph = dataset.default
    parsed = parse_query(text)
    if isinstance(parsed, AskQuery):
        where = _maybe_optimize(graph, parsed.where, optimize)
        return _group_has_solution(graph, where, {}, dataset)
    if isinstance(parsed, ConstructQuery):
        return construct(graph, parsed, optimize=optimize, dataset=dataset)
    return select(graph, parsed, optimize=optimize, dataset=dataset)
