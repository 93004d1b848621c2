"""Semi-naive forward-chaining engine.

:class:`RuleEngine` materialises the closure of a rule set over a
graph.  Each iteration matches every rule with the requirement that at
least one body atom touches the delta (triples new in the previous
iteration), which avoids re-deriving the same consequences — the
standard semi-naive evaluation strategy.

Builtin guards are evaluated as soon as all of their variables are
bound; a guard over variables that never get bound raises
:class:`~repro.errors.RuleEvaluationError`.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import RuleEvaluationError
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, Literal, Term, Triple, URIRef
from repro.paper.rules.ast import Atom, BuiltinCall, Rule, RuleVar
from repro.paper.rules.builtins import BUILTINS

__all__ = ["RuleEngine"]

Substitution = dict[RuleVar, Term]


def _resolve(node, substitution: Substitution):
    if isinstance(node, RuleVar):
        return substitution.get(node)
    return node


class RuleEngine:
    """Forward-chaining materialisation over a rule set.

    Parameters
    ----------
    rules:
        The rules to apply, e.g. from :func:`repro.paper.rules.parse_rules`.
    max_iterations:
        Safety bound on fixpoint iterations (the closure of a finite
        graph always terminates, but a bound keeps pathological rule
        sets from spinning).
    """

    def __init__(self, rules: list[Rule], max_iterations: int = 10_000):
        self.rules = list(rules)
        self.max_iterations = max_iterations
        for rule in self.rules:
            for element in rule.body:
                if isinstance(element, BuiltinCall) and element.name not in BUILTINS:
                    raise RuleEvaluationError(
                        f"rule {rule.name!r} uses unknown builtin {element.name!r}"
                    )

    # ------------------------------------------------------------------
    def run(self, graph: Graph, in_place: bool = False) -> Graph:
        """Compute the closure; returns the materialised graph.

        With ``in_place=False`` (default) the input graph is left
        untouched and a copy including all derived triples is returned.
        """
        store = graph if in_place else graph.copy()
        delta = Graph(store)
        iterations = 0
        while len(delta) and iterations < self.max_iterations:
            iterations += 1
            first = iterations == 1
            new_delta = Graph()
            for rule in self.rules:
                for derived in self._apply_rule(rule, store, delta, first=first):
                    if derived not in store:
                        new_delta.add(derived)
            store.update(new_delta)
            delta = new_delta
        if iterations >= self.max_iterations and len(delta):
            raise RuleEvaluationError(
                f"fixpoint not reached within {self.max_iterations} iterations"
            )
        self.last_iterations = iterations
        return store

    def inferred(self, graph: Graph) -> Graph:
        """Return only the derived triples (closure minus input)."""
        return self.run(graph) - graph

    # ------------------------------------------------------------------
    def _apply_rule(
        self, rule: Rule, store: Graph, delta: Graph, first: bool = False
    ) -> Iterator[Triple]:
        atoms = [e for e in rule.body if isinstance(e, Atom)]
        builtins = [e for e in rule.body if isinstance(e, BuiltinCall)]
        if not atoms:
            # A body of only builtins fires once if all guards pass on
            # the empty substitution (only possible with 0-var guards).
            if all(self._check_builtin(b, {}) for b in builtins):
                yield from self._instantiate_head(rule, {})
            return
        # Semi-naive: for each atom position, require that atom to match
        # the delta while the others match the full store.  On the first
        # iteration delta == store, so one position suffices.
        seen: set[tuple] = set()
        positions = range(1) if first else range(len(atoms))
        for delta_index in positions:
            for substitution in self._match_atoms(atoms, builtins, store, delta, delta_index):
                fingerprint = tuple(sorted((v.name, t) for v, t in substitution.items()))
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                yield from self._instantiate_head(rule, substitution)

    def _match_atoms(
        self,
        atoms: list[Atom],
        builtins: list[BuiltinCall],
        store: Graph,
        delta: Graph,
        delta_index: int,
    ) -> Iterator[Substitution]:
        # Match the delta atom first (restricting the join to new facts),
        # then greedily pick the most-bound remaining atom so the join
        # stays connected instead of degenerating into cross products.
        first_atom = atoms[delta_index]
        ordered = [first_atom]
        bound: set[RuleVar] = first_atom.variables()
        remaining_atoms = atoms[:delta_index] + atoms[delta_index + 1 :]
        while remaining_atoms:
            def boundness(atom: Atom) -> int:
                score = 0
                for node in (atom.subject, atom.predicate, atom.obj):
                    if not isinstance(node, RuleVar) or node in bound:
                        score += 1
                return score

            best = max(remaining_atoms, key=boundness)
            remaining_atoms.remove(best)
            ordered.append(best)
            bound |= best.variables()
        sources = [delta] + [store] * (len(atoms) - 1)

        def recurse(index: int, substitution: Substitution, pending: list[BuiltinCall]) -> Iterator[Substitution]:
            ready = [b for b in pending if self._is_bound(b, substitution)]
            for guard in ready:
                if not self._check_builtin(guard, substitution):
                    return
            remaining = [b for b in pending if not self._is_bound(b, substitution)]
            if index == len(ordered):
                if remaining:
                    names = ", ".join(b.name for b in remaining)
                    raise RuleEvaluationError(f"builtins with unbound variables: {names}")
                yield substitution
                return
            atom = ordered[index]
            source = sources[index]
            s = _resolve(atom.subject, substitution)
            p = _resolve(atom.predicate, substitution)
            o = _resolve(atom.obj, substitution)
            if isinstance(s, Literal):
                return
            for ts, tp, to in source.triples(s, p, o):  # type: ignore[arg-type]
                extended = dict(substitution)
                ok = True
                for node, value in ((atom.subject, ts), (atom.predicate, tp), (atom.obj, to)):
                    if isinstance(node, RuleVar):
                        bound = extended.get(node)
                        if bound is None:
                            extended[node] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    yield from recurse(index + 1, extended, remaining)

        yield from recurse(0, {}, list(builtins))

    @staticmethod
    def _is_bound(guard: BuiltinCall, substitution: Substitution) -> bool:
        return all(not isinstance(a, RuleVar) or a in substitution for a in guard.args)

    @staticmethod
    def _check_builtin(guard: BuiltinCall, substitution: Substitution) -> bool:
        function = BUILTINS[guard.name]
        args = [_resolve(a, substitution) for a in guard.args]
        return function(*args)

    @staticmethod
    def _instantiate_head(rule: Rule, substitution: Substitution) -> Iterator[Triple]:
        for atom in rule.head:
            s = _resolve(atom.subject, substitution)
            p = _resolve(atom.predicate, substitution)
            o = _resolve(atom.obj, substitution)
            if not isinstance(s, (URIRef, BNode)) or not isinstance(p, URIRef) or o is None:
                raise RuleEvaluationError(
                    f"rule {rule.name!r} produced an invalid triple ({s!r}, {p!r}, {o!r})"
                )
            yield (s, p, o)
