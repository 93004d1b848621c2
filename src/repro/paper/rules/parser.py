"""Parser for the Jena-like rule syntax.

Rule files look like::

    @prefix ex: <http://example.org/> .

    [fullContains:
        (?o1 rdf:type qb:Observation), (?o2 rdf:type qb:Observation),
        notEqual(?o1, ?o2),
        (?o1 ex:geo ?v1), (?o2 ex:geo ?v2), (?v1 ex:contains ?v2)
        -> (?o1 ex:fullyContains ?o2)]

Commas between atoms are optional.  The default prefix table from
:mod:`repro.rdf.namespaces` is pre-loaded.
"""

from __future__ import annotations

import re

from repro.errors import RuleSyntaxError
from repro.rdf.namespaces import PREFIXES, RDF, XSD
from repro.rdf.terms import Literal, Term, URIRef, unescape_string
from repro.paper.rules.ast import Atom, BuiltinCall, Rule, RuleElement, RuleVar

__all__ = ["parse_rules"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*|//[^\n]*)
  | (?P<arrow>->)
  | (?P<prefix>@prefix\b)
  | (?P<iri><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<double>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
  | (?P<decimal>[+-]?\d*\.\d+)
  | (?P<integer>[+-]?\d+)
  | (?P<pname>(?:[A-Za-z_][\w\-.]*)?:[\w\-.%]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[\[\]():,.])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            line = text.count("\n", 0, pos) + 1
            raise RuleSyntaxError(f"unexpected character {text[pos]!r} at line {line}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        tokens.append(_Token(match.lastgroup or "", match.group(), match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _RuleParser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self._prefixes: dict[str, str] = {name: str(ns) for name, ns in PREFIXES.items()}
        self._anonymous = 0

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _error(self, message: str, token: _Token | None = None) -> RuleSyntaxError:
        token = token or self._peek()
        line = self._text.count("\n", 0, token.pos) + 1
        return RuleSyntaxError(f"{message} at line {line}")

    def _expect(self, value: str) -> None:
        token = self._next()
        if token.value != value:
            raise self._error(f"expected {value!r}, found {token.value!r}", token)

    def parse(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._peek().kind != "eof":
            token = self._peek()
            if token.kind == "prefix":
                self._parse_prefix()
            elif token.value == "[":
                rules.append(self._parse_rule())
            else:
                raise self._error(f"expected '[' or @prefix, found {token.value!r}")
        return rules

    def _parse_prefix(self) -> None:
        self._next()
        name_token = self._next()
        if name_token.kind != "pname" or not name_token.value.endswith(":"):
            raise self._error("expected 'name:' after @prefix", name_token)
        iri_token = self._next()
        if iri_token.kind != "iri":
            raise self._error("expected <iri> after prefix name", iri_token)
        self._prefixes[name_token.value[:-1]] = iri_token.value[1:-1]
        if self._peek().value == ".":
            self._next()

    def _parse_rule(self) -> Rule:
        self._expect("[")
        name: str
        token = self._peek()
        if token.kind == "name" and self._tokens[self._index + 1].value == ":":
            name = self._next().value
            self._next()  # ':'
        elif token.kind == "pname" and token.value.endswith(":") and token.value.count(":") == 1:
            # 'ruleName:' lexes as a prefixed name with empty local part.
            name = self._next().value[:-1]
        else:
            self._anonymous += 1
            name = f"rule{self._anonymous}"
        body: list[RuleElement] = []
        while self._peek().kind != "arrow":
            body.append(self._parse_element())
            if self._peek().value == ",":
                self._next()
        self._next()  # '->'
        head: list[Atom] = []
        while self._peek().value != "]":
            element = self._parse_element()
            if not isinstance(element, Atom):
                raise self._error("rule heads may only contain triple atoms")
            head.append(element)
            if self._peek().value == ",":
                self._next()
        self._next()  # ']'
        try:
            return Rule(name=name, body=tuple(body), head=tuple(head))
        except ValueError as exc:
            raise RuleSyntaxError(str(exc)) from exc

    def _parse_element(self) -> RuleElement:
        token = self._peek()
        if token.value == "(":
            self._next()
            subject = self._parse_node()
            predicate = self._parse_node()
            obj = self._parse_node()
            self._expect(")")
            return Atom(subject, predicate, obj)
        if token.kind == "name":
            self._next()
            self._expect("(")
            args: list = []
            while self._peek().value != ")":
                args.append(self._parse_node())
                if self._peek().value == ",":
                    self._next()
            self._next()  # ')'
            return BuiltinCall(token.value, tuple(args))
        raise self._error(f"expected '(' or builtin name, found {token.value!r}")

    def _parse_node(self) -> Term | RuleVar:
        token = self._next()
        if token.kind == "var":
            return RuleVar(token.value[1:])
        if token.kind == "iri":
            return URIRef(token.value[1:-1])
        if token.kind == "pname":
            prefix, _, local = token.value.partition(":")
            if prefix not in self._prefixes:
                raise self._error(f"undefined prefix {prefix!r}", token)
            return URIRef(self._prefixes[prefix] + local)
        if token.kind == "string":
            return Literal(unescape_string(token.value[1:-1]))
        if token.kind == "integer":
            return Literal(token.value, datatype=str(XSD.integer))
        if token.kind == "decimal":
            return Literal(token.value, datatype=str(XSD.decimal))
        if token.kind == "double":
            return Literal(token.value, datatype=str(XSD.double))
        if token.kind == "name" and token.value == "a":
            return RDF.type
        raise self._error(f"expected a term or variable, found {token.value!r}", token)


def parse_rules(text: str) -> list[Rule]:
    """Parse rule text into a list of :class:`Rule` objects."""
    return _RuleParser(text).parse()
