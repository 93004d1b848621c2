"""Robustness properties: parsers fail cleanly, never with random errors.

For arbitrary input text every parser must either succeed or raise its
documented error type — no ``IndexError``/``KeyError``/``RecursionError``
escapes.  This is the property a service exposing these parsers relies
on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, RuleSyntaxError, SPARQLError, TermError
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.trig import parse_trig
from repro.rdf.turtle import parse_turtle
from repro.paper.rules import parse_rules
from repro.paper.sparql import parse_query

# A mix of plain unicode and syntax-adjacent fragments to hit deep paths.
fragments = st.sampled_from(
    [
        "@prefix ex: <http://e/> .",
        "ex:a ex:p ex:b .",
        "<http://e/a>",
        '"literal"',
        '"typed"^^<http://t>',
        "@en",
        "GRAPH",
        "{", "}", "(", ")", "[", "]", ";", ",", ".",
        "SELECT", "WHERE", "FILTER", "NOT EXISTS",
        "?v", "5", "5.5", "true",
        "[r: (?a ex:p ?b) -> (?a ex:q ?b)]",
        "->", "\\u0041", "\n", "  ",
    ]
)
soup = st.lists(st.one_of(fragments, st.text(max_size=12)), max_size=12).map(" ".join)


@given(soup)
@settings(max_examples=150, deadline=None)
def test_turtle_parser_fails_cleanly(text):
    try:
        parse_turtle(text)
    except (ParseError, TermError):
        pass


@given(soup)
@settings(max_examples=150, deadline=None)
def test_trig_parser_fails_cleanly(text):
    try:
        parse_trig(text)
    except (ParseError, TermError):
        pass


@given(soup)
@settings(max_examples=150, deadline=None)
def test_ntriples_parser_fails_cleanly(text):
    try:
        parse_ntriples(text)
    except (ParseError, TermError):
        pass


@given(soup)
@settings(max_examples=150, deadline=None)
def test_sparql_parser_fails_cleanly(text):
    try:
        parse_query(text)
    except (SPARQLError, TermError):
        pass


@given(soup)
@settings(max_examples=150, deadline=None)
def test_rules_parser_fails_cleanly(text):
    try:
        parse_rules(text)
    except (RuleSyntaxError, TermError):
        pass
