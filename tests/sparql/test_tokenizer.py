"""Unit tests for the SPARQL tokenizer."""

import pytest

from repro.errors import SPARQLSyntaxError
from repro.paper.sparql.tokenizer import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text) if t.kind != "eof"]


def values(text):
    return [t.value for t in tokenize(text) if t.kind != "eof"]


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = list(tokenize("select WHERE Filter"))
        assert all(t.kind == "keyword" for t in tokens[:3])

    def test_builtin_names_are_names(self):
        tokens = list(tokenize("BOUND REGEX"))
        assert tokens[0].kind == "name"
        assert tokens[1].kind == "name"

    def test_variables(self):
        tokens = list(tokenize("?x $y"))
        assert tokens[0].kind == "var" and tokens[0].value == "?x"
        assert tokens[1].kind == "var" and tokens[1].value == "$y"

    def test_iri_and_pname(self):
        assert kinds("<http://e/a> qb:obs") == ["iri", "pname"]

    def test_numbers(self):
        assert kinds("5 -2.5 1e10") == ["integer", "decimal", "double"]

    def test_strings_single_and_double_quotes(self):
        assert kinds('"abc" \'def\'') == ["string", "string"]

    def test_multi_char_operators(self):
        assert values("!= <= >= && || ^^") == ["!=", "<=", ">=", "&&", "||", "^^"]

    def test_path_operators(self):
        assert values("a/b|c* d+") == ["a", "/", "b", "|", "c", "*", "d", "+"]

    def test_comments_skipped(self):
        assert kinds("?x # a comment\n?y") == ["var", "var"]

    def test_bad_character(self):
        with pytest.raises(SPARQLSyntaxError):
            list(tokenize("SELECT @@@"))

    def test_positions_recorded(self):
        tokens = list(tokenize("SELECT ?x"))
        assert tokens[0].pos == 0
        assert tokens[1].pos == 7

    def test_langtag(self):
        assert kinds('"hi"@en') == ["string", "langtag"]
