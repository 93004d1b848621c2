"""Recursive-descent parser for the SPARQL subset.

Grammar (informal)::

    Query        := Prologue (SelectQuery | AskQuery | ConstructQuery)
    Prologue     := (PREFIX pname: <iri>)*
    SelectQuery  := SELECT [DISTINCT] (Projection+ | '*') WHERE? Group
                    [GROUP BY Var+] [HAVING '(' Expr ')']*
                    [ORDER BY Cond+] [LIMIT n] [OFFSET n]
    Projection   := Var | '(' (Expr | Aggregate) AS Var ')'
    Aggregate    := (COUNT|SUM|AVG|MIN|MAX|SAMPLE) '(' [DISTINCT] ('*'|Expr) ')'
    Construct    := CONSTRUCT '{' Template '}' WHERE? Group
    Group        := '{' (TriplesBlock | Filter | Optional | Union | Minus
                         | Bind | Values | GraphBlock | Group)* '}'
    GraphBlock   := GRAPH (Var | iri) Group
    Filter       := FILTER ( '(' Expr ')' | [NOT] EXISTS Group | Builtin )
    Bind         := BIND '(' Expr AS Var ')'
    Path         := PathAlt ; PathAlt := PathSeq ('|' PathSeq)* ;
                    PathSeq := PathElt ('/' PathElt)* ;
                    PathElt := ['^'] PathPrimary ['*'|'+'|'?']

Expressions support ``|| && ! = != < <= > >= + - * / IN NOT IN`` and the
builtins listed in ``_BUILTIN_FUNCTIONS`` (``BOUND``, ``STR``, ``REGEX``,
``IF``, ``COALESCE``, string and numeric functions, ...).
"""

from __future__ import annotations

from repro.errors import SPARQLSyntaxError
from repro.rdf.namespaces import PREFIXES, RDF, XSD
from repro.rdf.terms import BNode, Literal, Term, URIRef, unescape_string
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
from repro.paper.sparql.tokenizer import Token, tokenize

__all__ = ["parse_query"]

_BUILTIN_FUNCTIONS = {
    "BOUND",
    "STR",
    "DATATYPE",
    "LANG",
    "ISIRI",
    "ISURI",
    "ISBLANK",
    "ISLITERAL",
    "ISNUMERIC",
    "REGEX",
    "SAMETERM",
    "STRSTARTS",
    "STRENDS",
    "CONTAINS",
    "STRLEN",
    "ABS",
    "IF",
    "COALESCE",
    "UCASE",
    "LCASE",
    "CONCAT",
    "STRBEFORE",
    "STRAFTER",
    "SUBSTR",
    "REPLACE",
    "ROUND",
    "FLOOR",
    "CEIL",
}


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = list(tokenize(text))
        self._index = 0
        self._prefixes: dict[str, str] = {name: str(ns) for name, ns in PREFIXES.items()}

    # -- token plumbing -------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> SPARQLSyntaxError:
        token = token or self._peek()
        return SPARQLSyntaxError(message, position=token.pos)

    def _expect_op(self, value: str) -> None:
        token = self._next()
        if token.kind != "op" or token.value != value:
            raise self._error(f"expected {value!r}, found {token.value!r}", token)

    def _expect_keyword(self, name: str) -> None:
        token = self._next()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}, found {token.value!r}", token)

    def _at_op(self, value: str) -> bool:
        token = self._peek()
        return token.kind == "op" and token.value == value

    # -- entry ----------------------------------------------------------
    def parse(self) -> SelectQuery | AskQuery | ConstructQuery:
        self._parse_prologue()
        token = self._peek()
        if token.is_keyword("SELECT"):
            result = self._parse_select()
        elif token.is_keyword("ASK"):
            result = self._parse_ask()
        elif token.is_keyword("CONSTRUCT"):
            result = self._parse_construct()
        else:
            raise self._error("query must start with SELECT, ASK or CONSTRUCT")
        if self._peek().kind != "eof":
            raise self._error(f"unexpected trailing input {self._peek().value!r}")
        return result

    def _parse_prologue(self) -> None:
        while self._peek().is_keyword("PREFIX"):
            self._next()
            name_token = self._next()
            if name_token.kind != "pname" or not name_token.value.endswith(":"):
                raise self._error("expected 'name:' after PREFIX", name_token)
            iri_token = self._next()
            if iri_token.kind != "iri":
                raise self._error("expected <iri> after prefix name", iri_token)
            self._prefixes[name_token.value[:-1]] = iri_token.value[1:-1]

    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = False
        if self._peek().is_keyword("DISTINCT", "REDUCED"):
            distinct = self._next().value.upper() == "DISTINCT"
        projections: list[Projection] = []
        if self._at_op("*"):
            self._next()
        else:
            while True:
                token = self._peek()
                if token.kind == "var":
                    projections.append(Projection(Var(self._next().value[1:])))
                elif token.kind == "op" and token.value == "(":
                    projections.append(self._parse_aliased_projection())
                else:
                    break
            if not projections:
                raise self._error("SELECT needs '*' or at least one projection")
        if self._peek().is_keyword("WHERE"):
            self._next()
        where = self._parse_group()
        group_by: list[Var] = []
        having: list[Expression] = []
        order_by: list[OrderCondition] = []
        limit: int | None = None
        offset = 0
        while True:
            token = self._peek()
            if token.is_keyword("GROUP"):
                self._next()
                self._expect_keyword("BY")
                while self._peek().kind == "var":
                    group_by.append(Var(self._next().value[1:]))
                if not group_by:
                    raise self._error("GROUP BY requires at least one variable")
            elif token.is_keyword("HAVING"):
                self._next()
                self._expect_op("(")
                having.append(self._parse_expression())
                self._expect_op(")")
            elif token.is_keyword("ORDER"):
                self._next()
                self._expect_keyword("BY")
                order_by.extend(self._parse_order_conditions())
            elif token.is_keyword("LIMIT"):
                self._next()
                limit = self._parse_integer()
            elif token.is_keyword("OFFSET"):
                self._next()
                offset = self._parse_integer()
            else:
                break
        bare = tuple(p.variable for p in projections if p.expression is None)
        return SelectQuery(
            variables=bare if len(bare) == len(projections) else (),
            where=where,
            distinct=distinct,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            projections=tuple(projections),
            group_by=tuple(group_by),
            having=tuple(having),
        )

    _AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE"}

    def _parse_aliased_projection(self) -> Projection:
        """``( expr AS ?alias )`` where expr may be an aggregate call."""
        self._expect_op("(")
        token = self._peek()
        expression: Expression | Aggregate
        if token.kind == "name" and token.value.upper() in self._AGGREGATE_NAMES:
            expression = self._parse_aggregate()
        else:
            expression = self._parse_expression()
        self._expect_keyword("AS")
        var_token = self._next()
        if var_token.kind != "var":
            raise self._error("expected a variable after AS", var_token)
        self._expect_op(")")
        return Projection(Var(var_token.value[1:]), expression)

    def _parse_aggregate(self) -> Aggregate:
        name = self._next().value.upper()
        self._expect_op("(")
        distinct = False
        if self._peek().is_keyword("DISTINCT"):
            self._next()
            distinct = True
        if self._at_op("*"):
            self._next()
            if name != "COUNT":
                raise self._error(f"{name}(*) is not valid; only COUNT(*)")
            argument = None
        else:
            argument = self._parse_expression()
        self._expect_op(")")
        return Aggregate(name, argument, distinct)

    def _parse_ask(self) -> AskQuery:
        self._expect_keyword("ASK")
        if self._peek().is_keyword("WHERE"):
            self._next()
        return AskQuery(where=self._parse_group())

    def _parse_construct(self) -> ConstructQuery:
        self._expect_keyword("CONSTRUCT")
        self._expect_op("{")
        template: list[TriplePattern] = []
        while not self._at_op("}"):
            for pattern in self._parse_triples_block():
                if not isinstance(pattern.predicate, (URIRef, Var)):
                    raise self._error("property paths are not allowed in CONSTRUCT templates")
                template.append(pattern)
            if self._at_op("."):
                self._next()
        self._next()  # '}'
        if self._peek().is_keyword("WHERE"):
            self._next()
        return ConstructQuery(template=tuple(template), where=self._parse_group())

    def _parse_integer(self) -> int:
        token = self._next()
        if token.kind != "integer":
            raise self._error("expected an integer", token)
        return int(token.value)

    def _parse_order_conditions(self) -> list[OrderCondition]:
        conditions: list[OrderCondition] = []
        while True:
            token = self._peek()
            if token.is_keyword("ASC", "DESC"):
                descending = self._next().value.upper() == "DESC"
                self._expect_op("(")
                expr = self._parse_expression()
                self._expect_op(")")
                conditions.append(OrderCondition(expr, descending))
            elif token.kind == "var":
                conditions.append(OrderCondition(VarExpr(Var(self._next().value[1:]))))
            else:
                break
        if not conditions:
            raise self._error("ORDER BY requires at least one condition")
        return conditions

    # -- graph patterns ---------------------------------------------------
    def _parse_group(self) -> GroupPattern:
        self._expect_op("{")
        elements: list[object] = []
        while not self._at_op("}"):
            token = self._peek()
            if token.is_keyword("FILTER"):
                self._next()
                elements.append(self._parse_filter_body())
            elif token.is_keyword("OPTIONAL"):
                self._next()
                elements.append(OptionalPattern(self._parse_group()))
            elif token.is_keyword("MINUS"):
                self._next()
                elements.append(MinusPattern(self._parse_group()))
            elif token.is_keyword("GRAPH"):
                self._next()
                name_token = self._peek()
                if name_token.kind == "var":
                    self._next()
                    name = Var(name_token.value[1:])
                else:
                    name = self._parse_term_token()
                    if not isinstance(name, URIRef):
                        raise self._error("GRAPH requires a variable or IRI", name_token)
                elements.append(GraphGraphPattern(name, self._parse_group()))
            elif token.is_keyword("BIND"):
                self._next()
                self._expect_op("(")
                expression = self._parse_expression()
                self._expect_keyword("AS")
                var_token = self._next()
                if var_token.kind != "var":
                    raise self._error("expected a variable after AS", var_token)
                self._expect_op(")")
                elements.append(BindPattern(expression, Var(var_token.value[1:])))
            elif token.is_keyword("VALUES"):
                self._next()
                elements.append(self._parse_values())
            elif token.kind == "op" and token.value == "{":
                elements.append(self._parse_union_or_group())
            elif token.kind == "eof":
                raise self._error("unterminated group pattern")
            else:
                elements.extend(self._parse_triples_block())
            if self._at_op("."):
                self._next()
        self._next()  # consume '}'
        return GroupPattern(tuple(elements))

    def _parse_union_or_group(self) -> object:
        branches = [self._parse_group()]
        while self._peek().is_keyword("UNION"):
            self._next()
            branches.append(self._parse_group())
        if len(branches) == 1:
            return branches[0]
        return UnionPattern(tuple(branches))

    def _parse_filter_body(self) -> object:
        token = self._peek()
        if token.is_keyword("NOT"):
            self._next()
            self._expect_keyword("EXISTS")
            return Exists(self._parse_group(), negated=True)
        if token.is_keyword("EXISTS"):
            self._next()
            return Exists(self._parse_group(), negated=False)
        if self._at_op("("):
            self._next()
            expr = self._parse_expression()
            self._expect_op(")")
            return Filter(expr)
        if token.kind == "name" and token.value.upper() in _BUILTIN_FUNCTIONS:
            return Filter(self._parse_primary_expression())
        raise self._error("FILTER requires '(', EXISTS or a builtin call")

    def _parse_values(self) -> ValuesPattern:
        variables: list[Var] = []
        single = False
        if self._peek().kind == "var":
            variables.append(Var(self._next().value[1:]))
            single = True
        else:
            self._expect_op("(")
            while self._peek().kind == "var":
                variables.append(Var(self._next().value[1:]))
            self._expect_op(")")
        self._expect_op("{")
        rows: list[tuple[Term | None, ...]] = []
        while not self._at_op("}"):
            if single:
                rows.append((self._parse_values_term(),))
            else:
                self._expect_op("(")
                row: list[Term | None] = []
                while not self._at_op(")"):
                    row.append(self._parse_values_term())
                self._next()
                if len(row) != len(variables):
                    raise self._error("VALUES row arity mismatch")
                rows.append(tuple(row))
        self._next()
        return ValuesPattern(tuple(variables), tuple(rows))

    def _parse_values_term(self) -> Term | None:
        if self._peek().is_keyword("UNDEF"):
            self._next()
            return None
        node = self._parse_var_or_term()
        if isinstance(node, Var):
            raise self._error("variables are not allowed inside VALUES data")
        return node

    def _parse_triples_block(self) -> list[TriplePattern]:
        patterns: list[TriplePattern] = []
        subject = self._parse_var_or_term()
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_var_or_term()
                patterns.append(TriplePattern(subject, predicate, obj))
                if self._at_op(","):
                    self._next()
                    continue
                break
            if self._at_op(";"):
                self._next()
                if self._at_op(".") or self._at_op("}"):
                    break
                continue
            break
        return patterns

    def _parse_verb(self) -> object:
        token = self._peek()
        if token.kind == "var":
            self._next()
            return Var(token.value[1:])
        path = self._parse_path()
        # A plain one-step path is just a predicate term.
        if isinstance(path, PathLink):
            return path.iri
        return path

    # -- property paths ---------------------------------------------------
    def _parse_path(self) -> Path:
        options = [self._parse_path_sequence()]
        while self._at_op("|"):
            self._next()
            options.append(self._parse_path_sequence())
        if len(options) == 1:
            return options[0]
        return PathAlternative(tuple(options))

    def _parse_path_sequence(self) -> Path:
        steps = [self._parse_path_elt()]
        while self._at_op("/"):
            self._next()
            steps.append(self._parse_path_elt())
        if len(steps) == 1:
            return steps[0]
        return PathSequence(tuple(steps))

    def _parse_path_elt(self) -> Path:
        inverse = False
        if self._at_op("^"):
            self._next()
            inverse = True
        path = self._parse_path_primary()
        token = self._peek()
        if token.kind == "op" and token.value in ("*", "+", "?"):
            self._next()
            path = PathMod(path, token.value)
        if inverse:
            path = PathInverse(path)
        return path

    def _parse_path_primary(self) -> Path:
        token = self._peek()
        if token.kind == "op" and token.value == "(":
            self._next()
            path = self._parse_path()
            self._expect_op(")")
            return path
        if token.is_keyword("A"):
            self._next()
            return PathLink(RDF.type)
        term = self._parse_term_token()
        if not isinstance(term, URIRef):
            raise self._error("property path steps must be IRIs", token)
        return PathLink(term)

    # -- terms -------------------------------------------------------------
    def _parse_var_or_term(self) -> Term | Var:
        token = self._peek()
        if token.kind == "var":
            self._next()
            return Var(token.value[1:])
        return self._parse_term_token()

    def _parse_term_token(self) -> Term:
        token = self._next()
        if token.kind == "iri":
            return URIRef(token.value[1:-1])
        if token.kind == "pname":
            prefix, _, local = token.value.partition(":")
            if prefix not in self._prefixes:
                raise self._error(f"undefined prefix {prefix!r}", token)
            return URIRef(self._prefixes[prefix] + local)
        if token.kind == "bnode":
            return BNode(token.value[2:])
        if token.kind == "string":
            value = unescape_string(token.value[1:-1])
            nxt = self._peek()
            if nxt.kind == "langtag":
                self._next()
                return Literal(value, language=nxt.value[1:])
            if nxt.kind == "op" and nxt.value == "^^":
                self._next()
                datatype = self._parse_term_token()
                if not isinstance(datatype, URIRef):
                    raise self._error("datatype must be an IRI")
                return Literal(value, datatype=str(datatype))
            return Literal(value)
        if token.kind == "integer":
            return Literal(token.value, datatype=str(XSD.integer))
        if token.kind == "decimal":
            return Literal(token.value, datatype=str(XSD.decimal))
        if token.kind == "double":
            return Literal(token.value, datatype=str(XSD.double))
        if token.is_keyword("TRUE", "FALSE"):
            return Literal(token.value.lower(), datatype=str(XSD.boolean))
        if token.is_keyword("A"):
            return RDF.type
        raise self._error(f"expected an RDF term, found {token.value!r}", token)

    # -- expressions ---------------------------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._at_op("||"):
            self._next()
            left = BinaryExpr("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self._at_op("&&"):
            self._next()
            left = BinaryExpr("&&", left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            return BinaryExpr(token.value, left, self._parse_additive())
        negated = False
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN"):
            self._next()
            negated = True
            token = self._peek()
        if token.is_keyword("IN"):
            self._next()
            self._expect_op("(")
            options: list[Expression] = []
            if not self._at_op(")"):
                options.append(self._parse_expression())
                while self._at_op(","):
                    self._next()
                    options.append(self._parse_expression())
            self._expect_op(")")
            return InExpr(left, tuple(options), negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().kind == "op" and self._peek().value in ("+", "-"):
            op = self._next().value
            left = BinaryExpr(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().kind == "op" and self._peek().value in ("*", "/"):
            op = self._next().value
            left = BinaryExpr(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "op" and token.value in ("!", "-", "+"):
            self._next()
            operand = self._parse_unary()
            if token.value == "+":
                return operand
            return UnaryExpr(token.value, operand)
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self._peek()
        if token.kind == "op" and token.value == "(":
            self._next()
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        if token.kind == "var":
            self._next()
            return VarExpr(Var(token.value[1:]))
        if token.is_keyword("NOT"):
            self._next()
            self._expect_keyword("EXISTS")
            return ExistsExpr(self._parse_group(), negated=True)
        if token.is_keyword("EXISTS"):
            self._next()
            return ExistsExpr(self._parse_group(), negated=False)
        if token.kind == "name" and token.value.upper() in _BUILTIN_FUNCTIONS:
            self._next()
            name = token.value.upper()
            self._expect_op("(")
            args: list[Expression] = []
            if not self._at_op(")"):
                args.append(self._parse_expression())
                while self._at_op(","):
                    self._next()
                    args.append(self._parse_expression())
            self._expect_op(")")
            return FunctionCall(name, tuple(args))
        return TermExpr(self._parse_term_token())


def parse_query(text: str) -> SelectQuery | AskQuery:
    """Parse SPARQL text into a query AST.

    Raises :class:`repro.errors.SPARQLSyntaxError` on invalid input.
    """
    return _Parser(text).parse()
