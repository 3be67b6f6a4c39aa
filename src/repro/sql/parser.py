"""Recursive-descent parser for the supported SQL dialect.

Grammar (roughly)::

    statement   := select | create | insert
    select      := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                   [LIMIT n]
    join        := [INNER|LEFT [OUTER]|CROSS] JOIN table_ref [ON expr]
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive [comparison | IS [NOT] NULL | [NOT] IN (...)
                   | [NOT] BETWEEN additive AND additive | [NOT] LIKE additive]
    additive    := multiplicative (('+'|'-'|'||') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary       := '-' unary | primary
    primary     := literal | func '(' args ')' | column | '(' expr ')' | CASE ...
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from repro.errors import SQLSyntaxError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateIndex,
    CreateTable,
    DeleteFrom,
    DropTable,
    ExplainQuery,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    InsertInto,
    IsNull,
    Subquery,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectQuery,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    UpdateTable,
)
from repro.sql.lexer import Token, TokenKind, tokenize_sql
from repro.sql.types import SQLType

_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")
_AGG_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
#: SQL texts whose parsed statement :func:`parse_sql` keeps. A durable
#: cluster write reaches it four times with one text (coordinator,
#: durable primary, engine, replica apply), one right after another.
STATEMENT_CACHE_SIZE = 64


class _Parser:
    def __init__(self, tokens: List[Token], sql: str) -> None:
        self.tokens = tokens
        self.sql = sql
        self.position = 0

    # -- token plumbing -----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        if offset == 0:
            # advance() never moves past EOF, so position is in range.
            return self.tokens[self.position]
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        token = self.peek()
        if not token.is_keyword(name):
            raise self.error(f"expected {name}")
        return self.advance()

    def accept_punct(self, text: str) -> bool:
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> None:
        if not self.accept_punct(text):
            raise self.error(f"expected {text!r}")

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            raise self.error("expected an identifier")
        return self.advance().text

    def error(self, message: str) -> SQLSyntaxError:
        token = self.peek()
        return SQLSyntaxError(
            f"{message} at position {token.position} (near {token.text!r}) "
            f"in: {self.sql}"
        )

    # -- statements --------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("SELECT"):
            statement: Statement = self.parse_select()
        elif token.is_keyword("CREATE"):
            statement = self.parse_create()
        elif token.is_keyword("INSERT"):
            statement = self.parse_insert()
        elif token.is_keyword("UPDATE"):
            statement = self.parse_update()
        elif token.is_keyword("DELETE"):
            statement = self.parse_delete()
        elif token.is_keyword("DROP"):
            statement = self.parse_drop()
        elif token.is_keyword("EXPLAIN"):
            self.advance()
            statement = ExplainQuery(query=self.parse_select())
        else:
            raise self.error(
                "expected SELECT, CREATE, INSERT, UPDATE, DELETE, DROP, or EXPLAIN"
            )
        self.accept_punct(";")
        if self.peek().kind is not TokenKind.EOF:
            raise self.error("unexpected trailing input")
        return statement

    def parse_update(self) -> UpdateTable:
        self.expect_keyword("UPDATE")
        name = self.expect_ident()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, Expr]] = []
        while True:
            column = self.expect_ident()
            token = self.peek()
            if not (token.kind is TokenKind.OPERATOR and token.text == "="):
                raise self.error("expected '=' in SET assignment")
            self.advance()
            assignments.append((column, self.parse_expr()))
            if not self.accept_punct(","):
                break
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return UpdateTable(name=name, assignments=tuple(assignments), where=where)

    def parse_delete(self) -> DeleteFrom:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        name = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return DeleteFrom(name=name, where=where)

    def parse_drop(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return DropTable(name=self.expect_ident())

    def parse_create(self) -> "Statement":
        self.expect_keyword("CREATE")
        if self.accept_keyword("INDEX"):
            index_name = self.expect_ident()
            self.expect_keyword("ON")
            table = self.expect_ident()
            self.expect_punct("(")
            column = self.expect_ident()
            self.expect_punct(")")
            return CreateIndex(index_name=index_name, table=table, column=column)
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        self.expect_punct("(")
        columns: List[Tuple[str, SQLType]] = []
        while True:
            column_name = self.expect_ident()
            type_token = self.advance()
            if type_token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise self.error("expected a column type")
            columns.append((column_name, SQLType.parse(type_token.text)))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return CreateTable(name=name, columns=tuple(columns))

    def parse_insert(self) -> InsertInto:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        name = self.expect_ident()
        columns: List[str] = []
        if self.accept_punct("("):
            while True:
                columns.append(self.expect_ident())
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: List[Tuple[Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values: List[Expr] = []
            while True:
                values.append(self.parse_expr())
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return InsertInto(name=name, columns=tuple(columns), rows=tuple(rows))

    def parse_select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        table = self.parse_table_ref()

        joins: List[JoinClause] = []
        while True:
            join = self.try_parse_join()
            if join is None:
                break
            joins.append(join)

        where = self.parse_expr() if self.accept_keyword("WHERE") else None

        group_by: Tuple[Expr, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            keys = [self.parse_expr()]
            while self.accept_punct(","):
                keys.append(self.parse_expr())
            group_by = tuple(keys)

        having = self.parse_expr() if self.accept_keyword("HAVING") else None

        order_by: Tuple[OrderItem, ...] = ()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            orders = [self.parse_order_item()]
            while self.accept_punct(","):
                orders.append(self.parse_order_item())
            order_by = tuple(orders)

        limit: Optional[int] = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind is not TokenKind.NUMBER or "." in token.text:
                raise self.error("LIMIT expects an integer")
            limit = int(token.text)

        return SelectQuery(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def try_parse_join(self) -> Optional[JoinClause]:
        token = self.peek()
        if token.is_keyword("JOIN"):
            self.advance()
            kind = "INNER"
        elif token.is_keyword("INNER") and self.peek(1).is_keyword("JOIN"):
            self.advance()
            self.advance()
            kind = "INNER"
        elif token.is_keyword("LEFT"):
            self.advance()
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
            kind = "LEFT"
        elif token.is_keyword("CROSS") and self.peek(1).is_keyword("JOIN"):
            self.advance()
            self.advance()
            kind = "CROSS"
        else:
            return None
        table = self.parse_table_ref()
        condition: Optional[Expr] = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expr()
        return JoinClause(kind=kind, table=table, condition=condition)

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().text
        return TableRef(name=name, alias=alias)

    def parse_select_item(self) -> SelectItem:
        token = self.peek()
        # "*" or "t.*"
        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self.advance()
            return SelectItem(expr=Star())
        if (
            token.kind is TokenKind.IDENT
            and self.peek(1).kind is TokenKind.PUNCT
            and self.peek(1).text == "."
            and self.peek(2).kind is TokenKind.OPERATOR
            and self.peek(2).text == "*"
        ):
            table = self.advance().text
            self.advance()
            self.advance()
            return SelectItem(expr=Star(table=table))
        expr = self.parse_expr()
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().text
        return SelectItem(expr=expr, alias=alias)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr=expr, descending=descending)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp(op="OR", left=left, right=self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp(op="AND", left=left, right=self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return UnaryOp(op="NOT", operand=self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text in _COMPARISONS:
            op = self.advance().text
            if op == "!=":
                op = "<>"
            return BinaryOp(op=op, left=left, right=self.parse_additive())
        if token.is_keyword("IS"):
            self.advance()
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(operand=left, negated=negated)
        negated = False
        if token.is_keyword("NOT") and self.peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self.advance()
            negated = True
            token = self.peek()
        if token.is_keyword("IN"):
            self.advance()
            self.expect_punct("(")
            if self.peek().is_keyword("SELECT"):
                inner = self.parse_select()
                self.expect_punct(")")
                return InSubquery(operand=left, query=inner, negated=negated)
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return InList(operand=left, items=tuple(items), negated=negated)
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return Between(operand=left, low=low, high=high, negated=negated)
        if token.is_keyword("LIKE"):
            self.advance()
            pattern = self.parse_additive()
            like = BinaryOp(op="LIKE", left=left, right=pattern)
            return UnaryOp(op="NOT", operand=like) if negated else like
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("+", "-", "||"):
                op = self.advance().text
                left = BinaryOp(op=op, left=left, right=self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("*", "/", "%"):
                op = self.advance().text
                left = BinaryOp(op=op, left=left, right=self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "-":
            self.advance()
            return UnaryOp(op="-", operand=self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value=value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return Literal(value=token.text)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(value=None)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(value=True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(value=False)
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_keyword(*_AGG_KEYWORDS):
            name = self.advance().text
            return self.parse_func_args(name)
        if self.accept_punct("("):
            if self.peek().is_keyword("SELECT"):
                inner = self.parse_select()
                self.expect_punct(")")
                return Subquery(query=inner)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.kind is TokenKind.IDENT:
            name = self.advance().text
            # Function call on a plain identifier (e.g. ABS(x)).
            if self.peek().kind is TokenKind.PUNCT and self.peek().text == "(":
                return self.parse_func_args(name)
            if self.accept_punct("."):
                column = self.expect_ident()
                return ColumnRef(name=column, table=name)
            return ColumnRef(name=name)
        raise self.error("expected an expression")

    def parse_func_args(self, name: str) -> FuncCall:
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        args: List[Expr] = []
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self.advance()
            args.append(Star())
        elif not (token.kind is TokenKind.PUNCT and token.text == ")"):
            args.append(self.parse_expr())
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        return FuncCall(name=name.upper(), args=tuple(args), distinct=distinct)

    def parse_case(self) -> CaseWhen:
        self.expect_keyword("CASE")
        branches: List[Tuple[Expr, Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((condition, value))
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        default: Optional[Expr] = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        return CaseWhen(branches=tuple(branches), default=default)


@functools.lru_cache(maxsize=STATEMENT_CACHE_SIZE)
def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement into an AST.

    The last ``STATEMENT_CACHE_SIZE`` texts are cached, so callers that
    pass one text along share one AST. Sharing is safe because every
    node is a frozen dataclass over tuples and scalars. A syntax error
    is not cached: the same bad text raises again on every call.
    """
    tokens = tokenize_sql(sql)
    return _Parser(tokens, sql).parse_statement()
