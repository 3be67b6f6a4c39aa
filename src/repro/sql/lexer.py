"""SQL lexer: turns a SQL string into a token stream."""

from __future__ import annotations

import enum
from typing import List

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN",
    "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "ON", "DISTINCT",
    "ASC", "DESC", "CREATE", "TABLE", "INSERT", "INTO", "VALUES",
    "TRUE", "FALSE", "COUNT", "SUM", "AVG", "MIN", "MAX", "CASE", "WHEN",
    "THEN", "ELSE", "END", "CROSS", "UPDATE", "SET", "DELETE", "DROP",
    "EXPLAIN", "INDEX",
}


class TokenKind(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


class Token:
    """One lexical token with its source position (for error messages)."""

    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: TokenKind, text: str, position: int) -> None:
        self.kind = kind
        self.text = text
        self.position = position

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.text!r})"


_OPERATORS = ["<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%", "||"]
_PUNCT = set("(),.;")


def tokenize_sql(sql: str) -> List[Token]:
    """Tokenize a SQL string; raises :class:`SQLSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        # String literal (single quotes, '' escapes a quote).
        if ch == "'":
            j = i + 1
            parts: List[str] = []
            while True:
                if j >= n:
                    raise SQLSyntaxError(f"unterminated string at position {i}")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(TokenKind.STRING, "".join(parts), i))
            i = j + 1
            continue
        # Number (integer or decimal).
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            saw_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not saw_dot)):
                if sql[j] == ".":
                    saw_dot = True
                j += 1
            tokens.append(Token(TokenKind.NUMBER, sql[i:j], i))
            i = j
            continue
        # Identifier or keyword.
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        # Double-quoted identifier.
        if ch == '"':
            j = sql.find('"', i + 1)
            if j < 0:
                raise SQLSyntaxError(f"unterminated identifier at position {i}")
            tokens.append(Token(TokenKind.IDENT, sql[i + 1: j], i))
            i = j + 1
            continue
        # Multi-char then single-char operators.
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
