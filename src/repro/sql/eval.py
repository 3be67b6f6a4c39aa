"""Expression evaluation over row environments, with SQL NULL semantics."""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from repro.errors import SQLAnalysisError, SQLExecutionError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Star,
    UnaryOp,
)
from repro.sql.types import Value, sql_and, sql_not, sql_or


class RowEnv:
    """The variable bindings visible to an expression for one row.

    Stores qualified bindings ``(table, column) -> value`` and bare
    ``column -> value`` ones. A SELECT is bound before it runs, so a
    bare name that two tables share never reaches :meth:`lookup`.
    """

    __slots__ = ("qualified", "bare")

    def __init__(self) -> None:
        self.qualified: Dict[Tuple[str, str], Value] = {}
        self.bare: Dict[str, Value] = {}

    def bind(self, table: str, column: str, value: Value) -> None:
        column_l = column.lower()
        self.qualified[(table.lower(), column_l)] = value
        self.bare[column_l] = value

    def lookup(self, column: str, table: Optional[str] = None) -> Value:
        column_l = column.lower()
        if table is not None:
            key = (table.lower(), column_l)
            try:
                return self.qualified[key]
            except KeyError:
                raise SQLAnalysisError(
                    f"unknown column {table}.{column}"
                ) from None
        try:
            return self.bare[column_l]
        except KeyError:
            raise SQLAnalysisError(f"unknown column {column}") from None

    def merged_with(self, other: "RowEnv") -> "RowEnv":
        """A new env combining this row's bindings with another's."""
        out = RowEnv()
        for (table, column), value in self.qualified.items():
            out.bind(table, column, value)
        for (table, column), value in other.qualified.items():
            out.bind(table, column, value)
        return out


_SCALAR_FUNCS = {
    "ABS": lambda v: None if v is None else abs(v),
    "LENGTH": lambda v: None if v is None else len(str(v)),
    "UPPER": lambda v: None if v is None else str(v).upper(),
    "LOWER": lambda v: None if v is None else str(v).lower(),
}


def evaluate(expr: Expr, env: RowEnv) -> Value:
    """Evaluate an expression over one row (no aggregates allowed)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return env.lookup(expr.name, expr.table)
    if isinstance(expr, Star):
        raise SQLAnalysisError("'*' is only valid in select lists and COUNT(*)")
    if isinstance(expr, UnaryOp):
        return _eval_unary(expr, env)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, env)
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, env)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, InList):
        return _eval_in(expr, env)
    if isinstance(expr, Between):
        return _eval_between(expr, env)
    if isinstance(expr, CaseWhen):
        for condition, result in expr.branches:
            if evaluate(condition, env) is True:
                return evaluate(result, env)
        return evaluate(expr.default, env) if expr.default is not None else None
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            raise SQLAnalysisError(
                f"aggregate {expr.name} is not allowed in this context"
            )
        return _eval_scalar_func(expr, env)
    raise SQLExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


def _eval_unary(expr: UnaryOp, env: RowEnv) -> Value:
    value = evaluate(expr.operand, env)
    if expr.op == "NOT":
        return sql_not(_as_truth(value))
    if expr.op == "-":
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SQLExecutionError(f"cannot negate {value!r}")
        return -value
    raise SQLExecutionError(f"unknown unary operator {expr.op!r}")


def _eval_binary(expr: BinaryOp, env: RowEnv) -> Value:
    op = expr.op
    if op == "AND":
        return sql_and(
            _as_truth(evaluate(expr.left, env)), _as_truth(evaluate(expr.right, env))
        )
    if op == "OR":
        return sql_or(
            _as_truth(evaluate(expr.left, env)), _as_truth(evaluate(expr.right, env))
        )

    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op == "LIKE":
        return _eval_like(left, right)
    if left is None or right is None:
        return None

    if op in ("=", "<>", "<", "<=", ">", ">="):
        return compare(op, left, right)
    if op == "||":
        return str(left) + str(right)
    if op in ("+", "-", "*", "/", "%"):
        return _arith(op, left, right)
    raise SQLExecutionError(f"unknown binary operator {op!r}")


def _numeric(value: Value) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value  # type: ignore[return-value]
    raise SQLExecutionError(f"expected a number, got {value!r}")


def _arith(op: str, left: Value, right: Value) -> Value:
    a, b = _numeric(left), _numeric(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None  # SQL engines differ; NULL keeps queries total.
        result = a / b
        return result
    if op == "%":
        if b == 0:
            return None
        return a % b
    raise SQLExecutionError(f"unknown arithmetic operator {op!r}")


def compare(op: str, left: Value, right: Value) -> Optional[bool]:
    # Numbers compare numerically (bool as 0/1); strings lexicographically.
    left_num = isinstance(left, (int, float, bool))
    right_num = isinstance(right, (int, float, bool))
    if left_num != right_num:
        raise SQLExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if left_num:
        a, b = _numeric(left), _numeric(right)
    else:
        a, b = str(left), str(right)  # type: ignore[assignment]
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise SQLExecutionError(f"unknown comparison {op!r}")


def _eval_like(left: Value, right: Value) -> Optional[bool]:
    if left is None or right is None:
        return None
    # re.escape leaves % and _ untouched (they are not regex-special),
    # so translating them to .*/. after escaping is safe.
    pattern = re.escape(str(right)).replace("%", ".*").replace("_", ".")
    return re.fullmatch(pattern, str(left)) is not None


def _eval_in(expr: InList, env: RowEnv) -> Optional[bool]:
    value = evaluate(expr.operand, env)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, env)
        if candidate is None:
            saw_null = True
            continue
        try:
            if compare("=", value, candidate) is True:
                return False if expr.negated else True
        except SQLExecutionError:
            continue  # type-incompatible list item can never match
    if saw_null:
        return None
    return True if expr.negated else False


def _eval_between(expr: Between, env: RowEnv) -> Optional[bool]:
    value = evaluate(expr.operand, env)
    low = evaluate(expr.low, env)
    high = evaluate(expr.high, env)
    if value is None or low is None or high is None:
        return None
    result = sql_and(compare(">=", value, low), compare("<=", value, high))
    return sql_not(result) if expr.negated else result


def _eval_scalar_func(expr: FuncCall, env: RowEnv) -> Value:
    name = expr.name.upper()
    if name == "ROUND":
        if not 1 <= len(expr.args) <= 2:
            raise SQLAnalysisError("ROUND takes one or two arguments")
        value = evaluate(expr.args[0], env)
        if value is None:
            return None
        digits = 0
        if len(expr.args) == 2:
            digits_value = evaluate(expr.args[1], env)
            digits = int(_numeric(digits_value)) if digits_value is not None else 0
        return round(_numeric(value), digits)
    func = _SCALAR_FUNCS.get(name)
    if func is None:
        raise SQLAnalysisError(f"unknown function {expr.name!r}")
    if len(expr.args) != 1:
        raise SQLAnalysisError(f"{name} takes exactly one argument")
    return func(evaluate(expr.args[0], env))


def _as_truth(value: Value) -> Optional[bool]:
    """Interpret a value as a SQL truth value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SQLExecutionError(f"expected a boolean, got {value!r}")
