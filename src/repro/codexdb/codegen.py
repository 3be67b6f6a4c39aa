"""Emit Python source code for a query plan.

The generated program is honest Python — list comprehensions over row
dictionaries — parameterized by the customization options CodexDB sells:
human-readable comments, per-step logging, and per-step wall-clock
profiling. The program reads ``tables`` (name -> list of row dicts) and
leaves ``result`` (list of tuples) and ``columns`` (list of names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import CodexDBError
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.codexdb.planner import PlanStep


@dataclass(frozen=True)
class CodeGenOptions:
    """Customizations requested in natural language by the user."""

    logging: bool = False
    comments: bool = False
    profile: bool = False


def generate_python(steps: Sequence[PlanStep], options: Optional[CodeGenOptions] = None) -> str:
    """Render the plan as a self-contained Python program."""
    options = options or CodeGenOptions()
    lines: List[str] = []
    emit = lines.append
    if options.profile:
        emit("import time")
        emit("profile = {}")
    emit("logs = []")

    def comment(text: str) -> None:
        if options.comments:
            emit(f"# {text}")

    def log(expr: str) -> None:
        if options.logging:
            emit(f"logs.append({expr})")

    def profiled(step_name: str, body: List[str]) -> None:
        if options.profile:
            emit(f"_t0 = time.perf_counter()")
        for line in body:
            emit(line)
        if options.profile:
            emit(f"profile['{step_name}'] = time.perf_counter() - _t0")

    for index, step in enumerate(steps):
        name = f"{step.kind}{index}"
        if step.kind == "load":
            table = step.args["table"]
            alias = step.args["alias"]
            comment(f"load table {table} as {alias}")
            body = [
                f"rows = [dict(r) for r in tables[{table!r}]]",
                f"for _r in rows:",
                f"    _r.update({{'{alias}.' + _k: _v for _k, _v in list(_r.items())}})",
            ]
            profiled(name, body)
            log(f"'loaded {table}: ' + str(len(rows)) + ' rows'")
        elif step.kind == "join":
            table = step.args["table"]
            alias = step.args["alias"]
            left_key = step.args["left_key"]
            right_key = step.args["right_key"]
            comment(f"hash join with {table} on {left_key} = {right_key}")
            bare_right = right_key.split(".")[1]
            body = [
                f"_right = [dict(r) for r in tables[{table!r}]]",
                f"for _r in _right:",
                f"    _r.update({{'{alias}.' + _k: _v for _k, _v in list(_r.items())}})",
                f"_index = {{}}",
                f"for _r in _right:",
                f"    _k = _r[{right_key!r}]",
                f"    if _k is not None:",
                f"        _index.setdefault(_k, []).append(_r)",
                f"_joined = []",
                f"for _l in rows:",
                f"    for _r in _index.get(_l[{left_key!r}], []):",
                f"        _m = dict(_l)",
                f"        _m.update(_r)",
                f"        _joined.append(_m)",
                f"rows = _joined",
            ]
            profiled(name, body)
            log(f"'joined {table}: ' + str(len(rows)) + ' rows'")
        elif step.kind == "filter":
            predicate = expr_to_python(step.args["predicate"])
            comment(f"filter rows")
            profiled(name, [f"rows = [r for r in rows if ({predicate}) is True]"])
            log(f"'filtered: ' + str(len(rows)) + ' rows remain'")
        elif step.kind == "group":
            _emit_group(emit, comment, profiled, log, step, name)
        elif step.kind == "project":
            items: List[SelectItem] = step.args["items"]  # type: ignore[assignment]
            comment("project output columns")
            exprs = ", ".join(_projection_source(item) for item in items)
            trailing = "," if len(items) == 1 else ""
            profiled(name, [f"result = [({exprs}{trailing}) for r in rows]"])
            emit(f"columns = {_output_names(items)!r}")
            log(f"'projected: ' + str(len(result)) + ' rows'")
        elif step.kind == "order":
            _emit_order(emit, comment, profiled, step, name)
        elif step.kind == "distinct":
            comment("deduplicate")
            body = [
                "_seen = set()",
                "_out = []",
                "for _row in result:",
                "    if _row not in _seen:",
                "        _seen.add(_row)",
                "        _out.append(_row)",
                "result = _out",
            ]
            profiled(name, body)
        elif step.kind == "limit":
            count = step.args["count"]
            comment(f"keep the first {count} rows")
            profiled(name, [f"result = result[:{count}]"])
        else:
            raise CodexDBError(f"unknown plan step kind {step.kind!r}")
    return "\n".join(lines) + "\n"


def _emit_group(emit, comment, profiled, log, step: PlanStep, name: str) -> None:
    keys: List[Expr] = step.args["keys"]  # type: ignore[assignment]
    items: List[SelectItem] = step.args["items"]  # type: ignore[assignment]
    comment("group rows and compute aggregates")
    body: List[str] = []
    if keys:
        key_src = ", ".join(expr_to_python(k) for k in keys)
        body += [
            "_groups = {}",
            f"for r in rows:",
            f"    _groups.setdefault(({key_src},), []).append(r)",
        ]
    else:
        body += ["_groups = {(): rows}"]
    value_sources = [_aggregate_item_source(item) for item in items]
    row_src = ", ".join(value_sources)
    trailing = "," if len(items) == 1 else ""
    body += [
        "result = []",
        "for _key, _grp in _groups.items():",
        "    r = _grp[0] if _grp else {}",
        f"    result.append(({row_src}{trailing}))",
    ]
    profiled(name, body)
    emit(f"columns = {_output_names(items)!r}")
    log("'groups: ' + str(len(result))")


def _emit_order(emit, comment, profiled, step: PlanStep, name: str) -> None:
    orders: List[OrderItem] = step.args["orders"]  # type: ignore[assignment]
    on_raw: bool = bool(step.args.get("on_raw", True))
    comment("sort")
    body: List[str] = []
    target = "rows" if on_raw else "result"
    for order in reversed(orders):
        reverse = "True" if order.descending else "False"
        if on_raw:
            key = expr_to_python(order.expr)
            body.append(
                f"{target}.sort(key=lambda r: (({key}) is None, {key}), reverse={reverse})"
            )
            body.append(
                f"{target}.sort(key=lambda r: ({key}) is None)"
            )
        else:
            if not isinstance(order.expr, ColumnRef):
                raise CodexDBError(
                    "aggregate ORDER BY must reference an output column"
                )
            column = order.expr.name
            body.append(
                f"_pos = columns.index({column!r})"
            )
            body.append(
                f"{target}.sort(key=lambda t: (t[_pos] is None, t[_pos]), reverse={reverse})"
            )
            body.append(f"{target}.sort(key=lambda t: t[_pos] is None)")
    profiled(name, body)


def _projection_source(item: SelectItem) -> str:
    if isinstance(item.expr, Star):
        raise CodexDBError("'*' projections are not supported by codegen")
    return expr_to_python(item.expr)


def _output_names(items: Sequence[SelectItem]) -> List[str]:
    return [item.output_name(i) for i, item in enumerate(items)]


def _aggregate_item_source(item: SelectItem) -> str:
    expr = item.expr
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _aggregate_source(expr)
    return expr_to_python(expr)


def _aggregate_source(call: FuncCall) -> str:
    name = call.name.upper()
    if name == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], Star):
        return "len(_grp)"
    if len(call.args) != 1:
        raise CodexDBError(f"{name} takes exactly one argument")
    value = expr_to_python(call.args[0], row_var="g")
    collected = f"[{value} for g in _grp if ({value}) is not None]"
    if call.distinct:
        collected = f"list(dict.fromkeys({collected}))"
    if name == "COUNT":
        return f"len({collected})"
    if name == "SUM":
        return f"(sum({collected}) if {collected} else None)"
    if name == "AVG":
        return f"((lambda _v: sum(_v) / len(_v) if _v else None)({collected}))"
    if name == "MIN":
        return f"(min({collected}) if {collected} else None)"
    if name == "MAX":
        return f"(max({collected}) if {collected} else None)"
    raise CodexDBError(f"unknown aggregate {name}")


def _null_guard(
    left_expr: Expr, left_src: str, right_expr: Expr, right_src: str
) -> str:
    """``is None`` checks for the operands that can actually be NULL.

    Literal operands are skipped (their nullability is known statically),
    which also avoids emitting ``<literal> is None``.
    """
    checks = []
    if not isinstance(left_expr, Literal):
        checks.append(f"({left_src}) is None")
    elif left_expr.value is None:
        checks.append("True")
    if not isinstance(right_expr, Literal):
        checks.append(f"({right_src}) is None")
    elif right_expr.value is None:
        checks.append("True")
    return " or ".join(checks)


def expr_to_python(expr: Expr, row_var: str = "r") -> str:
    """Compile a SQL expression tree to a Python expression string.

    Comparisons guard against NULL (None) operands, mirroring the
    engine's semantics closely enough for the supported workloads.
    """
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        key = f"{expr.table}.{expr.name}" if expr.table else expr.name
        return f"{row_var}[{key!r}]"
    if isinstance(expr, BinaryOp):
        left = expr_to_python(expr.left, row_var)
        right = expr_to_python(expr.right, row_var)
        op = expr.op
        null_guard = _null_guard(expr.left, left, expr.right, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            python_op = {"=": "==", "<>": "!="}.get(op, op)
            comparison = f"({left}) {python_op} ({right})"
            if null_guard:
                return f"(None if {null_guard} else {comparison})"
            return f"({comparison})"
        if op == "AND":
            return f"(False if ({left}) is False or ({right}) is False else (None if ({left}) is None or ({right}) is None else True))"
        if op == "OR":
            return f"(True if ({left}) is True or ({right}) is True else (None if ({left}) is None or ({right}) is None else False))"
        if op == "||":
            return f"(str({left}) + str({right}))"
        if op in ("+", "-", "*"):
            arithmetic = f"({left}) {op} ({right})"
            if null_guard:
                return f"(None if {null_guard} else {arithmetic})"
            return f"({arithmetic})"
        if op == "/":
            division = f"({left}) / ({right})"
            zero_guard = f"({right}) == 0"
            guard = f"{null_guard} or {zero_guard}" if null_guard else zero_guard
            return f"(None if {guard} else {division})"
        raise CodexDBError(f"unsupported operator {op!r} in codegen")
    if isinstance(expr, UnaryOp):
        operand = expr_to_python(expr.operand, row_var)
        if expr.op == "NOT":
            return f"(None if ({operand}) is None else not ({operand}))"
        if expr.op == "-":
            return f"(None if ({operand}) is None else -({operand}))"
        raise CodexDBError(f"unsupported unary {expr.op!r}")
    if isinstance(expr, IsNull):
        operand = expr_to_python(expr.operand, row_var)
        return f"(({operand}) is not None)" if expr.negated else f"(({operand}) is None)"
    if isinstance(expr, InList):
        operand = expr_to_python(expr.operand, row_var)
        values = ", ".join(expr_to_python(i, row_var) for i in expr.items)
        core = f"(({operand}) in ({values},))"
        return f"(not {core})" if expr.negated else core
    if isinstance(expr, Between):
        operand = expr_to_python(expr.operand, row_var)
        low = expr_to_python(expr.low, row_var)
        high = expr_to_python(expr.high, row_var)
        guards = []
        for sub_expr, src in ((expr.operand, operand), (expr.low, low), (expr.high, high)):
            if not isinstance(sub_expr, Literal):
                guards.append(f"({src}) is None")
            elif sub_expr.value is None:
                guards.append("True")
        check = f"({low}) <= ({operand}) <= ({high})"
        core = f"(None if {' or '.join(guards)} else {check})" if guards else f"({check})"
        return f"(None if ({core}) is None else not ({core}))" if expr.negated else core
    raise CodexDBError(f"cannot compile {type(expr).__name__} to Python")
