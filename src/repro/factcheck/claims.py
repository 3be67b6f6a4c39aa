"""Claim generation: NL statements about a table, half of them wrong."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sql import Database
from repro.utils.rng import SeededRNG

_DOMAIN = {
    "table": "employees",
    "num_cols": ["salary", "age"],
    "cat_col": "department",
    "cat_values": ["engineering", "sales", "marketing", "finance"],
}


@dataclass(frozen=True)
class Claim:
    """One natural-language claim with its gold interpretation.

    ``agg``/``column``/``filter_value`` describe the *correct* query for
    the claim; ``claimed_value`` is what the text asserts and ``truthful``
    whether that matches the data.
    """

    text: str
    agg: str                      # count | avg | max | min | sum
    column: Optional[str]         # None for COUNT(*)
    filter_value: Optional[str]   # categorical filter, or None
    claimed_value: float
    truthful: bool


@dataclass
class ClaimWorkload:
    """A database plus claims to verify against it."""

    db: Database
    table: str
    num_cols: List[str]
    cat_col: str
    cat_values: List[str]
    claims: List[Claim] = field(default_factory=list)

    def split(self, test_fraction: float, seed: int = 0) -> Tuple[List[Claim], List[Claim]]:
        rng = SeededRNG(seed)
        shuffled = rng.shuffled(self.claims)
        cut = max(1, int(len(shuffled) * test_fraction))
        return shuffled[cut:], shuffled[:cut]


def generate_claim_workload(
    num_rows: int = 40, num_claims: int = 60, seed: int = 0
) -> ClaimWorkload:
    """Build a populated table and a balanced true/false claim set."""
    rng = SeededRNG(seed)
    db = Database()
    table = _DOMAIN["table"]
    num_a, num_b = _DOMAIN["num_cols"]
    cat_col = _DOMAIN["cat_col"]
    db.execute(
        f"CREATE TABLE {table} (name TEXT, {cat_col} TEXT, {num_a} INT, {num_b} INT)"
    )
    for i in range(num_rows):
        db.execute(
            f"INSERT INTO {table} VALUES ('person{i}', "
            f"'{rng.choice(_DOMAIN['cat_values'])}', "
            f"{rng.randint(40, 160)}, {rng.randint(22, 65)})"
        )

    workload = ClaimWorkload(
        db=db,
        table=table,
        num_cols=list(_DOMAIN["num_cols"]),
        cat_col=cat_col,
        cat_values=list(_DOMAIN["cat_values"]),
    )
    workload.claims = _generate_claims(workload, num_claims, rng.spawn("claims"))
    return workload


# Transparent templates name the aggregate and column directly; synonym
# templates paraphrase them (earn -> salary, senior -> age, headcount ->
# count). A fixed keyword list resolves the former but not the latter —
# the gap the learned ranker closes.
_COUNT_TEMPLATES = [
    "there are {value} {table} in {filter}",
    "the {filter} team consists of {value} {table}",
    "{filter} has a headcount of {value}",
    "{filter} staffing stands at {value} people",
]
_COUNT_ALL_TEMPLATES = [
    "the company has {value} {table} in total",
    "company wide headcount stands at {value}",
]
_AGG_TEMPLATES = {
    ("avg", "salary"): [
        "the average salary of {filter} {table} is {value}",
        "{filter} {table} earn {value} on average",
        "typical pay in {filter} comes to {value}",
    ],
    ("avg", "age"): [
        "the average age of {filter} {table} is {value}",
        "{filter} {table} are {value} years old on average",
        "the typical {filter} employee is {value} years old",
    ],
    ("max", "salary"): [
        "the highest salary among {filter} {table} is {value}",
        "the best paid person in {filter} makes {value}",
    ],
    ("max", "age"): [
        "the highest age among {filter} {table} is {value}",
        "the most senior person in {filter} is {value} years old",
    ],
    ("min", "salary"): [
        "the lowest salary among {filter} {table} is {value}",
        "the worst paid person in {filter} makes {value}",
    ],
    ("min", "age"): [
        "the lowest age among {filter} {table} is {value}",
        "the youngest person in {filter} is {value} years old",
    ],
    ("sum", "salary"): [
        "the combined salary of {filter} {table} is {value}",
        "the {filter} payroll amounts to {value}",
    ],
    ("sum", "age"): [
        "the combined age of {filter} {table} is {value}",
        "the ages across {filter} add up to {value}",
    ],
}


def _generate_claims(
    workload: ClaimWorkload, num_claims: int, rng: SeededRNG
) -> List[Claim]:
    claims: List[Claim] = []
    for i in range(num_claims):
        truthful = i % 2 == 0
        use_filter = rng.coin(0.8)
        filter_value = rng.choice(workload.cat_values) if use_filter else None
        agg = rng.choice(["count", "avg", "max", "min", "sum"])
        column = None if agg == "count" else rng.choice(workload.num_cols)

        true_value = _evaluate(workload, agg, column, filter_value)
        if truthful:
            claimed = true_value
        else:
            delta = max(2.0, abs(true_value) * 0.25)
            sign = 1 if rng.coin(0.5) else -1
            claimed = round(true_value + sign * delta, 1)

        text = _render_claim(workload, agg, column, filter_value, claimed, rng)
        claims.append(
            Claim(
                text=text,
                agg=agg,
                column=column,
                filter_value=filter_value,
                claimed_value=claimed,
                truthful=truthful,
            )
        )
    return claims


def _evaluate(
    workload: ClaimWorkload,
    agg: str,
    column: Optional[str],
    filter_value: Optional[str],
) -> float:
    where = f" WHERE {workload.cat_col} = '{filter_value}'" if filter_value else ""
    if agg == "count":
        sql = f"SELECT COUNT(*) FROM {workload.table}{where}"
    else:
        sql = f"SELECT {agg.upper()}({column}) FROM {workload.table}{where}"
    value = workload.db.execute(sql).scalar()
    return round(float(value if value is not None else 0.0), 1)


def _render_claim(
    workload: ClaimWorkload,
    agg: str,
    column: Optional[str],
    filter_value: Optional[str],
    value: float,
    rng: SeededRNG,
) -> str:
    rendered_value = int(value) if float(value).is_integer() else value
    if agg == "count":
        if filter_value is None:
            template = rng.choice(_COUNT_ALL_TEMPLATES)
            return template.format(value=rendered_value, table=workload.table)
        template = rng.choice(_COUNT_TEMPLATES)
        return template.format(
            value=rendered_value, table=workload.table, filter=filter_value
        )
    template = rng.choice(_AGG_TEMPLATES[(agg, column)])
    return template.format(
        filter=filter_value if filter_value else "all",
        table=workload.table,
        value=rendered_value,
    )
