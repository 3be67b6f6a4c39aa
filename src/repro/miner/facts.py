"""Candidate data facts: aggregate comparisons over table subgroups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ReproError
from repro.sql import Database
from repro.utils.rng import SeededRNG

#: aggregates :func:`enumerate_facts` compares per group and overall
AGGS = ("avg", "max")


@dataclass(frozen=True)
class DataFact:
    """One candidate fact: a subgroup aggregate vs. the population.

    Attributes:
        filter_column/filter_value: the subgroup ("category = dairy").
        metric: the numeric column aggregated.
        agg: the aggregate (avg/min/max).
        group_value: the aggregate within the subgroup.
        overall_value: the aggregate over the whole table.
    """

    filter_column: str
    filter_value: str
    metric: str
    agg: str
    group_value: float
    overall_value: float

    @property
    def direction(self) -> str:
        if self.overall_value == 0:
            return "equal to"
        ratio = self.group_value / self.overall_value
        if ratio > 1.05:
            return "higher than"
        if ratio < 0.95:
            return "lower than"
        return "close to"

    @property
    def dimensions(self) -> Tuple[str, str]:
        """The (filter, metric) slot this fact occupies in a summary."""
        return (f"{self.filter_column}={self.filter_value}", self.metric)

    def sentence(self) -> str:
        """Render the fact as a natural-language sentence."""
        return (
            f"for {self.filter_column} {self.filter_value} , the {self.agg} "
            f"{self.metric} is {self.group_value:g} , {self.direction} the "
            f"overall {self.agg} {self.metric} of {self.overall_value:g}"
        )


def enumerate_facts(
    db: Database,
    table: str,
    filter_columns: List[str],
    metric_columns: List[str],
) -> List[DataFact]:
    """All (filter value, metric, aggregate) facts for the table."""
    facts: List[DataFact] = []
    for filter_column in filter_columns:
        values = sorted(
            {
                v
                for v in db.table(table).column_values(filter_column)
                if isinstance(v, str)
            }
        )
        for metric in metric_columns:
            for agg in AGGS:
                overall = db.execute(
                    f"SELECT {agg.upper()}({metric}) FROM {table}"
                ).scalar()
                if overall is None:
                    continue
                for value in values:
                    group = db.execute(
                        f"SELECT {agg.upper()}({metric}) FROM {table} "
                        f"WHERE {filter_column} = '{value}'"
                    ).scalar()
                    if group is None:
                        continue
                    facts.append(
                        DataFact(
                            filter_column=filter_column,
                            filter_value=value,
                            metric=metric,
                            agg=agg,
                            group_value=round(float(group), 2),
                            overall_value=round(float(overall), 2),
                        )
                    )
    if not facts:
        raise ReproError("no candidate facts could be enumerated")
    return facts


# -- demo dataset ---------------------------------------------------------------
_CATEGORIES = ["dairy", "bakery", "produce", "frozen"]
_REGIONS = ["north", "south", "east", "west"]


def generate_sales_table(num_rows: int = 80, seed: int = 0) -> Database:
    """A sales table with planted patterns.

    Planted signal (so goals have objectively relevant facts): dairy
    products are priced well above average; the west region discounts
    heavily (low revenue); everything else is flat.
    """
    rng = SeededRNG(seed)
    db = Database()
    db.execute(
        "CREATE TABLE sales (id INT, category TEXT, region TEXT, "
        "price INT, revenue INT)"
    )
    for i in range(num_rows):
        category = rng.choice(_CATEGORIES)
        region = rng.choice(_REGIONS)
        price = rng.randint(20, 40)
        revenue = rng.randint(80, 120)
        if category == "dairy":
            price += 30  # planted: dairy is expensive
        if region == "west":
            revenue -= 50  # planted: west underperforms
        db.execute(
            f"INSERT INTO sales VALUES ({i}, '{category}', '{region}', "
            f"{price}, {revenue})"
        )
    return db
