"""Synthetic text-to-SQL workloads (our stand-in for Spider/WikiSQL).

Each workload is one randomly instantiated two-table schema (an entity
table plus a category table joined on a shared key), a populated
database, and a set of (natural-language question, gold SQL) pairs drawn
from templates at three hardness levels:

* ``easy``   — projections and single-predicate filters;
* ``medium`` — aggregates and argmax (ORDER BY ... LIMIT 1);
* ``hard``   — GROUP BY and join queries.

Questions are phrased with several paraphrase patterns per SQL shape so
that purely lexical translators cannot trivially invert the generator.
SQL is emitted in a lowercase, space-separated linearization whose
word-level tokens match the :class:`WhitespaceTokenizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sql import Database
from repro.utils.rng import SeededRNG

# Name pools: one domain is drawn per workload seed.
_DOMAINS = [
    {
        "entity_table": "employees", "entity": "employee",
        "num_cols": ["salary", "age"], "cat_col": "department",
        "cat_table": "departments", "cat_attr": "building",
        "cat_values": ["engineering", "sales", "marketing", "finance"],
        "attr_values": ["north", "south", "east", "west"],
        "name_col": "name",
        "names": ["alice", "bob", "carol", "dave", "erin", "frank", "grace",
                  "heidi", "ivan", "judy", "mallory", "nick", "olivia", "peggy"],
    },
    {
        "entity_table": "players", "entity": "player",
        "num_cols": ["score", "height"], "cat_col": "team",
        "cat_table": "teams", "cat_attr": "city",
        "cat_values": ["tigers", "sharks", "eagles", "wolves"],
        "attr_values": ["boston", "denver", "austin", "seattle"],
        "name_col": "name",
        "names": ["smith", "jones", "brown", "davis", "miller", "wilson",
                  "moore", "taylor", "thomas", "jackson", "white", "harris"],
    },
    {
        "entity_table": "products", "entity": "product",
        "num_cols": ["price", "stock"], "cat_col": "category",
        "cat_table": "categories", "cat_attr": "aisle",
        "cat_values": ["dairy", "bakery", "produce", "frozen"],
        "attr_values": ["front", "back", "left", "right"],
        "name_col": "name",
        "names": ["milk", "bread", "cheese", "apples", "yogurt", "butter",
                  "rice", "pasta", "beans", "juice", "cereal", "honey"],
    },
]

HARDNESS_LEVELS = ("easy", "medium", "hard")


@dataclass(frozen=True)
class Text2SQLExample:
    """One benchmark item: a question, its gold SQL, and hardness."""

    question: str
    sql: str
    hardness: str


@dataclass
class Text2SQLWorkload:
    """A schema + database + question/SQL pairs."""

    db: Database
    entity_table: str
    cat_table: str
    num_cols: List[str]
    cat_col: str
    cat_attr: str
    name_col: str
    examples: List[Text2SQLExample] = field(default_factory=list)

    @property
    def tables(self) -> List[str]:
        return [self.entity_table, self.cat_table]

    def columns_of(self, table: str) -> List[str]:
        return self.db.table(table).schema.column_names

    def value_lexicon(self) -> Dict[str, List[str]]:
        """Distinct string values per categorical column (for constraints)."""
        lexicon: Dict[str, List[str]] = {}
        entity = self.db.table(self.entity_table)
        cat = self.db.table(self.cat_table)
        for table in (entity, cat):
            for column in table.schema.columns:
                if column.sql_type.value == "TEXT":
                    values = sorted({v for v in table.column_values(column.name) if v})
                    lexicon.setdefault(column.name, []).extend(values)
        return lexicon

    def split(
        self, test_fraction: float, seed: int = 0
    ) -> Tuple[List[Text2SQLExample], List[Text2SQLExample]]:
        """Shuffle examples into (train, test)."""
        rng = SeededRNG(seed)
        shuffled = rng.shuffled(self.examples)
        cut = max(1, int(len(shuffled) * test_fraction))
        return shuffled[cut:], shuffled[:cut]


def generate_workload(
    seed: int = 0,
    num_rows: int = 30,
    examples_per_template: int = 6,
) -> Text2SQLWorkload:
    """Build one synthetic workload: schema, data, and question/SQL pairs."""
    rng = SeededRNG(seed)
    domain = _DOMAINS[seed % len(_DOMAINS)]

    db = _build_database(domain, num_rows, rng.spawn("data"))
    workload = Text2SQLWorkload(
        db=db,
        entity_table=domain["entity_table"],
        cat_table=domain["cat_table"],
        num_cols=list(domain["num_cols"]),
        cat_col=domain["cat_col"],
        cat_attr=domain["cat_attr"],
        name_col=domain["name_col"],
    )
    workload.examples = _generate_examples(
        workload, domain, examples_per_template, rng.spawn("examples")
    )
    return workload


def _build_database(domain: Dict, num_rows: int, rng: SeededRNG) -> Database:
    db = Database()
    cat_col, cat_attr = domain["cat_col"], domain["cat_attr"]
    db.execute(f"CREATE TABLE {domain['cat_table']} ({cat_col} TEXT, {cat_attr} TEXT)")
    for value, attr in zip(domain["cat_values"], domain["attr_values"]):
        db.execute(
            f"INSERT INTO {domain['cat_table']} VALUES ('{value}', '{attr}')"
        )

    num_a, num_b = domain["num_cols"]
    db.execute(
        f"CREATE TABLE {domain['entity_table']} "
        f"({domain['name_col']} TEXT, {cat_col} TEXT, {num_a} INT, {num_b} INT)"
    )
    for i in range(num_rows):
        name = domain["names"][i % len(domain["names"])]
        if i >= len(domain["names"]):
            name = f"{name}{i}"
        category = rng.choice(domain["cat_values"])
        value_a = rng.randint(10, 100)
        value_b = rng.randint(10, 100)
        db.execute(
            f"INSERT INTO {domain['entity_table']} VALUES "
            f"('{name}', '{category}', {value_a}, {value_b})"
        )
    return db


def _generate_examples(
    workload: Text2SQLWorkload,
    domain: Dict,
    per_template: int,
    rng: SeededRNG,
) -> List[Text2SQLExample]:
    t = workload.entity_table
    t2 = workload.cat_table
    entity = domain["entity"]
    cat_col, cat_attr = workload.cat_col, workload.cat_attr
    name_col = workload.name_col
    examples: List[Text2SQLExample] = []

    def add(question: str, sql: str, hardness: str) -> None:
        examples.append(
            Text2SQLExample(question=question.strip(), sql=sql.strip(), hardness=hardness)
        )

    for _ in range(per_template):
        num = rng.choice(workload.num_cols)
        other = [c for c in workload.num_cols if c != num][0]
        value = rng.randint(20, 90)
        cat_value = rng.choice(domain["cat_values"])
        attr_value = rng.choice(domain["attr_values"])
        op_word, op = rng.choice([("greater than", ">"), ("less than", "<"),
                                  ("at least", ">="), ("at most", "<=")])

        # -- easy: projection ------------------------------------------------
        question = rng.choice([
            f"list the {num} of all {t}",
            f"show the {num} of every {entity}",
            f"what are the {num} values of the {t}",
        ])
        add(question, f"select {num} from {t}", "easy")

        # -- easy: filtered projection ---------------------------------------
        question = rng.choice([
            f"list the {name_col} of {t} with {num} {op_word} {value}",
            f"which {t} have a {num} {op_word} {value} ? show their {name_col}",
            f"show the {name_col} of every {entity} whose {num} is {op_word} {value}",
        ])
        add(question, f"select {name_col} from {t} where {num} {op} {value}", "easy")

        # -- easy: categorical filter ------------------------------------------
        question = rng.choice([
            f"list the {name_col} of {t} in the {cat_value} {cat_col}",
            f"show the {name_col} of {t} whose {cat_col} is {cat_value}",
        ])
        add(
            question,
            f"select {name_col} from {t} where {cat_col} = ' {cat_value} '",
            "easy",
        )

        # -- medium: counts --------------------------------------------------
        question = rng.choice([
            f"how many {t} are there",
            f"count the number of {t}",
            f"what is the total number of {t}",
        ])
        add(question, f"select count ( * ) from {t}", "medium")

        question = rng.choice([
            f"how many {t} have {num} {op_word} {value}",
            f"count the {t} whose {num} is {op_word} {value}",
        ])
        add(
            question,
            f"select count ( * ) from {t} where {num} {op} {value}",
            "medium",
        )

        # -- medium: aggregates -----------------------------------------------
        agg_word, agg = rng.choice([
            ("average", "avg"), ("highest", "max"), ("lowest", "min"),
            ("total", "sum"),
        ])
        question = rng.choice([
            f"what is the {agg_word} {num} of the {t}",
            f"find the {agg_word} {num} among all {t}",
        ])
        add(question, f"select {agg} ( {num} ) from {t}", "medium")

        # -- medium: argmax via order/limit ------------------------------------
        question = rng.choice([
            f"what is the {name_col} of the {entity} with the highest {num}",
            f"which {entity} has the top {num} ? give the {name_col}",
        ])
        add(
            question,
            f"select {name_col} from {t} order by {num} desc limit 1",
            "medium",
        )

        # -- hard: group by ----------------------------------------------------
        question = rng.choice([
            f"for each {cat_col} , how many {t} are there",
            f"count the {t} per {cat_col}",
        ])
        add(
            question,
            f"select {cat_col} , count ( * ) from {t} group by {cat_col}",
            "hard",
        )

        question = rng.choice([
            f"for each {cat_col} , what is the average {num} of the {t}",
            f"compute the average {num} per {cat_col}",
        ])
        add(
            question,
            f"select {cat_col} , avg ( {num} ) from {t} group by {cat_col}",
            "hard",
        )

        # -- hard: join --------------------------------------------------------
        question = rng.choice([
            f"list the {name_col} of {t} whose {cat_col} has {cat_attr} {attr_value}",
            f"show the {name_col} of every {entity} in a {cat_col} with {cat_attr} {attr_value}",
        ])
        add(
            question,
            f"select {t} . {name_col} from {t} join {t2} "
            f"on {t} . {cat_col} = {t2} . {cat_col} "
            f"where {t2} . {cat_attr} = ' {attr_value} '",
            "hard",
        )
    return examples


def sql_to_engine_dialect(linearized: str) -> str:
    """Convert the space-separated linearization to engine-parseable SQL.

    The linearization keeps quotes as separate tokens (``' alice '``);
    the engine wants ``'alice'``.
    """
    out = linearized
    # Collapse "' value '" into "'value'".
    import re

    out = re.sub(r"'\s+([^']*?)\s+'", lambda m: "'" + m.group(1) + "'", out)
    out = out.replace(" . ", ".")
    # Rejoin comparison operators split by word-level tokenization.
    out = out.replace("> =", ">=").replace("< =", "<=")
    return out
