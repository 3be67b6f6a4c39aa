"""Synthetic datasets for the wrangling tasks.

The entity-matching generator builds product records and renders each
entity through multiple *format dialects* (vendor feeds): abbreviated
brand names, reordered fields, dropped attributes, unit synonyms. Two
renderings match iff they come from the same entity. The dialect map is
what a similarity baseline cannot see and a fine-tuned model can learn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.utils.rng import SeededRNG

Record = Dict[str, str]

_BRANDS = [
    ("northwind corporation", "northwind corp"),
    ("acme industries", "acme ind"),
    ("globex incorporated", "globex inc"),
    ("initech limited", "initech ltd"),
    ("umbrella systems", "umbrella sys"),
    ("stark manufacturing", "stark mfg"),
]
_PRODUCTS = ["keyboard", "monitor", "printer", "scanner", "router", "webcam",
             "headset", "speaker"]
_SIZE_UNITS = [("inch", "in"), ("centimeter", "cm")]
_COLORS = ["black", "white", "silver", "blue"]


@dataclass(frozen=True)
class EntityPair:
    """Two serializable records plus the gold match label."""

    left: Record
    right: Record
    match: bool


@dataclass(frozen=True)
class ErrorDetectionExample:
    """One record plus whether its ``value`` cell is erroneous."""

    record: Record
    erroneous: bool


@dataclass(frozen=True)
class ImputationExample:
    """A record with one attribute hidden; the task is to restore it."""

    record: Record
    target_column: str
    target_value: str


@dataclass(frozen=True)
class _Entity:
    brand_index: int
    product: str
    size: int
    color: str


_NOISE_TOKENS = ["new", "sale", "oem", "refurb", "bulk", "promo", "clearance",
                 "bundle", "premium", "basic"]


def _render(entity: _Entity, dialect: int, rng: SeededRNG) -> Record:
    """Render an entity in one vendor's format dialect.

    Dialects differ in brand abbreviation and size units, and each
    rendering sprinkles in vendor noise tokens (marketing words) that
    carry no identity signal — the noise that sinks bag-of-words
    similarity while a trained model learns to ignore it.
    """
    full_brand, short_brand = _BRANDS[entity.brand_index]
    brand = full_brand if dialect == 0 else short_brand
    long_unit, short_unit = _SIZE_UNITS[dialect % len(_SIZE_UNITS)]
    unit = long_unit if dialect == 0 else short_unit
    title_words = [entity.product, str(entity.size), unit]
    for _ in range(rng.randint(1, 3)):
        title_words.append(rng.choice(_NOISE_TOKENS))
    record = {
        "brand": brand,
        "title": " ".join(rng.shuffled(title_words)),
        "color": entity.color,
    }
    if dialect == 1 and rng.coin(0.5):
        record["color"] = ""  # vendor 1 often omits the color
    return record


def generate_matching_dataset(
    num_pairs: int = 120, seed: int = 0
) -> List[EntityPair]:
    """Balanced match/non-match pairs across format dialects.

    Negatives are *hard*: they share the brand or the product so that
    bag-of-words overlap alone cannot separate the classes.
    """
    rng = SeededRNG(seed)
    entities = [
        _Entity(
            brand_index=rng.randint(0, len(_BRANDS)),
            product=rng.choice(_PRODUCTS),
            size=rng.choice([15, 17, 19, 21, 24, 27]),
            color=rng.choice(_COLORS),
        )
        for _ in range(num_pairs)
    ]
    pairs: List[EntityPair] = []
    for i in range(num_pairs):
        entity = entities[i]
        if i % 2 == 0:
            # Positive: the same entity through two dialects.
            left = _render(entity, 0, rng.spawn(f"l{i}"))
            right = _render(entity, 1, rng.spawn(f"r{i}"))
            pairs.append(EntityPair(left=left, right=right, match=True))
        else:
            # Hard negative: perturb exactly one identity attribute.
            other = _perturb_entity(entity, rng)
            left = _render(entity, 0, rng.spawn(f"l{i}"))
            right = _render(other, 1, rng.spawn(f"r{i}"))
            pairs.append(EntityPair(left=left, right=right, match=False))
    return pairs


def _perturb_entity(entity: _Entity, rng: SeededRNG) -> _Entity:
    """Copy an entity, changing one identity attribute."""
    which = rng.randint(0, 3)
    if which == 0:
        brand = (entity.brand_index + 1 + rng.randint(0, len(_BRANDS) - 1)) % len(_BRANDS)
        return _Entity(brand, entity.product, entity.size, entity.color)
    if which == 1:
        product = rng.choice([p for p in _PRODUCTS if p != entity.product])
        return _Entity(entity.brand_index, product, entity.size, entity.color)
    sizes = [s for s in [15, 17, 19, 21, 24, 27] if s != entity.size]
    return _Entity(entity.brand_index, entity.product, rng.choice(sizes), entity.color)


# -- error detection ----------------------------------------------------------
_CATEGORY_DOMAINS = {
    "electronics": ["keyboard", "monitor", "printer", "router"],
    "furniture": ["desk", "chair", "shelf", "cabinet"],
    "stationery": ["pen", "notebook", "stapler", "marker"],
}


def generate_error_dataset(
    num_examples: int = 120, error_rate: float = 0.3, seed: int = 0
) -> List[ErrorDetectionExample]:
    """Records with a ``category``/``value`` pair; errors put a value
    outside its category's domain (a functional-dependency violation)."""
    rng = SeededRNG(seed)
    categories = list(_CATEGORY_DOMAINS)
    examples: List[ErrorDetectionExample] = []
    for i in range(num_examples):
        category = rng.choice(categories)
        erroneous = rng.coin(error_rate)
        if erroneous:
            wrong_category = rng.choice([c for c in categories if c != category])
            value = rng.choice(_CATEGORY_DOMAINS[wrong_category])
        else:
            value = rng.choice(_CATEGORY_DOMAINS[category])
        record = {
            "id": str(i),
            "category": category,
            "value": value,
        }
        examples.append(ErrorDetectionExample(record=record, erroneous=erroneous))
    return examples


# -- imputation ------------------------------------------------------------------
def generate_imputation_dataset(
    num_examples: int = 120, seed: int = 0
) -> List[ImputationExample]:
    """Records whose ``category`` is derivable from the ``value`` column
    (the inverse functional dependency), then hidden for the task."""
    rng = SeededRNG(seed)
    categories = list(_CATEGORY_DOMAINS)
    examples: List[ImputationExample] = []
    for i in range(num_examples):
        category = rng.choice(categories)
        value = rng.choice(_CATEGORY_DOMAINS[category])
        record = {"id": str(i), "value": value, "category": ""}
        examples.append(
            ImputationExample(
                record=record, target_column="category", target_value=category
            )
        )
    return examples
