"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, cross_entropy
from repro.autograd.functional import attention_parts
from repro.sql import Database
from repro.sql.types import sql_and, sql_not, sql_or
from repro.tokenizers import Vocabulary, WhitespaceTokenizer
from repro.utils.rng import SeededRNG

# ---------------------------------------------------------------------------
# Autograd invariants
# ---------------------------------------------------------------------------
finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _attention_weights(scores, blocked=None):
    """The attention softmax over one query's ``scores``.

    Head size 1 and a unit query make the scaled scores the keys
    themselves.
    """
    keys = np.array(scores, dtype=float).reshape(1, 1, -1, 1)
    return attention_parts(np.ones((1, 1, 1, 1)), keys, keys, blocked)[1][0, 0, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(finite_floats, st.booleans()), min_size=2, max_size=8))
def test_softmax_is_a_distribution(cells):
    values = [value for value, _ in cells]
    blocked = np.array([closed for _, closed in cells])
    blocked[0] = False  # at least one key stays open
    weights = _attention_weights(values, blocked)
    assert np.all(weights >= 0)
    assert weights.sum() == pytest.approx(1.0)
    assert np.all(weights[blocked] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=8), finite_floats)
def test_softmax_shift_invariance(values, shift):
    base = _attention_weights(values)
    shifted = _attention_weights(np.array(values) + shift)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10))
def test_cross_entropy_of_uniform_logits_is_log_v(vocab):
    logits = Tensor(np.zeros((3, vocab)))
    loss = cross_entropy(logits, np.array([0, 1, vocab - 1]))
    assert loss.item() == pytest.approx(np.log(vocab))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(finite_floats, min_size=3, max_size=3),
    st.lists(finite_floats, min_size=3, max_size=3),
)
def test_gradient_of_linear_function_is_its_weights(weights, point):
    x = Tensor(np.array(point), requires_grad=True)
    (x * Tensor(np.array(weights))).sum().backward()
    np.testing.assert_allclose(x.grad, weights, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6))
def test_grad_accumulation_is_additive(values):
    x = Tensor(np.array(values), requires_grad=True)
    (x * 2.0).sum().backward()
    (x * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full(len(values), 5.0), atol=1e-9)


# ---------------------------------------------------------------------------
# Three-valued (Kleene) logic
# ---------------------------------------------------------------------------
TRUTH = [True, False, None]


def test_kleene_tables_exhaustively():
    for a in TRUTH:
        for b in TRUTH:
            # Commutativity.
            assert sql_and(a, b) == sql_and(b, a)
            assert sql_or(a, b) == sql_or(b, a)
            # De Morgan.
            assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))
            assert sql_not(sql_or(a, b)) == sql_and(sql_not(a), sql_not(b))
    # Domination.
    assert sql_and(False, None) is False
    assert sql_or(True, None) is True
    # Unknown propagation.
    assert sql_and(True, None) is None
    assert sql_or(False, None) is None
    assert sql_not(None) is None


# ---------------------------------------------------------------------------
# Vocabulary invariants
# ---------------------------------------------------------------------------
tokens_strategy = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=0, max_size=20
)


@settings(max_examples=40, deadline=None)
@given(tokens_strategy)
def test_vocabulary_ids_are_dense_and_stable(tokens):
    vocab = Vocabulary()
    for token in tokens:
        vocab.add(token)
    # Dense: every id below len(vocab) maps to a token, round-trips.
    for token_id in range(len(vocab)):
        token = vocab.token_of(token_id)
        assert vocab.id_of(token) == token_id
    # Idempotent: re-adding changes nothing.
    size = len(vocab)
    for token in tokens:
        vocab.add(token)
    assert len(vocab) == size


# ---------------------------------------------------------------------------
# Tokenizer invariants
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["apple", "banana", "cherry", "date"]),
                min_size=1, max_size=8))
def test_word_tokenizer_roundtrip_over_known_words(words):
    tokenizer = WhitespaceTokenizer()
    tokenizer.train(["apple banana cherry date"], vocab_size=50)
    text = " ".join(words)
    assert tokenizer.decode(tokenizer.encode(text).ids) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_truncation_bounds_length(max_length):
    tokenizer = WhitespaceTokenizer()
    tokenizer.train(["a b c d e f g h i j k"], vocab_size=50)
    encoding = tokenizer.encode("a b c d e f g h i j k", max_length=max_length)
    assert len(encoding.ids) <= max_length


# ---------------------------------------------------------------------------
# SQL engine invariants over random tables
# ---------------------------------------------------------------------------
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-100, max_value=100),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    ),
    min_size=0,
    max_size=25,
)


def build_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (id INT, v INT)")
    for row_id, value in rows:
        rendered = "NULL" if value is None else str(value)
        db.execute(f"INSERT INTO t VALUES ({row_id}, {rendered})")
    return db


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_count_star_counts_all_rows(rows):
    db = build_db(rows)
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_count_column_skips_nulls(rows):
    db = build_db(rows)
    expected = sum(1 for _, v in rows if v is not None)
    assert db.execute("SELECT COUNT(v) FROM t").scalar() == expected


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_sum_matches_python(rows):
    db = build_db(rows)
    values = [v for _, v in rows if v is not None]
    result = db.execute("SELECT SUM(v) FROM t").scalar()
    if not values:
        assert result is None
    else:
        assert result == sum(values)


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_where_partitions_rows(rows):
    """WHERE p, WHERE NOT p, and WHERE v IS NULL partition the table."""
    db = build_db(rows)
    positive = db.execute("SELECT COUNT(*) FROM t WHERE v > 0").scalar()
    negative = db.execute("SELECT COUNT(*) FROM t WHERE NOT v > 0").scalar()
    nulls = db.execute("SELECT COUNT(*) FROM t WHERE v IS NULL").scalar()
    assert positive + negative + nulls == len(rows)


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_order_by_sorts_with_nulls_last(rows):
    db = build_db(rows)
    ordered = db.execute("SELECT v FROM t ORDER BY v").column("v")
    non_null = [v for v in ordered if v is not None]
    assert non_null == sorted(non_null)
    if None in ordered:
        first_null = ordered.index(None)
        assert all(v is None for v in ordered[first_null:])


@settings(max_examples=30, deadline=None)
@given(rows_strategy, st.integers(min_value=0, max_value=30))
def test_limit_bounds_output(rows, limit):
    db = build_db(rows)
    result = db.execute(f"SELECT id FROM t LIMIT {limit}")
    assert len(result) == min(limit, len(rows))


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_distinct_has_no_duplicates_and_loses_nothing(rows):
    db = build_db(rows)
    distinct = db.execute("SELECT DISTINCT v FROM t").column("v")
    assert len(distinct) == len(set(distinct))
    assert set(distinct) == {v for _, v in rows}


@settings(max_examples=25, deadline=None)
@given(rows_strategy, st.integers(min_value=-50, max_value=50))
def test_delete_removes_exactly_matching_rows(rows, threshold):
    db = build_db(rows)
    expected_deleted = sum(1 for _, v in rows if v is not None and v > threshold)
    result = db.execute(f"DELETE FROM t WHERE v > {threshold}")
    assert result.rowcount == expected_deleted
    assert db.execute(f"SELECT COUNT(*) FROM t WHERE v > {threshold}").scalar() == 0
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows) - expected_deleted


@settings(max_examples=25, deadline=None)
@given(rows_strategy)
def test_update_preserves_cardinality(rows):
    db = build_db(rows)
    db.execute("UPDATE t SET v = 0 WHERE v IS NOT NULL")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)
    non_null = db.execute("SELECT COUNT(*) FROM t WHERE v = 0").scalar()
    assert non_null == sum(1 for _, v in rows if v is not None)


# ---------------------------------------------------------------------------
# RNG determinism
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.text(min_size=1, max_size=8))
def test_rng_spawn_is_stable(seed, label):
    a = SeededRNG(seed).spawn(label)
    b = SeededRNG(seed).spawn(label)
    assert [a.randint(0, 1000) for _ in range(5)] == [
        b.randint(0, 1000) for _ in range(5)
    ]
