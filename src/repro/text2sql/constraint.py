"""PICARD-style grammar-constrained decoding for SQL generation.

The constraint incrementally parses the generated SQL token prefix
against a schema-specialized grammar: every alternative is expanded per
table (and per column for value positions), so schema consistency holds
*by construction* — e.g. after ``select salary from`` only tables that
actually contain ``salary`` are permitted, which is exactly the
incremental filtering PICARD [69] performs on top of a large LM.

The grammar engine is a tiny parser-combinator library over word
tokens. ``advance(tokens, i)`` returns both the positions a rule can
reach and the set of tokens it would accept next when input runs out —
the union of the latter over all live alternatives is the allowed-token
set for the decoder.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import Text2SQLError
from repro.tokenizers import Tokenizer
from repro.text2sql.workload import Text2SQLWorkload

_NUMBER_RE = re.compile(r"^\d+$")


# -- parser combinators -------------------------------------------------------
class Rule:
    """Base grammar rule over a token sequence."""

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        """Return (reachable end positions, allowed tokens at prefix end)."""
        raise NotImplementedError


class Tok(Rule):
    """Match one token from a fixed candidate set."""

    def __init__(self, *candidates: str) -> None:
        self.candidates = frozenset(candidates)

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        if i >= len(tokens):
            return set(), set(self.candidates)
        if tokens[i] in self.candidates:
            return {i + 1}, set()
        return set(), set()


class Number(Rule):
    """Match any integer token; offer ``suggestions`` while decoding."""

    def __init__(self, suggestions: Sequence[str]) -> None:
        self.suggestions = [s for s in suggestions if _NUMBER_RE.match(s)]

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        if i >= len(tokens):
            return set(), set(self.suggestions)
        if _NUMBER_RE.match(tokens[i]):
            return {i + 1}, set()
        return set(), set()


class Seq(Rule):
    """Match rules one after another."""

    def __init__(self, *rules: Rule) -> None:
        self.rules = rules

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        positions = {i}
        allowed: Set[str] = set()
        for rule in self.rules:
            next_positions: Set[int] = set()
            for position in positions:
                ends, nexts = rule.advance(tokens, position)
                next_positions |= ends
                allowed |= nexts
            if not next_positions:
                return set(), allowed
            positions = next_positions
        return positions, allowed


class Alt(Rule):
    """Match any one of several alternatives."""

    def __init__(self, *rules: Rule) -> None:
        self.rules = rules

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        positions: Set[int] = set()
        allowed: Set[str] = set()
        for rule in self.rules:
            ends, nexts = rule.advance(tokens, i)
            positions |= ends
            allowed |= nexts
        return positions, allowed


class Opt(Rule):
    """Match a rule or nothing."""

    def __init__(self, rule: Rule) -> None:
        self.rule = rule

    def advance(self, tokens: Sequence[str], i: int) -> Tuple[Set[int], Set[str]]:
        ends, allowed = self.rule.advance(tokens, i)
        return ends | {i}, allowed


# -- the SQL grammar, specialized to a workload's schema ---------------------
def build_sql_grammar(
    workload: Text2SQLWorkload, question: Optional[str] = None
) -> Rule:
    """Build the schema-specialized grammar for one workload.

    ``question`` enables value linking: number literals mentioned in the
    question are offered as decoding suggestions (plus ``1`` for LIMIT).
    """
    question_numbers = re.findall(r"\d+", question or "")
    number_suggestions = sorted(set(question_numbers)) or ["1"]
    lexicon = workload.value_lexicon()

    def simple_query(table: str) -> Rule:
        columns = workload.columns_of(table)
        text_cols = [c for c in columns if _is_text_col(workload, table, c)]
        num_cols = [c for c in columns if c not in text_cols]
        agg = Tok("avg", "min", "max", "sum")
        count_star = Seq(Tok("count"), Tok("("), Tok("*"), Tok(")"))
        agg_col = Seq(agg, Tok("("), Tok(*num_cols), Tok(")")) if num_cols else None

        head_options: List[Rule] = [Tok(*columns), count_star]
        if agg_col is not None:
            head_options.append(agg_col)
        # GROUP BY heads: "catcol , count(*)" / "catcol , agg(num)".
        group_heads: List[Rule] = []
        if text_cols:
            group_agg: List[Rule] = [count_star]
            if agg_col is not None:
                group_agg.append(agg_col)
            group_heads.append(Seq(Tok(*text_cols), Tok(","), Alt(*group_agg)))
        head = Alt(*head_options, *group_heads)

        # The word tokenizer splits ">=" into ">", "=", so comparisons
        # are one token (">", "<", "=") optionally followed by "=".
        comparison = Alt(Seq(Tok(">", "<"), Opt(Tok("="))), Tok("="))
        predicates: List[Rule] = []
        if num_cols:
            predicates.append(
                Seq(Tok(*num_cols), comparison, Number(number_suggestions))
            )
        for column in text_cols:
            values = lexicon.get(column, [])
            if values:
                predicates.append(
                    Seq(Tok(column), Tok("="), Tok("'"), Tok(*values), Tok("'"))
                )
        where = Opt(Seq(Tok("where"), Alt(*predicates))) if predicates else Seq()
        group = (
            Opt(Seq(Tok("group"), Tok("by"), Tok(*text_cols)))
            if text_cols else Seq()
        )
        order = (
            Opt(Seq(Tok("order"), Tok("by"), Tok(*num_cols),
                    Opt(Tok("desc", "asc")), Tok("limit"), Number(["1"])))
            if num_cols else Seq()
        )
        return Seq(Tok("select"), head, Tok("from"), Tok(table), where, group, order)

    def join_query(left: str, right: str, key: str) -> Rule:
        left_cols = workload.columns_of(left)
        right_text = [
            c for c in workload.columns_of(right)
            if _is_text_col(workload, right, c) and c != key
        ]
        predicates: List[Rule] = []
        for column in right_text:
            values = lexicon.get(column, [])
            if values:
                predicates.append(
                    Seq(Tok(right), Tok("."), Tok(column), Tok("="),
                        Tok("'"), Tok(*values), Tok("'"))
                )
        if not predicates:
            predicates.append(Seq(Tok("1"), Tok("="), Tok("1")))
        return Seq(
            Tok("select"), Tok(left), Tok("."), Tok(*left_cols),
            Tok("from"), Tok(left), Tok("join"), Tok(right),
            Tok("on"), Tok(left), Tok("."), Tok(key), Tok("="),
            Tok(right), Tok("."), Tok(key),
            Tok("where"), Alt(*predicates),
        )

    alternatives: List[Rule] = [
        simple_query(workload.entity_table),
        simple_query(workload.cat_table),
        join_query(workload.entity_table, workload.cat_table, workload.cat_col),
    ]
    return Alt(*alternatives)


def _is_text_col(workload: Text2SQLWorkload, table: str, column: str) -> bool:
    schema = workload.db.table(table).schema
    return schema.column(column).sql_type.value == "TEXT"


def allowed_continuations(
    grammar: Rule, prefix_tokens: Sequence[str]
) -> Tuple[Set[str], bool]:
    """Return (allowed next tokens, whether the prefix is a complete query)."""
    ends, allowed = grammar.advance(prefix_tokens, 0)
    complete = len(prefix_tokens) in ends
    return allowed, complete


class SQLGrammarConstraint:
    """A :class:`~repro.generation.decoding.TokenConstraint` for SQL.

    Maps between the decoder's token ids and grammar token strings. When
    the prefix forms a complete query the EOS token is offered (and is
    the *only* option once no continuation exists).
    """

    def __init__(
        self,
        workload: Text2SQLWorkload,
        tokenizer: Tokenizer,
        question: Optional[str] = None,
    ) -> None:
        self.grammar = build_sql_grammar(workload, question)
        self.tokenizer = tokenizer
        self._eos = tokenizer.vocab.eos_id

    def allowed_tokens(self, generated_ids: Sequence[int]) -> Optional[Sequence[int]]:
        prefix = [
            self.tokenizer.vocab.token_of(token_id) for token_id in generated_ids
        ]
        allowed, complete = allowed_continuations(self.grammar, prefix)
        ids = [
            self.tokenizer.vocab.id_of(token)
            for token in allowed
            if token in self.tokenizer.vocab
        ]
        if complete:
            ids.append(self._eos)
        if not ids:
            raise Text2SQLError(
                f"constrained decoding reached a dead end after {prefix!r}"
            )
        return sorted(set(ids))
