"""Inverted index over tokenized facts: the candidate generator.

Corpus-scale retrieval cannot afford a dense scan per query, so the
:class:`~repro.neuraldb.retriever.EmbeddingRetriever` composes two
stages: this index proposes a small candidate set from token postings,
then the embedding stage scores only those candidates. The index is
purely lexical — postings map each (lowercased, whitespace) token to
the document ids containing it — which is exactly what makes it cheap
to maintain incrementally: adding or removing one fact touches only
that fact's own tokens.

Candidate scoring is idf-weighted token overlap,
``idf = log(1 + N / df)``, so a query term appearing in three facts
out-votes one appearing in thousands. Query tokens whose document
frequency exceeds :data:`MAX_DF_FRACTION` of the corpus (the "works",
"where", "the" class) are skipped as stopwords — unless *every* query
token is that common, in which case they are all kept rather than
returning nothing. Ordering is deterministic: ``(-score, doc_id)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NeuralDBError
from repro.utils.text import simple_word_tokenize

#: query tokens in more than this share of the documents are stopwords
MAX_DF_FRACTION = 0.25


class InvertedIndex:
    """Token postings over documents keyed by integer ids."""

    def __init__(self) -> None:
        self._postings: Dict[str, Set[int]] = {}
        self._tokens: Dict[int, Tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._tokens

    @staticmethod
    def tokenize(text: str) -> List[str]:
        return simple_word_tokenize(text.lower())

    def add(self, doc_id: int, text: str) -> None:
        """Index one document (its tokens only — O(len(text)))."""
        if doc_id in self._tokens:
            raise NeuralDBError(f"document {doc_id} is already indexed")
        tokens = tuple(self.tokenize(text))
        self._tokens[doc_id] = tokens
        for token in set(tokens):
            self._postings.setdefault(token, set()).add(doc_id)

    def remove(self, doc_id: int) -> None:
        """Drop one document from its own postings — O(len(text))."""
        tokens = self._tokens.pop(doc_id, None)
        if tokens is None:
            raise NeuralDBError(f"document {doc_id} is not indexed")
        for token in set(tokens):
            postings = self._postings.get(token)
            if postings is not None:
                postings.discard(doc_id)
                if not postings:
                    del self._postings[token]

    def candidates(
        self, query: str, limit: Optional[int] = None
    ) -> List[int]:
        """Document ids matching ``query``, best idf-overlap first.

        Returns ``[]`` when no query token is indexed; callers fall
        back to a dense scan in that case. ``limit`` truncates after
        the deterministic ``(-score, doc_id)`` sort.
        """
        total = len(self._tokens)
        if total == 0:
            return []
        matched: List[Tuple[str, Set[int]]] = []
        for token in set(self.tokenize(query)):
            postings = self._postings.get(token)
            if postings:
                matched.append((token, postings))
        if not matched:
            return []
        max_df = MAX_DF_FRACTION * total
        selective = [pair for pair in matched if len(pair[1]) <= max_df]
        # All-stopword queries keep every matched token: a weak
        # candidate set beats an empty one.
        if selective:
            matched = selective
        scores: Dict[int, float] = {}
        for _, postings in matched:
            idf = math.log(1.0 + total / len(postings))
            for doc_id in postings:
                scores[doc_id] = scores.get(doc_id, 0.0) + idf
        ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
        return ranked[:limit] if limit is not None else ranked
