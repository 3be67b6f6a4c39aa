"""Tests for BPE, WordPiece and whitespace tokenizers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TokenizerError
from repro.tokenizers import (
    SPECIAL_TOKENS,
    BPETokenizer,
    Vocabulary,
    WhitespaceTokenizer,
    WordPieceTokenizer,
)
from repro.tokenizers.vocab import UNK

CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "databases store rows and columns of data",
    "queries scan tables and return rows",
]


class TestVocabulary:
    def test_specials_have_stable_ids(self):
        v1, v2 = Vocabulary(), Vocabulary()
        assert v1.pad_id == v2.pad_id == 0
        assert v1.unk_id == v2.unk_id

    def test_add_is_idempotent(self):
        v = Vocabulary()
        a = v.add("hello")
        b = v.add("hello")
        assert a == b

    def test_unknown_token_maps_to_unk(self):
        v = Vocabulary()
        assert v.id_of("nonexistent") == v.unk_id

    def test_strict_lookup_raises(self):
        v = Vocabulary()
        with pytest.raises(TokenizerError):
            v.strict_id_of("nonexistent")

    def test_token_of_out_of_range(self):
        v = Vocabulary()
        with pytest.raises(TokenizerError):
            v.token_of(10_000)

    def test_roundtrip(self):
        v = Vocabulary.from_tokens(["a", "b", "c"])
        for token in ["a", "b", "c"]:
            assert v.token_of(v.id_of(token)) == token

    def test_len_counts_specials(self):
        v = Vocabulary()
        assert len(v) == len(SPECIAL_TOKENS)


class TestBPE:
    @pytest.fixture(scope="class")
    def tok(self):
        t = BPETokenizer()
        t.train(CORPUS, vocab_size=120)
        return t

    def test_untrained_raises(self):
        with pytest.raises(TokenizerError):
            BPETokenizer().encode("hello")

    def test_empty_corpus_raises(self):
        with pytest.raises(TokenizerError):
            BPETokenizer().train([], vocab_size=50)

    def test_roundtrip_on_training_text(self, tok):
        for doc in CORPUS:
            assert tok.decode(tok.encode(doc).ids) == doc

    def test_learned_merges_compress(self, tok):
        # Frequent words should need fewer tokens than characters.
        pieces = tok.tokenize("the")
        assert len(pieces) < 3

    def test_unseen_word_falls_back_to_chars(self, tok):
        pieces = tok.tokenize("zebra")
        assert len(pieces) >= 1  # still encodable via characters/unk

    def test_bos_eos(self, tok):
        enc = tok.encode("the dog", add_bos=True, add_eos=True)
        assert enc.ids[0] == tok.vocab.bos_id
        assert enc.ids[-1] == tok.vocab.eos_id

    def test_padding_and_mask(self, tok):
        enc = tok.encode("the dog", pad_to=20)
        assert len(enc.ids) == 20
        assert sum(enc.attention_mask) < 20
        assert enc.ids[-1] == tok.vocab.pad_id

    def test_pad_too_short_raises(self, tok):
        with pytest.raises(TokenizerError):
            tok.encode("the quick brown fox jumps", pad_to=2)

    def test_truncation(self, tok):
        enc = tok.encode("the quick brown fox jumps over the lazy dog", max_length=4)
        assert len(enc.ids) == 4

    def test_deterministic_training(self):
        a, b = BPETokenizer(), BPETokenizer()
        a.train(CORPUS, vocab_size=100)
        b.train(CORPUS, vocab_size=100)
        assert a.vocab.to_dict() == b.vocab.to_dict()
        assert a.merges == b.merges

    def test_vocab_size_respected(self, tok):
        assert tok.vocab_size <= 120

    def test_word_memoization_is_transparent(self):
        tok = BPETokenizer()
        tok.train(CORPUS, vocab_size=120)
        text = "the quick fox scans rows"
        cold = tok.encode(text).ids
        assert tok._word_cache  # encode populated the memo
        assert tok.encode(text).ids == cold  # warm hit, same tokens

    def test_retrain_invalidates_word_cache(self):
        new_corpus = ["aa ab aa ab abab", "abab aa bb ab"]
        tok, twin = BPETokenizer(), BPETokenizer()
        for t in (tok, twin):
            t.train(CORPUS, vocab_size=120)
        tok.encode("the quick brown fox")  # populate the memo
        assert tok._word_cache
        # Retrain both; only `tok` ever held cached merge results. Any
        # stale entry surviving train() would make them diverge.
        for t in (tok, twin):
            t.train(new_corpus, vocab_size=160)
        assert not tok._word_cache
        for text in ("abab aa", "the quick brown fox"):
            assert tok.encode(text).ids == twin.encode(text).ids


class TestWordPiece:
    @pytest.fixture(scope="class")
    def tok(self):
        t = WordPieceTokenizer()
        t.train(CORPUS, vocab_size=150)
        return t

    def test_roundtrip_words(self, tok):
        text = "the quick brown fox"
        decoded = tok.decode(tok.encode(text).ids)
        assert decoded == text

    def test_continuation_prefix(self, tok):
        # A rare-but-seen word should split into pieces with ## continuations.
        pieces = tok.tokenize("jumps")
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == "jumps"
        for piece in pieces[1:]:
            assert piece.startswith("##")

    def test_unseen_character_is_unk(self, tok):
        pieces = tok.tokenize("日本")
        assert pieces and all(p == UNK for p in pieces)

    def test_lowercasing(self, tok):
        assert tok.tokenize("THE") == tok.tokenize("the")

    def test_pair_encoding_structure(self, tok):
        enc = tok.encode_pair("the fox", "the dog")
        assert enc.ids[0] == tok.vocab.cls_id
        assert enc.ids.count(tok.vocab.sep_id) == 2


class TestWhitespace:
    def test_word_level_roundtrip(self):
        t = WhitespaceTokenizer()
        t.train(CORPUS, vocab_size=100)
        text = "queries scan tables"
        assert t.decode(t.encode(text).ids) == text

    def test_oov_becomes_unk(self):
        t = WhitespaceTokenizer()
        t.train(["a b c"], vocab_size=50)
        enc = t.encode("a z")
        assert enc.ids[1] == t.vocab.unk_id


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127), min_size=1, max_size=30))
def test_bpe_roundtrip_property(word):
    """BPE decode(encode(x)) recovers any whitespace-normalized text
    composed of characters seen in training."""
    tok = BPETokenizer()
    tok.train([" ".join("abcdefghijklmnopqrstuvwxyz")], vocab_size=60)
    normalized = " ".join(word.split())
    assert tok.decode(tok.encode(normalized).ids) == normalized
