"""Entity matchers: classical similarity, fine-tuned LM, few-shot prompting."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import WrangleError
from repro.models import BERTModel, GPTModel, ModelConfig
from repro.nn import Linear, Module
from repro.prompting import FewShotPrompt, PromptClassifier, PromptTemplate
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training import pretrain_mlm
from repro.training.metrics import f1_score
from repro.utils.rng import SeededRNG
from repro.wrangle.data import EntityPair
from repro.wrangle.serialize import serialize_pair, serialize_record
from repro.utils.text import jaccard

#: encoder width, and the learning rate and batch size of the pair head's
#: fine-tuning in :class:`FinetunedMatcher`
DIM, LR, BATCH_SIZE = 32, 2e-3, 16


class SimilarityMatcher:
    """Classical baseline: word-set Jaccard similarity with a tuned cutoff."""

    def __init__(self) -> None:
        self.threshold = 0.5

    def fit(self, pairs: Sequence[EntityPair]) -> "SimilarityMatcher":
        """Grid-search the threshold that maximizes F1 on ``pairs``."""
        if not pairs:
            raise WrangleError("cannot fit on zero pairs")
        scores = [self._score(p) for p in pairs]
        labels = [int(p.match) for p in pairs]
        best = (0.0, self.threshold)
        for candidate in [i / 20 for i in range(1, 20)]:
            predictions = [int(s >= candidate) for s in scores]
            f1 = f1_score(predictions, labels)
            if f1 > best[0]:
                best = (f1, candidate)
        self.threshold = best[1]
        return self

    def predict(self, pair: EntityPair) -> bool:
        return self._score(pair) >= self.threshold

    @staticmethod
    def _score(pair: EntityPair) -> float:
        left = " ".join(pair.left.values())
        right = " ".join(pair.right.values())
        return jaccard(left, right)


class _AlignmentHead(Module):
    """Token-alignment matcher over contextual embeddings.

    For every token on one side, find its best cosine match on the other
    side; the *mismatch* ``1 - max_sim`` is weighted by a learned
    per-token importance and summed. Two such penalties (left-to-right
    and right-to-left) feed a linear classifier. This is the
    decomposable-attention recipe of embedding-based entity matchers:
    noise tokens learn zero importance, identity tokens high importance,
    and format-dialect synonyms (``corp``/``corporation``) are pulled
    together in embedding space during fine-tuning.
    """

    def __init__(self, backbone: BERTModel, seed: int = 0) -> None:
        super().__init__()
        self.backbone = backbone
        rng = SeededRNG(seed)
        self.importance = Linear(backbone.config.dim, 1, rng.spawn("imp"))
        self.head = Linear(2, 2, rng.spawn("head"))

    def forward(self, left: Tuple, right: Tuple) -> "object":
        left_ids, left_mask = left
        right_ids, right_mask = right
        hidden_left = self.backbone.encode(left_ids, left_mask)
        hidden_right = self.backbone.encode(right_ids, right_mask)
        penalty_lr = self._penalty(hidden_left, left_mask, hidden_right, right_mask)
        penalty_rl = self._penalty(hidden_right, right_mask, hidden_left, left_mask)
        from repro.autograd import functional as F

        batch = left_ids.shape[0]
        features = F.concat(
            [penalty_lr.reshape(batch, 1), penalty_rl.reshape(batch, 1)], axis=-1
        )
        return self.head(features)

    def _penalty(self, hidden_a, mask_a, hidden_b, mask_b):
        """Sum of importance-weighted mismatches of side A against side B."""
        import numpy as np

        norm_a = self._normalize(hidden_a)
        norm_b = self._normalize(hidden_b)
        sims = norm_a @ norm_b.transpose(0, 2, 1)  # (B, Ta, Tb)
        pad_b = (np.asarray(mask_b) == 0)[:, None, :]
        best = sims.masked_fill(pad_b, -1e9).max_along(axis=2)  # (B, Ta)
        mismatch = 1.0 - best
        raw_importance = self.importance(hidden_a)  # (B, Ta, 1)
        batch, seq = np.asarray(mask_a).shape
        softplus = (raw_importance.reshape(batch, seq).exp() + 1.0).log()
        from repro.autograd import Tensor

        valid_a = Tensor(np.asarray(mask_a, dtype=np.float64))
        return (softplus * mismatch * valid_a).sum(axis=1)

    @staticmethod
    def _normalize(hidden):
        sq = (hidden * hidden).sum(axis=-1, keepdims=True)
        return hidden * ((sq + 1e-8) ** -0.5)


class FinetunedMatcher:
    """Learned entity matcher: MLM-pretrained encoder + alignment head.

    The encoder is pre-trained with masked language modeling on the
    (unlabeled) serialized records, then the token-alignment head is
    fine-tuned end-to-end on labeled pairs — the transfer-learning
    recipe of Ditto-style matchers.
    """

    def __init__(
        self,
        style: str = "attribute",
        seed: int = 0,
    ) -> None:
        self.style = style
        self.seed = seed
        self.tokenizer: Optional[Tokenizer] = None
        self._head: Optional[_AlignmentHead] = None
        self._max_len = 0

    def fit(
        self,
        pairs: Sequence[EntityPair],
        pretrain_steps: int = 60,
        finetune_epochs: int = 10,
    ) -> "FinetunedMatcher":
        """Pre-train the encoder (MLM), then fine-tune the pair head."""
        if not pairs:
            raise WrangleError("cannot fit on zero pairs")
        record_texts = [serialize_record(p.left, self.style) for p in pairs]
        record_texts += [serialize_record(p.right, self.style) for p in pairs]
        tokenizer = WhitespaceTokenizer(lowercase=True)
        tokenizer.train(record_texts, vocab_size=1024)
        self._max_len = max(len(tokenizer.encode(t).ids) for t in record_texts) + 2

        config = ModelConfig(
            vocab_size=tokenizer.vocab_size,
            max_seq_len=self._max_len,
            dim=DIM,
            num_layers=2,
            num_heads=DIM // 16,
            ff_dim=4 * DIM,
            causal=False,
        )
        backbone = BERTModel(config, seed=self.seed)
        pretrain_mlm(
            backbone, tokenizer, record_texts, steps=pretrain_steps,
            seq_len=min(self._max_len, 32), seed=self.seed,
        )
        self.tokenizer = tokenizer
        self._head = _AlignmentHead(backbone, seed=self.seed)
        self._finetune(pairs, finetune_epochs)
        return self

    def _finetune(self, pairs: Sequence[EntityPair], epochs: int) -> None:
        import numpy as np

        from repro.autograd import cross_entropy
        from repro.training.optim import AdamW

        assert self._head is not None and self.tokenizer is not None
        left = self._encode_side([p.left for p in pairs])
        right = self._encode_side([p.right for p in pairs])
        labels = np.array([int(p.match) for p in pairs], dtype=np.int64)
        optimizer = AdamW(self._head.parameters(), lr=LR)
        rng = SeededRNG(self.seed)

        n = len(pairs)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, BATCH_SIZE):
                idx = order[start: start + BATCH_SIZE]
                logits = self._head(
                    (left[0][idx], left[1][idx]), (right[0][idx], right[1][idx])
                )
                loss = cross_entropy(logits, labels[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(1.0)
                optimizer.step()

    def _encode_side(self, records: Sequence[Dict[str, str]]):
        import numpy as np

        assert self.tokenizer is not None
        encodings = [
            self.tokenizer.encode(
                serialize_record(r, self.style),
                max_length=self._max_len, pad_to=self._max_len,
            )
            for r in records
        ]
        ids = np.array([e.ids for e in encodings], dtype=np.int64)
        mask = np.array([e.attention_mask for e in encodings], dtype=np.int64)
        return ids, mask

    def predict(self, pair: EntityPair) -> bool:
        if self._head is None or self.tokenizer is None:
            raise WrangleError("matcher is not fitted")
        from repro.autograd import no_grad

        left = self._encode_side([pair.left])
        right = self._encode_side([pair.right])
        with no_grad():
            logits = self._head(left, right)
        return bool(logits.data[0].argmax() == 1)


class PromptMatcher:
    """Few-shot prompting matcher over a causal LM.

    Builds a k-shot prompt of worked match/no-match examples and scores
    the ``yes``/``no`` verbalizations (§2.3's prompting recipe applied
    to wrangling, as in Narayan et al. [59]).
    """

    def __init__(
        self,
        model: GPTModel,
        tokenizer: Tokenizer,
        shots: Sequence[EntityPair] = (),
    ) -> None:
        template = PromptTemplate("records : {pair} . same entity ?")
        prompt = FewShotPrompt(template, instructions="", answer_prefix="answer :")
        for shot in shots:
            prompt.add_example(
                "yes" if shot.match else "no",
                pair=serialize_pair(shot.left, shot.right),
            )
        self._classifier = PromptClassifier(
            model, tokenizer, prompt, verbalizers={0: "no", 1: "yes"}
        )

    def predict(self, pair: EntityPair, max_shots: Optional[int] = None) -> bool:
        text = serialize_pair(pair.left, pair.right)
        return self._classifier.predict(max_shots=max_shots, pair=text) == 1


def evaluate_matcher(matcher, pairs: Sequence[EntityPair]) -> Dict[str, float]:
    """Return precision/recall/F1/accuracy of a matcher on ``pairs``."""
    from repro.training.metrics import accuracy, precision_recall_f1

    predictions = [int(matcher.predict(p)) for p in pairs]
    labels = [int(p.match) for p in pairs]
    precision, recall, f1 = precision_recall_f1(predictions, labels)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy(predictions, labels),
    }
