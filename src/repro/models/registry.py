"""Registry of historical language models for the Figure 1 reproduction.

Figure 1 of the paper plots parameter counts of well-known language
models against their release year on a log scale. Rather than hard-coding
the published numbers, each entry records the model's *architecture*
(dimension, layers, feed-forward width, attention style, vocabulary) and
the parameter count is **computed** from the architecture with the same
formulas our own models use. Tests assert that the computed counts land
within a documented tolerance of the published ones — i.e. the figure is
derived, not transcribed.

Sources for hyper-parameters: the respective papers cited in the
tutorial ([15] BERT, [63] GPT-2, [65] T5, [18]/[5] GPT-3, [9] Codex,
[50] Jurassic-1, [64] Gopher, [73] MT-NLG, [13] PaLM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ModelError
from repro.models.config import ModelConfig

#: width factor :meth:`HistoricalModel.to_config` applies
CONFIG_SCALE = 1e-4


@dataclass(frozen=True)
class HistoricalModel:
    """One point on the Figure 1 timeline.

    Attributes:
        name: the model's common name.
        year: fractional release year (e.g. 2020.4 for May 2020).
        published_params: the parameter count reported by the authors.
        dim: model (hidden) dimension.
        num_layers: Transformer layers (encoder + decoder for enc-dec).
        ff_dim: feed-forward hidden width.
        vocab_size: token vocabulary size.
        max_seq_len: context length (learned positions; 0 when the model
            uses relative/rotary positions with no position table).
        attn_dim: total attention inner width (heads * head_dim) when it
            differs from ``dim`` (e.g. T5-11B); defaults to ``dim``.
        ff_matrices: 2 for classic MLP, 3 for gated (SwiGLU) variants.
        multi_query: True when keys/values are shared across heads (PaLM).
        cross_attention_layers: decoder layers carrying cross-attention
            (encoder-decoder models only).
        untied_head: True when the LM head is not tied to the embedding.
        architecture: 'lstm' or 'transformer' (ELMo predates the rest).
        tolerance: documented relative error allowed between the computed
            and published count (covers parts we do not model, e.g.
            BERT's pooler or ELMo's character CNN).
    """

    name: str
    year: float
    published_params: int
    dim: int
    num_layers: int
    ff_dim: int
    vocab_size: int
    max_seq_len: int
    attn_dim: Optional[int] = None
    ff_matrices: int = 2
    multi_query: bool = False
    cross_attention_layers: int = 0
    untied_head: bool = False
    architecture: str = "transformer"
    tolerance: float = 0.10
    notes: str = ""

    def estimated_params(self) -> int:
        """Parameter count computed from the architecture."""
        if self.architecture == "lstm":
            return self._lstm_params()
        return self._transformer_params()

    def _transformer_params(self) -> int:
        attn_dim = self.attn_dim if self.attn_dim is not None else self.dim
        if self.multi_query:
            # Multi-query attention: full Q and O, single-head K and V.
            head_dim = attn_dim // max(1, self.dim // 128)  # unused; see below
            kv_dim = attn_dim // (attn_dim // 128) if attn_dim >= 128 else attn_dim
            attention = 2 * self.dim * attn_dim + 2 * self.dim * kv_dim
        else:
            attention = 4 * self.dim * attn_dim
        ff = self.ff_matrices * self.dim * self.ff_dim
        per_layer = attention + ff
        cross = self.cross_attention_layers * (4 * self.dim * attn_dim)
        embeddings = self.vocab_size * self.dim + self.max_seq_len * self.dim
        head = self.vocab_size * self.dim if self.untied_head else 0
        return self.num_layers * per_layer + cross + embeddings + head

    def _lstm_params(self) -> int:
        """Bidirectional projected-LSTM count (ELMo-style).

        Per layer and direction, a projected LSTM with input/projection
        width ``dim`` and hidden width ``ff_dim`` has four gate matrices
        over (input + recurrent projection) plus the projection matrix.
        The character-CNN encoder and softmax are approximated by the
        vocabulary embedding term.
        """
        gates = 4 * self.ff_dim * (self.dim + self.dim)
        projection = self.dim * self.ff_dim
        per_dir_layer = gates + projection
        directions = 2
        recurrent = directions * self.num_layers * per_dir_layer
        embeddings = self.vocab_size * self.dim
        return recurrent + embeddings

    def relative_error(self) -> float:
        """|computed - published| / published."""
        return abs(self.estimated_params() - self.published_params) / self.published_params

    def to_config(self) -> ModelConfig:
        """Return a runnable scaled-down :class:`ModelConfig`.

        ``CONFIG_SCALE`` shrinks the width so the historic shape can
        actually be instantiated and trained on a laptop.
        """
        dim = max(16, int(self.dim * CONFIG_SCALE) // 8 * 8)
        heads = max(2, dim // 16)
        return ModelConfig(
            vocab_size=min(self.vocab_size, 2048),
            max_seq_len=64,
            dim=dim,
            num_layers=max(2, min(self.num_layers // 12, 6)),
            num_heads=heads,
            ff_dim=4 * dim,
            causal=True,
        )


# One entry per model named in the tutorial's Figure 1 narrative
# (Section 1: "[9, 13, 17, 18, 27, 50, 64, 65, 73, 76, 103]" and §2.2).
HISTORICAL_MODELS: List[HistoricalModel] = [
    HistoricalModel(
        name="ELMo", year=2018.1, published_params=94_000_000,
        dim=512, num_layers=2, ff_dim=4096, vocab_size=26_000,
        max_seq_len=0, architecture="lstm", tolerance=0.25,
        notes="biLSTM with projections; char-CNN approximated by embeddings",
    ),
    HistoricalModel(
        name="BERT-Large", year=2018.8, published_params=340_000_000,
        dim=1024, num_layers=24, ff_dim=4096, vocab_size=30_522,
        max_seq_len=512, tolerance=0.10,
        notes="encoder-only; pooler/type embeddings not modeled",
    ),
    HistoricalModel(
        name="GPT-2", year=2019.1, published_params=1_500_000_000,
        dim=1600, num_layers=48, ff_dim=6400, vocab_size=50_257,
        max_seq_len=1024, tolerance=0.10,
    ),
    HistoricalModel(
        name="T5-11B", year=2019.8, published_params=11_000_000_000,
        dim=1024, num_layers=48, ff_dim=65_536, vocab_size=32_128,
        max_seq_len=0, attn_dim=16_384, cross_attention_layers=24,
        tolerance=0.10, notes="encoder-decoder with 128 heads of d_kv=128",
    ),
    HistoricalModel(
        name="Turing-NLG", year=2020.1, published_params=17_000_000_000,
        dim=4256, num_layers=78, ff_dim=17_024, vocab_size=50_257,
        max_seq_len=1024, tolerance=0.10,
    ),
    HistoricalModel(
        name="GPT-3", year=2020.4, published_params=175_000_000_000,
        dim=12_288, num_layers=96, ff_dim=49_152, vocab_size=50_257,
        max_seq_len=2048, tolerance=0.05,
    ),
    HistoricalModel(
        name="GPT-3 Codex", year=2021.5, published_params=12_000_000_000,
        dim=5140, num_layers=40, ff_dim=20_560, vocab_size=50_257,
        max_seq_len=4096, tolerance=0.10,
        notes="fine-tuned from the 12B GPT-3 variant on code",
    ),
    HistoricalModel(
        name="Jurassic-1", year=2021.6, published_params=178_000_000_000,
        dim=13_824, num_layers=76, ff_dim=55_296, vocab_size=256_000,
        max_seq_len=2048, tolerance=0.05,
    ),
    HistoricalModel(
        name="Gopher", year=2021.9, published_params=280_000_000_000,
        dim=16_384, num_layers=80, ff_dim=65_536, vocab_size=32_000,
        max_seq_len=2048, untied_head=True, tolerance=0.15,
        notes="published count includes relative-position parameters",
    ),
    HistoricalModel(
        name="MT-NLG", year=2022.0, published_params=530_000_000_000,
        dim=20_480, num_layers=105, ff_dim=81_920, vocab_size=50_257,
        max_seq_len=2048, tolerance=0.05,
    ),
    HistoricalModel(
        name="PaLM", year=2022.3, published_params=540_000_000_000,
        dim=18_432, num_layers=118, ff_dim=73_728, vocab_size=256_000,
        max_seq_len=2048, ff_matrices=3, multi_query=True, tolerance=0.10,
        notes="SwiGLU feed-forward (3 matrices), multi-query attention",
    ),
]

_BY_NAME: Dict[str, HistoricalModel] = {m.name: m for m in HISTORICAL_MODELS}


def named_config(name: str) -> HistoricalModel:
    """Look up a historical model by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def registry_names() -> List[str]:
    """Names of all registered historical models, in timeline order."""
    return [m.name for m in HISTORICAL_MODELS]
