"""The graph-free cached forward: kernels, decode identity, structure.

Every module on the KV-cached path (``GPTModel.encode_chunk`` down to
the attention itself) runs a graph-free kernel on plain arrays: ``infer``,
or ``incremental`` for attention.
The autograd ``forward`` is the oracle: each kernel must equal it bit
for bit, greedy cached decode must equal ``generate(use_cache=False)``,
and ``encode_chunk``/``forward_chunk`` must build no Tensor at all,
however deep the model is.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompletionClient, ModelHub
from repro.autograd import Tensor, no_grad
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.nn import FeedForward, LayerNorm, Linear, MultiHeadAttention, causal_mask
from repro.serving import BatchRequest, BatchScheduler
from repro.training.adapters import LoRALinear, inject_adapters
from repro.utils.rng import SeededRNG

KINDS = ("linear", "linear_nobias", "layernorm", "feedforward", "lora", "attention")


def _randomize(module, gen) -> None:
    """Non-trivial weights: zero biases and unit norms would hide order bugs."""
    for param in module.parameters():
        param.data = gen.normal(size=param.shape)


def _kernel_module(kind: str, dim: int, seed: int):
    rng = SeededRNG(seed)
    gen = np.random.default_rng(seed)
    if kind == "attention":
        # Two heads of size dim // 2: 4 to 15, mostly not powers of two.
        module = MultiHeadAttention(dim, 2, rng, causal=seed % 2 == 0)
    elif kind == "layernorm":
        module = LayerNorm(dim)
    elif kind == "feedforward":
        module = FeedForward(dim, 2 * dim + 1, rng)
    elif kind == "lora":
        module = LoRALinear(Linear(dim, 7, rng), rank=2, rng=rng.spawn("lora"))
    else:
        module = Linear(dim, 7, rng, bias=kind != "linear_nobias")
    _randomize(module, gen)
    if kind == "lora":
        _randomize(module.base, gen)  # frozen, so not in parameters()
    return module


def _infer(module, x: np.ndarray) -> np.ndarray:
    """The module's graph-free kernel; attention runs over a fresh K/V slab."""
    if not isinstance(module, MultiHeadAttention):
        return module.infer(x)
    batch, seq, _ = x.shape
    shape = (batch, module.num_heads, seq, module.head_dim)
    cache = {"k": np.zeros(shape), "v": np.zeros(shape)}
    blocked = causal_mask(seq) if module.causal else None
    return module.incremental(
        x, cache, blocked, write_cols=slice(0, seq), kv_len=seq
    )


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    shape=st.tuples(
        st.integers(1, 3), st.integers(1, 6), st.integers(1, 12)
    ),
    seed=st.integers(0, 2**16),
    transposed=st.booleans(),
    recording=st.booleans(),
)
def test_kernel_equals_autograd_forward(kind, shape, seed, transposed, recording):
    if kind == "attention":
        shape = (*shape[:2], 2 * (shape[2] + 3))
    module = _kernel_module(kind, shape[2], seed)
    gen = np.random.default_rng(seed + 1)
    if transposed:
        # Same values, non-contiguous strides.
        x = gen.normal(size=shape[::-1]).transpose(2, 1, 0)
    else:
        x = gen.normal(size=shape)
    # With recording on, the fused training nodes (one-node LayerNorm,
    # Linear and attention) build the graph; with it off, no graph is kept.
    with contextlib.nullcontext() if recording else no_grad():
        expected = module(Tensor(x, requires_grad=recording)).data
    out = _infer(module, x)
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, expected)


@settings(max_examples=15, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.integers(1, 4),
    head_dim=st.sampled_from([2, 4]),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_cached_greedy_decode_equals_recompute(layers, heads, head_dim, lengths, seed):
    config = ModelConfig(
        vocab_size=31, max_seq_len=24, dim=heads * head_dim,
        num_layers=layers, num_heads=heads, ff_dim=4 * heads * head_dim,
    )
    model = GPTModel(config, seed=seed)
    gen = np.random.default_rng(seed)
    prompts = [list(map(int, gen.integers(1, 31, size=n))) for n in lengths]
    gen_config = GenerationConfig(max_new_tokens=6)
    oracle = [generate(model, p, gen_config, use_cache=False) for p in prompts]

    assert [generate(model, p, gen_config) for p in prompts] == oracle
    scheduler = BatchScheduler(model, max_batch_size=3)
    tickets = [scheduler.submit(BatchRequest(p, gen_config)) for p in prompts]
    results = scheduler.run()
    assert [results[t].sequences[0] for t in tickets] == oracle


class TestStructure:
    def test_cached_forward_builds_no_tensors(self, monkeypatch):
        built = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        for layers in (2, 12):
            model = GPTModel(ModelConfig(vocab_size=20, num_layers=layers), seed=0)
            caches = model.init_cache(1, 9)
            monkeypatch.setattr(Tensor, "__init__", counting)
            try:
                hidden = model.encode_chunk(
                    np.arange(1, 9)[None, :], np.arange(8)[None, :], caches,
                    blocked=causal_mask(8)[None, None],
                    write_cols=slice(0, 8), kv_len=8,
                )
                logits = model.forward_chunk(
                    np.array([[3]]), np.array([[8]]), caches,
                    write_cols=np.array([8]), kv_len=9,
                )
            finally:
                monkeypatch.undo()
            # Embedding gather, blocks, final norm and LM head all run
            # on plain arrays, however deep the model is.
            assert built == []
            assert type(hidden) is np.ndarray
            assert hidden.shape == (1, 8, model.config.dim)
            assert type(logits) is np.ndarray and logits.shape == (1, 1, 20)


@pytest.mark.parametrize(
    "dim, heads, layers",
    [(48, 3, 2), (64, 4, 12)],
    ids=["translator", "twelve-layer"],
)
def test_decode_step_rows_equal_batch_one(dim, heads, layers):
    """Each row of a ragged batch-8 decode step has the logits, bit for
    bit, of the same row stepped alone at batch 1 over the same columns.

    The block matmuls run on (B, 1, D), one product per row, as at batch
    1; a single flattened (B, D) product rounds differently (by ~1e-14),
    so a batched row would stop matching the batch-1 oracle exactly.
    """
    model = GPTModel(
        ModelConfig(
            vocab_size=50, max_seq_len=32, dim=dim, num_layers=layers,
            num_heads=heads, ff_dim=4 * dim,
        ),
        seed=3,
    )
    gen = np.random.default_rng(7)
    lengths = gen.integers(1, 20, size=8)
    kv_len = int(lengths.max()) + 1
    caches = model.init_cache(8, kv_len)
    for cache in caches:
        for slab in cache.values():
            slab[...] = gen.normal(size=slab.shape)
    step_ids = gen.integers(1, 50, size=(8, 1))
    blocked = (np.arange(kv_len)[None, :] > lengths[:, None])[:, None, None, :]
    alone_caches = [
        [{name: slab[r : r + 1].copy() for name, slab in cache.items()} for cache in caches]
        for r in range(8)
    ]
    batched = model.forward_chunk(
        step_ids, lengths[:, None], caches,
        blocked=blocked, write_cols=lengths, kv_len=kv_len,
    )
    for r in range(8):
        alone = model.forward_chunk(
            step_ids[r : r + 1], lengths[r : r + 1, None], alone_caches[r],
            blocked=blocked[r : r + 1], write_cols=lengths[r : r + 1], kv_len=kv_len,
        )
        assert np.array_equal(alone[0], batched[r])


class TestLoRACachedDecode:
    """Un-merged adapters must serve through the cached path."""

    @pytest.fixture(scope="class")
    def adapted(self, tiny_gpt):
        model = copy.deepcopy(tiny_gpt)
        gen = np.random.default_rng(0)
        for adapter in inject_adapters(model, rank=2, seed=1):
            adapter.lora_b.data = gen.normal(size=adapter.lora_b.shape) * 0.5
        return model

    def test_adapter_changes_the_model(self, adapted, tiny_gpt):
        ids = np.array([[2, 5, 7, 9]])
        assert not np.array_equal(adapted(ids).data, tiny_gpt(ids).data)

    def test_cached_generate_equals_recompute(self, adapted):
        config = GenerationConfig(max_new_tokens=8)
        for prompt in ([2, 5, 7], [3], [4, 8, 6, 9, 10]):
            assert generate(adapted, prompt, config) == generate(
                adapted, prompt, config, use_cache=False
            )

    def test_completion_batch_equals_generate(self, adapted, word_tokenizer):
        hub = ModelHub()
        hub.register("lora-gpt", adapted, word_tokenizer)
        prompts = ["the cat sat", "a dog", "the table scans sorted rows"]
        batch = CompletionClient(hub).complete_batch("lora-gpt", prompts, max_tokens=6)
        config = GenerationConfig(
            max_new_tokens=6, stop_ids=(word_tokenizer.vocab.eos_id,)
        )
        expected = [
            word_tokenizer.decode(
                generate(adapted, word_tokenizer.encode(p, add_bos=True).ids, config)
            )
            for p in prompts
        ]
        assert [r.text for r in batch] == expected
