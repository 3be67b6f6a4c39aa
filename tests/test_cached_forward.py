"""The graph-free cached forward: kernels, decode identity, structure.

Every module on the KV-cached path (``GPTModel.encode_chunk`` down to
the attention projections) runs an ``infer`` kernel on plain arrays.
The autograd ``forward`` is the oracle: each kernel must equal it bit
for bit, greedy cached decode must equal ``generate(use_cache=False)``,
and one ``encode_chunk`` must build a fixed handful of Tensors however
deep the model is.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompletionClient, ModelHub
from repro.autograd import Tensor
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.nn import FeedForward, LayerNorm, Linear, QuantizedLinear
from repro.serving import BatchRequest, BatchScheduler
from repro.training.adapters import LoRALinear, inject_adapters
from repro.utils.rng import SeededRNG

KINDS = ("linear", "linear_nobias", "layernorm", "feedforward", "int8", "lora")


def _randomize(module, gen) -> None:
    """Non-trivial weights: zero biases and unit norms would hide order bugs."""
    for param in module.parameters():
        param.data = gen.normal(size=param.shape)


def _kernel_module(kind: str, dim: int, seed: int):
    rng = SeededRNG(seed)
    gen = np.random.default_rng(seed)
    if kind == "layernorm":
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
    return QuantizedLinear(module) if kind == "int8" else module.eval()


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    shape=st.tuples(
        st.integers(1, 3), st.integers(1, 6), st.integers(1, 12)
    ),
    seed=st.integers(0, 2**16),
    transposed=st.booleans(),
)
def test_kernel_equals_autograd_forward(kind, shape, seed, transposed):
    module = _kernel_module(kind, shape[2], seed)
    gen = np.random.default_rng(seed + 1)
    if transposed:
        # Same values, non-contiguous strides.
        x = gen.normal(size=shape[::-1]).transpose(2, 1, 0)
    else:
        x = gen.normal(size=shape)
    expected = module(Tensor(x)).data
    out = module.infer(x)
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
    @staticmethod
    def _tensors_built(monkeypatch, model) -> int:
        built = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        model.eval()
        caches = model.init_cache()
        ids = np.arange(1, 9)[None, :]
        blocked = np.triu(np.ones((8, 8), dtype=bool), k=1)[None, None]
        monkeypatch.setattr(Tensor, "__init__", counting)
        try:
            hidden = model.encode_chunk(ids, np.arange(8)[None, :], caches, blocked=blocked)
        finally:
            monkeypatch.undo()
        assert isinstance(hidden, Tensor) and hidden.shape == (1, 8, model.config.dim)
        return len(built)

    def test_tensor_count_independent_of_depth(self, monkeypatch):
        counts = [
            self._tensors_built(
                monkeypatch,
                GPTModel(ModelConfig(vocab_size=20, num_layers=layers), seed=0),
            )
            for layers in (2, 12)
        ]
        # The two embedding lookups, their sum, and the returned hidden
        # state; the blocks themselves build none.
        assert counts[0] == counts[1] <= 4


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
