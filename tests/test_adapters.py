"""Tests for LoRA-style parameter-efficient fine-tuning."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import TrainingError
from repro.models import BERTModel, GPTModel, ModelConfig, SequenceClassifier
from repro.nn import FeedForward, Linear
from repro.training import (
    LabeledExample,
    evaluate_classifier,
    finetune_classifier,
    inject_adapters,
    merge_adapters,
    trainable_parameter_count,
)
from repro.training.adapters import LoRALinear
from repro.utils.rng import SeededRNG


@pytest.fixture
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=30), seed=0)


class TestLoRALinear:
    def test_identity_at_init(self):
        rng = SeededRNG(0)
        base = Linear(6, 4, rng.spawn("base"))
        adapter = LoRALinear(base, rank=2, rng=rng.spawn("lora"))
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)))
        base_out = (x @ base.weight + base.bias).data
        np.testing.assert_allclose(adapter(x).data, base_out, atol=1e-12)

    def test_base_is_frozen(self):
        rng = SeededRNG(0)
        base = Linear(6, 4, rng.spawn("base"))
        adapter = LoRALinear(base, rank=2, rng=rng.spawn("lora"))
        x = Tensor(np.ones((2, 6)))
        adapter(x).sum().backward()
        assert base.weight.grad is None
        assert adapter.lora_a.grad is not None

    def test_invalid_rank(self):
        rng = SeededRNG(0)
        with pytest.raises(TrainingError):
            LoRALinear(Linear(4, 4, rng), rank=0, rng=rng)


class TestInjection:
    def test_adapters_replace_targets(self, model):
        adapters = inject_adapters(model, rank=2, seed=0)
        # One adapter per layer, on the fused Q/K/V projection.
        assert len(adapters) == model.config.num_layers
        first_block = model.stack.blocks[0]
        assert isinstance(first_block.attn.qkv, LoRALinear)
        assert isinstance(first_block.attn.out, Linear)

    def test_trainable_count_drops_dramatically(self, model):
        total = model.num_parameters()
        inject_adapters(model, rank=2, seed=0)
        trainable = trainable_parameter_count(model)
        assert 0 < trainable < total * 0.15
        # A (D, r) and (r, 3D) pair per block: as many as separate
        # rank-r adapters on two (D, D) projections.
        dim = model.config.dim
        assert trainable == model.config.num_layers * 2 * (dim * 2 + 2 * dim)

    def test_forward_unchanged_at_init(self, model):
        ids = np.array([[1, 2, 3, 4]])
        before = model(ids).data.copy()
        inject_adapters(model, rank=2, seed=0)
        after = model(ids).data
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_no_targets_raises(self):
        with pytest.raises(TrainingError):
            inject_adapters(FeedForward(8, 16, SeededRNG(0)), rank=2)


class TestMerge:
    def test_merge_preserves_function(self, model):
        ids = np.array([[1, 2, 3, 4]])
        adapters = inject_adapters(model, rank=2, seed=0)
        # Perturb the adapters so the merge is non-trivial.
        for adapter in adapters:
            adapter.lora_b.data += 0.05
        adapted = model(ids).data.copy()
        merged = merge_adapters(model)
        assert merged == len(adapters)
        np.testing.assert_allclose(model(ids).data, adapted, atol=1e-10)
        assert isinstance(model.stack.blocks[0].attn.qkv, Linear)


class TestAdapterFinetuning:
    def test_adapter_finetuning_learns(self):
        backbone = BERTModel(ModelConfig.tiny(vocab_size=64, causal=False), seed=0)
        from repro.tokenizers import WhitespaceTokenizer

        texts_pos = ["the fast query returns rows", "a fast scan returns rows"]
        texts_neg = ["the slow scan drops columns", "a slow filter drops columns"]
        tokenizer = WhitespaceTokenizer(lowercase=True)
        tokenizer.train(texts_pos + texts_neg, vocab_size=64)

        classifier = SequenceClassifier(backbone, num_classes=2, seed=0)
        inject_adapters(backbone, rank=2, seed=0)
        # The classifier head itself stays trainable.
        examples = [
            LabeledExample(text=t, label=1) for t in texts_pos * 4
        ] + [LabeledExample(text=t, label=0) for t in texts_neg * 4]
        frozen_snapshot = backbone.stack.blocks[0].ff.up.weight.data.copy()
        report = finetune_classifier(
            classifier, tokenizer, examples, epochs=10, lr=5e-3, seed=0
        )
        # Frozen weights did not move; the model still learned.
        np.testing.assert_array_equal(
            backbone.stack.blocks[0].ff.up.weight.data, frozen_snapshot
        )
        assert report.train_accuracy >= 0.9
