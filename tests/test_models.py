"""Tests for model configs, GPT/BERT models, heads, registry, checkpoints."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import (
    BERTModel,
    GPTModel,
    HISTORICAL_MODELS,
    ModelConfig,
    RecurrentLM,
    SequenceClassifier,
    load_model,
    named_config,
    registry_names,
    save_model,
)
from repro.models.config import config_param_count


class TestConfig:
    def test_invalid_heads(self):
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=10, dim=10, num_heads=3)

    def test_invalid_sizes(self):
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=0)

    def test_param_count_matches_built_gpt(self):
        config = ModelConfig.tiny(vocab_size=50)
        model = GPTModel(config)
        assert model.num_parameters() == config_param_count(config)

    def test_param_count_matches_built_bert(self):
        config = ModelConfig.tiny(vocab_size=50, causal=False)
        model = BERTModel(config)
        assert model.num_parameters() == config_param_count(config)


class TestGPT:
    def test_requires_causal_config(self):
        with pytest.raises(ModelError):
            GPTModel(ModelConfig.tiny(vocab_size=10, causal=False))

    def test_logits_shape(self):
        model = GPTModel(ModelConfig.tiny(vocab_size=40))
        out = model(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 40)

    def test_sequence_too_long_raises(self):
        config = ModelConfig.tiny(vocab_size=10)
        model = GPTModel(config)
        with pytest.raises(ModelError):
            model(np.zeros((1, config.max_seq_len + 1), dtype=np.int64))

    def test_1d_input_raises(self):
        model = GPTModel(ModelConfig.tiny(vocab_size=10))
        with pytest.raises(ModelError):
            model(np.array([1, 2, 3]))

    def test_causality_of_logits(self):
        """Changing a future token must not change logits at earlier
        positions."""
        model = GPTModel(ModelConfig.tiny(vocab_size=20), seed=1)
        a = np.array([[1, 2, 3, 4, 5]])
        b = np.array([[1, 2, 3, 9, 9]])
        la = model(a).data
        lb = model(b).data
        np.testing.assert_allclose(la[0, :3], lb[0, :3], atol=1e-10)

    def test_deterministic_init(self):
        m1 = GPTModel(ModelConfig.tiny(vocab_size=20), seed=5)
        m2 = GPTModel(ModelConfig.tiny(vocab_size=20), seed=5)
        np.testing.assert_array_equal(m1.token_emb.weight.data, m2.token_emb.weight.data)


class TestBERT:
    def test_requires_noncausal_config(self):
        with pytest.raises(ModelError):
            BERTModel(ModelConfig.tiny(vocab_size=10, causal=True))

    def test_bidirectional_context(self):
        """Changing a later token SHOULD change earlier hidden states."""
        model = BERTModel(ModelConfig.tiny(vocab_size=20, causal=False), seed=1)
        a = np.array([[1, 2, 3, 4]])
        b = np.array([[1, 2, 3, 9]])
        ha = model.encode(a).data
        hb = model.encode(b).data
        assert not np.allclose(ha[0, 0], hb[0, 0])

    def test_pooled_ignores_padding(self):
        model = BERTModel(ModelConfig.tiny(vocab_size=20, causal=False), seed=2)
        ids = np.array([[1, 2, 3, 0, 0]])
        mask = np.array([[1, 1, 1, 0, 0]])
        pooled_masked = model.pooled(ids, mask).data
        # Pooling over only the real prefix should equal masked pooling.
        pooled_prefix = model.encode(ids, mask).data[0, :3].mean(axis=0)
        np.testing.assert_allclose(pooled_masked[0], pooled_prefix, atol=1e-10)

    def test_embed_texts_returns_numpy(self):
        model = BERTModel(ModelConfig.tiny(vocab_size=20, causal=False))
        out = model.embed_texts(np.array([[1, 2, 3]]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (1, model.config.dim)


class TestRecurrent:
    def test_logits_shape(self):
        model = RecurrentLM(ModelConfig.tiny(vocab_size=30))
        out = model(np.array([[1, 2, 3, 4]]))
        assert out.shape == (1, 4, 30)

    def test_gradients_flow(self):
        from repro.autograd import cross_entropy

        model = RecurrentLM(ModelConfig.tiny(vocab_size=30))
        logits = model(np.array([[1, 2, 3, 4]]))
        loss = cross_entropy(logits.reshape(-1, 30), np.array([2, 3, 4, 5]))
        loss.backward()
        assert model.recurrent.weight.grad is not None


class TestClassifierHead:
    def test_bert_backbone_predict_shape(self):
        backbone = BERTModel(ModelConfig.tiny(vocab_size=30, causal=False))
        clf = SequenceClassifier(backbone, num_classes=3)
        preds = clf.predict(np.array([[1, 2, 3], [4, 5, 6]]))
        assert preds.shape == (2,)
        assert set(preds) <= {0, 1, 2}

    def test_gpt_backbone_uses_last_real_position(self):
        backbone = GPTModel(ModelConfig.tiny(vocab_size=30))
        clf = SequenceClassifier(backbone, num_classes=2)
        ids = np.array([[1, 2, 3, 0]])
        mask = np.array([[1, 1, 1, 0]])
        logits_masked = clf(ids, mask).data
        # Same prefix without padding should produce identical logits.
        logits_prefix = clf(ids[:, :3], mask[:, :3]).data
        np.testing.assert_allclose(logits_masked, logits_prefix, atol=1e-9)


class TestRegistry:
    def test_all_models_within_tolerance(self):
        for model in HISTORICAL_MODELS:
            assert model.relative_error() <= model.tolerance, (
                f"{model.name}: estimated {model.estimated_params():,} vs "
                f"published {model.published_params:,}"
            )

    def test_timeline_spans_four_orders_of_magnitude(self):
        counts = [m.estimated_params() for m in HISTORICAL_MODELS]
        assert max(counts) / min(counts) > 1e3

    def test_years_sorted(self):
        years = [m.year for m in HISTORICAL_MODELS]
        assert years == sorted(years)

    def test_named_lookup(self):
        assert named_config("GPT-3").published_params == 175_000_000_000
        with pytest.raises(ModelError):
            named_config("GPT-9")

    def test_registry_names_order(self):
        names = registry_names()
        assert names[0] == "ELMo"
        assert "PaLM" in names

    def test_scaled_config_is_runnable(self):
        config = named_config("GPT-3").to_config()
        model = GPTModel(config)
        out = model(np.array([[1, 2, 3]]))
        assert out.shape[-1] == config.vocab_size


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        model = GPTModel(ModelConfig.tiny(vocab_size=25), seed=9)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert isinstance(restored, GPTModel)
        ids = np.array([[1, 2, 3]])
        np.testing.assert_allclose(model(ids).data, restored(ids).data)

    def test_bert_roundtrip(self, tmp_path):
        model = BERTModel(ModelConfig.tiny(vocab_size=25, causal=False), seed=9)
        path = save_model(model, tmp_path / "bert")
        restored = load_model(path)
        assert isinstance(restored, BERTModel)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "nope.npz")

    def test_non_checkpoint_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ModelError):
            load_model(path)


class TestCheckpointIntegrity:
    """Every corruption mode surfaces as a typed error, never a raw
    numpy/JSON/zipfile exception, and saves are atomic under crashes."""

    @pytest.fixture()
    def saved(self, tmp_path):
        model = GPTModel(ModelConfig.tiny(vocab_size=25), seed=9)
        path = save_model(model, tmp_path / "model.npz")
        return model, path

    def test_truncated_file_raises_typed_error(self, saved):
        from repro.errors import CorruptCheckpointError

        _, path = saved
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_garbage_file_raises_typed_error(self, saved):
        from repro.errors import CorruptCheckpointError

        _, path = saved
        path.write_bytes(b"\x00\x01garbage" * 40)
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_flipped_payload_byte_raises_typed_error(self, saved):
        from repro.errors import CorruptCheckpointError

        _, path = saved
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_sha_mismatch_raises_typed_error(self, tmp_path):
        import dataclasses
        import json

        from repro.errors import CorruptCheckpointError

        model = GPTModel(ModelConfig.tiny(vocab_size=25), seed=9)
        meta = {
            "model_class": "GPTModel",
            "config": dataclasses.asdict(model.config),
            "format": 1,
            "sha256": "0" * 64,
        }
        arrays = {f"param::{k}": v for k, v in model.state_dict().items()}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        path = tmp_path / "tampered.npz"
        np.savez(path, **arrays)
        with pytest.raises(CorruptCheckpointError, match="SHA-256"):
            load_model(path)

    def test_garbled_metadata_raises_typed_error(self, tmp_path):
        from repro.errors import CorruptCheckpointError

        path = tmp_path / "bad_meta.npz"
        np.savez(
            path,
            __meta__=np.frombuffer(b"{not json", dtype=np.uint8),
        )
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    def test_wrong_schema_metadata_raises_typed_error(self, tmp_path):
        import json

        from repro.errors import CorruptCheckpointError

        path = tmp_path / "wrong_schema.npz"
        np.savez(
            path,
            __meta__=np.frombuffer(
                json.dumps({"hello": "world"}).encode("utf-8"), dtype=np.uint8
            ),
        )
        with pytest.raises(CorruptCheckpointError):
            load_model(path)

    @pytest.mark.parametrize(
        "point",
        [
            "checkpoint-before-write",
            "checkpoint-torn-write",
            "checkpoint-before-fsync",
            "mid-checkpoint-rename",
        ],
    )
    def test_interrupted_save_keeps_previous_checkpoint(self, saved, point):
        from repro.durability import CrashInjector
        from repro.errors import SimulatedCrash

        old_model, path = saved
        new_model = GPTModel(ModelConfig.tiny(vocab_size=25), seed=77)
        with pytest.raises(SimulatedCrash):
            save_model(new_model, path, crash=CrashInjector().at(point))
        restored = load_model(path)  # the old checkpoint is intact
        ids = np.array([[1, 2, 3]])
        np.testing.assert_allclose(old_model(ids).data, restored(ids).data)

    def test_interrupted_save_on_fresh_path_leaves_nothing(self, tmp_path):
        from repro.durability import CrashInjector
        from repro.errors import SimulatedCrash

        model = GPTModel(ModelConfig.tiny(vocab_size=25), seed=9)
        path = tmp_path / "fresh.npz"
        with pytest.raises(SimulatedCrash):
            save_model(
                model, path, crash=CrashInjector().at("checkpoint-torn-write")
            )
        with pytest.raises(ModelError):
            load_model(path)
