"""Tests for repro.serving: the batched engine, the microbatching
scheduler, ``complete_batch`` on the API/reliability clients, and the
batched application-subsystem paths."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import CompletionClient, ModelHub
from repro.codexdb import CodeGenOptions
from repro.codexdb.codex import CodexDB, SimulatedCodex
from repro.errors import GenerationError, TransientError
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.reliability import (
    FaultInjector,
    FaultProfile,
    FaultyCompletionClient,
    ResilientClient,
    RetryPolicy,
    VirtualClock,
)
from repro.serving import (
    BatchedGenerator,
    BatchRequest,
    BatchScheduler,
    PrefixCache,
)
from repro.sql import Database
from repro.text2sql import (
    ClientTranslator,
    evaluate_translator,
    generate_workload,
    register_translator,
)
from repro.text2sql.translator import train_translator
from repro.wrangle import ClientImputer, generate_imputation_dataset
from repro.wrangle.imputation import evaluate_imputer


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=48), seed=7)


@pytest.fixture(scope="module")
def ragged_prompts():
    rng = np.random.default_rng(0)
    return [list(map(int, rng.integers(1, 48, size=n))) for n in (3, 9, 1, 12, 6, 4)]


class OddOnly:
    """Constraint fixture: only odd token ids may be generated."""

    def __init__(self, vocab):
        self.vocab = vocab

    def allowed_tokens(self, generated_ids):
        return list(range(1, self.vocab, 2))


class TestBatchedGenerator:
    def test_ragged_greedy_matches_sequential(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        results = BatchedGenerator(model).generate(
            [BatchRequest(p, config) for p in ragged_prompts]
        )
        expected = [generate(model, p, config) for p in ragged_prompts]
        assert [r.sequences[0] for r in results] == expected
        assert all(r.batched for r in results)

    def test_sampling_matches_sequential_seeds(self, model, ragged_prompts):
        config = GenerationConfig(
            max_new_tokens=8, strategy="sample", temperature=0.8, top_k=6, seed=13
        )
        results = BatchedGenerator(model).generate(
            [BatchRequest(p, config) for p in ragged_prompts]
        )
        expected = [generate(model, p, config) for p in ragged_prompts]
        assert [r.sequences[0] for r in results] == expected

    def test_per_sequence_stops(self, model, ragged_prompts):
        base = generate(model, ragged_prompts[0], GenerationConfig(max_new_tokens=10))
        config = GenerationConfig(max_new_tokens=10, stop_ids=(base[2],))
        results = BatchedGenerator(model).generate(
            [BatchRequest(p, config) for p in ragged_prompts]
        )
        expected = [generate(model, p, config) for p in ragged_prompts]
        assert [r.sequences[0] for r in results] == expected

    def test_n_choices_share_prefill_and_match_seed_offsets(self, model):
        prompt = [5, 9, 2, 14]
        config = GenerationConfig(
            max_new_tokens=6, strategy="sample", temperature=0.9, seed=3
        )
        generator = BatchedGenerator(model)
        (result,) = generator.generate([BatchRequest(prompt, config, n=3)])
        expected = [
            generate(model, prompt, dataclasses.replace(config, seed=config.seed + j))
            for j in range(3)
        ]
        assert result.sequences == expected
        # One prefill chunk covered all three choices.
        assert generator.stats.prefill_chunks == 1
        assert generator.stats.prefill_tokens == len(prompt)

    def test_constraint_applies_per_sequence(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=6)
        constraint = OddOnly(model.config.vocab_size)
        results = BatchedGenerator(model).generate(
            [BatchRequest(p, config, constraint=constraint) for p in ragged_prompts]
        )
        expected = [
            generate(model, p, config, OddOnly(model.config.vocab_size))
            for p in ragged_prompts
        ]
        assert [r.sequences[0] for r in results] == expected
        assert all(t % 2 == 1 for r in results for t in r.sequences[0])

    def test_mixed_strategies_in_one_batch(self, model, ragged_prompts):
        greedy = GenerationConfig(max_new_tokens=7)
        sampled = GenerationConfig(
            max_new_tokens=7, strategy="sample", temperature=0.7, seed=21
        )
        requests = [
            BatchRequest(ragged_prompts[0], greedy),
            BatchRequest(ragged_prompts[1], sampled),
            BatchRequest(ragged_prompts[2], greedy),
        ]
        results = BatchedGenerator(model).generate(requests)
        assert results[0].sequences[0] == generate(model, ragged_prompts[0], greedy)
        assert results[1].sequences[0] == generate(model, ragged_prompts[1], sampled)
        assert results[2].sequences[0] == generate(model, ragged_prompts[2], greedy)

    def test_oversized_request_falls_back_sequentially(self, model):
        config = GenerationConfig(max_new_tokens=model.config.max_seq_len)
        generator = BatchedGenerator(model)
        (result,) = generator.generate([BatchRequest([1, 2, 3], config)])
        assert not result.batched
        assert generator.stats.sequential_fallbacks == 1
        assert result.sequences[0] == generate(model, [1, 2, 3], config)

    def test_empty_prompt_rejected(self):
        with pytest.raises(GenerationError):
            BatchRequest([], GenerationConfig())


class TestBatchScheduler:
    def test_results_keyed_by_ticket(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=9)
        scheduler = BatchScheduler(model, max_batch_size=4)
        tickets = [
            scheduler.submit(BatchRequest(p, config)) for p in ragged_prompts
        ]
        results = scheduler.run()
        expected = [generate(model, p, config) for p in ragged_prompts]
        assert [results[t].sequences[0] for t in tickets] == expected

    def test_microbatch_packing_stats(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=4)
        scheduler = BatchScheduler(model, max_batch_size=4)
        for p in ragged_prompts:
            scheduler.submit(BatchRequest(p, config))
        scheduler.run()
        assert scheduler.stats.submitted == 6
        assert scheduler.stats.completed == 6
        assert scheduler.stats.microbatches == 2
        assert scheduler.stats.peak_batch == 4

    def test_wide_request_occupies_n_slots(self, model):
        config = GenerationConfig(
            max_new_tokens=4, strategy="sample", temperature=0.9
        )
        scheduler = BatchScheduler(model, max_batch_size=4)
        scheduler.submit(BatchRequest([1, 2], config, n=3))
        scheduler.submit(BatchRequest([3, 4], config, n=3))
        scheduler.run()
        # 3 + 3 does not fit in one microbatch of 4 sequences.
        assert scheduler.stats.microbatches == 2
        assert scheduler.stats.peak_batch == 3

    def test_oversized_single_request_still_runs(self, model):
        config = GenerationConfig(
            max_new_tokens=4, strategy="sample", temperature=0.9
        )
        scheduler = BatchScheduler(model, max_batch_size=2)
        ticket = scheduler.submit(BatchRequest([1, 2], config, n=5))
        results = scheduler.run()
        assert len(results[ticket].sequences) == 5

    def test_bad_batch_size_rejected(self, model):
        with pytest.raises(GenerationError):
            BatchScheduler(model, max_batch_size=0)


# Module-scope aliases of session fixtures (pytest cannot inject session
# fixtures directly into module-scope fixtures defined before them).
@pytest.fixture(scope="module")
def hub(tiny_gpt_module, word_tokenizer_module):
    hub = ModelHub()
    hub.register("tiny-gpt", tiny_gpt_module, word_tokenizer_module)
    return hub


@pytest.fixture(scope="module")
def tiny_gpt_module(tiny_gpt):
    return tiny_gpt


@pytest.fixture(scope="module")
def word_tokenizer_module(word_tokenizer):
    return word_tokenizer


PROMPTS = ["the cat sat", "a dog", "the bird flew over", "cats and dogs"]


def _assert_billing_parity(batched_client, per_prompt_client) -> None:
    """``EngineStats`` of one ``complete_batch`` over ``PROMPTS`` against
    one ``complete`` call per prompt: every field equal. Only the
    engine's persistent prefix cache differs: the per-prompt calls reuse
    earlier prompts' K/V (one cold batch cannot)."""
    batched = batched_client.prefix_cache("tiny-gpt").stats
    single = per_prompt_client.prefix_cache("tiny-gpt").stats
    assert (batched.hits, batched.reused_tokens) == (0, 0)
    assert (single.hits, single.reused_tokens) == (3, 8)
    assert batched_client.engine_stats("tiny-gpt") == per_prompt_client.engine_stats(
        "tiny-gpt"
    )


class TestCompleteBatch:
    def test_greedy_matches_per_prompt_complete(self, hub):
        client = CompletionClient(hub)
        batch = client.complete_batch("tiny-gpt", PROMPTS, max_tokens=8)
        single = [
            CompletionClient(hub).complete("tiny-gpt", p, max_tokens=8)
            for p in PROMPTS
        ]
        assert [r.text for r in batch] == [r.text for r in single]
        assert [r.usage.completion_tokens for r in batch] == [
            r.usage.completion_tokens for r in single
        ]
        assert [c.finish_reason for r in batch for c in r.choices] == [
            c.finish_reason for r in single for c in r.choices
        ]

    def test_stats_attribution_matches_per_prompt(self, hub):
        client = CompletionClient(hub)
        client.complete_batch("tiny-gpt", PROMPTS, max_tokens=6)
        reference = CompletionClient(hub)
        for p in PROMPTS:
            reference.complete("tiny-gpt", p, max_tokens=6)
        _assert_billing_parity(client, reference)

    def test_n_choices_match_per_prompt_semantics(self, hub):
        client = CompletionClient(hub)
        (batched,) = client.complete_batch(
            "tiny-gpt", [PROMPTS[0]], max_tokens=6, temperature=0.8, n=3, seed=9
        )
        single = CompletionClient(hub).complete(
            "tiny-gpt", PROMPTS[0], max_tokens=6, temperature=0.8, n=3, seed=9
        )
        assert [c.text for c in batched.choices] == [c.text for c in single.choices]

    def test_stop_strings_truncate_and_bill_identically(self, hub):
        client = CompletionClient(hub)
        batch = client.complete_batch(
            "tiny-gpt", PROMPTS, max_tokens=8, stop=["the"]
        )
        single = [
            CompletionClient(hub).complete("tiny-gpt", p, max_tokens=8, stop=["the"])
            for p in PROMPTS
        ]
        assert [r.text for r in batch] == [r.text for r in single]
        assert [r.usage.completion_tokens for r in batch] == [
            r.usage.completion_tokens for r in single
        ]

    def test_stop_billing_engine_stats_parity(self, hub):
        """Satellite audit: EngineStats (not just per-response usage)
        must bill identically when stop strings truncate mid-completion
        — the batch path may generate tokens past the stop string, but
        it must never *bill* them."""
        client = CompletionClient(hub)
        client.complete_batch("tiny-gpt", PROMPTS, max_tokens=8, stop=["the"])
        reference = CompletionClient(hub)
        for p in PROMPTS:
            reference.complete("tiny-gpt", p, max_tokens=8, stop=["the"])
        _assert_billing_parity(client, reference)

    def test_stop_billing_parity_with_stop_ids_and_length_cap(self, hub):
        """Mixed finish reasons (stop vs length) keep EngineStats parity
        between the batch and sequential paths."""
        client = CompletionClient(hub)
        client.complete_batch("tiny-gpt", PROMPTS, max_tokens=2, stop=["."])
        reference = CompletionClient(hub)
        for p in PROMPTS:
            reference.complete("tiny-gpt", p, max_tokens=2, stop=["."])
        _assert_billing_parity(client, reference)

    def test_empty_prompt_list(self, hub):
        assert CompletionClient(hub).complete_batch("tiny-gpt", []) == []

    def test_misaligned_constraints_rejected(self, hub):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            CompletionClient(hub).complete_batch(
                "tiny-gpt", PROMPTS, constraints=[None]
            )


class TestResilientBatch:
    def test_healthy_channel_serves_one_batched_call(self, hub):
        inner = CompletionClient(hub)
        resilient = ResilientClient(inner, clock=VirtualClock())
        responses = resilient.complete_batch("tiny-gpt", PROMPTS, max_tokens=6)
        reference = CompletionClient(hub).complete_batch(
            "tiny-gpt", PROMPTS, max_tokens=6
        )
        assert [r.text for r in responses] == [r.text for r in reference]
        metrics = resilient.metrics
        assert metrics.requests == len(PROMPTS)
        assert metrics.successes == len(PROMPTS)

    def test_terminal_batch_failure_degrades_per_prompt(self, hub):
        class AlwaysDownBatch:
            """Batch path fails terminally; per-prompt path works."""

            def __init__(self, inner):
                self.inner = inner

            def complete(self, engine, prompt, **kwargs):
                return self.inner.complete(engine, prompt, **kwargs)

            def complete_batch(self, engine, prompts, **kwargs):
                raise TransientError("batch endpoint down")

        resilient = ResilientClient(
            AlwaysDownBatch(CompletionClient(hub)),
            policy=RetryPolicy(max_retries=1, base_delay=0.01),
            clock=VirtualClock(),
            baseline=lambda prompt: "baseline",
        )
        responses = resilient.complete_batch("tiny-gpt", PROMPTS, max_tokens=6)
        assert len(responses) == len(PROMPTS)
        # Every prompt still answered (by the per-prompt chain).
        assert all(r.choices for r in responses)


class TestFaultyBatch:
    def test_one_fault_decision_per_batch(self, hub):
        injector = FaultInjector(FaultProfile(), seed=0)
        faulty = FaultyCompletionClient(CompletionClient(hub), injector)
        faulty.complete_batch("tiny-gpt", PROMPTS, max_tokens=6)
        assert injector.requests == 1

    def test_garbled_choices_are_marked(self, hub):
        injector = FaultInjector(FaultProfile(garble_rate=0.999), seed=1)
        faulty = FaultyCompletionClient(CompletionClient(hub), injector)
        responses = faulty.complete_batch("tiny-gpt", PROMPTS, max_tokens=8)
        assert any(
            c.finish_reason == "garbled" for r in responses for c in r.choices
        )


class TestSpeculativeCodexDB:
    @pytest.fixture()
    def db(self):
        database = Database()
        database.execute("CREATE TABLE users (id INT, name TEXT, age INT)")
        database.execute(
            "INSERT INTO users VALUES (1, 'ann', 34), (2, 'bo', 19), (3, 'cy', 51)"
        )
        return database

    def test_speculative_wave_succeeds(self, db):
        codex = SimulatedCodex(error_rate=0.0, seed=0)
        system = CodexDB(db, codex, CodeGenOptions(), speculative=3)
        result = system.run("select name from users where age > 20")
        assert result.succeeded
        assert result.attempts == 1

    def test_feedback_discards_speculative_queue(self, db):
        # Every raw candidate is unsafe, so the first executes and is
        # statically rejected; the repair path must then regenerate from
        # feedback rather than consume a stale speculative candidate.
        codex = SimulatedCodex(error_rate=0.0, seed=0, unsafe_rate=0.999)
        system = CodexDB(db, codex, CodeGenOptions(), speculative=3)
        result = system.run("select name from users where age > 20")
        assert result.succeeded
        assert result.static_rejections == 1
        assert result.attempts == 2

    def test_speculative_must_be_positive(self, db):
        with pytest.raises(Exception):
            CodexDB(db, SimulatedCodex(), CodeGenOptions(), speculative=0)

    def test_batched_sampling_matches_sequential_draws(self):
        a = SimulatedCodex(error_rate=0.4, seed=5)
        b = SimulatedCodex(error_rate=0.4, seed=5)
        sql = "select name from users where age > 20"
        options = CodeGenOptions()
        wave = a.sample_programs(sql, options, 4)
        singles = [b.sample_program(sql, options) for _ in range(4)]
        assert wave == singles


@pytest.fixture(scope="module")
def text2sql_setup():
    workload = generate_workload(seed=0, examples_per_template=3)
    examples = workload.examples[:8]
    translator = train_translator(workload, workload.examples, steps=40, seed=0)
    hub = ModelHub()
    engine = register_translator(hub, "t2s", translator)
    return workload, examples, hub, engine


class TestTranslateBatch:
    def test_matches_per_question_translate(self, text2sql_setup):
        workload, examples, hub, engine = text2sql_setup
        questions = [e.question for e in examples]
        batched = ClientTranslator(
            client=CompletionClient(hub), engine=engine, workload=workload
        )
        sequential = ClientTranslator(
            client=CompletionClient(hub), engine=engine, workload=workload
        )
        assert batched.translate_batch(questions) == [
            sequential.translate(q) for q in questions
        ]

    def test_evaluate_translator_accepts_batch_path(self, text2sql_setup):
        workload, examples, hub, engine = text2sql_setup
        translator = ClientTranslator(
            client=CompletionClient(hub), engine=engine, workload=workload
        )
        batched_report = evaluate_translator(
            translator.translate,
            workload,
            examples,
            translate_batch=translator.translate_batch,
        )
        sequential_report = evaluate_translator(
            ClientTranslator(
                client=CompletionClient(hub), engine=engine, workload=workload
            ).translate,
            workload,
            examples,
        )
        assert batched_report.correct == sequential_report.correct
        assert batched_report.total == sequential_report.total

    def test_terminal_batch_failure_uses_fallback(self, text2sql_setup):
        workload, examples, hub, engine = text2sql_setup

        class Down:
            def complete(self, engine, prompt, **kwargs):
                raise TransientError("down")

            def complete_batch(self, engine, prompts, **kwargs):
                raise TransientError("down")

        translator = ClientTranslator(
            client=Down(),
            engine=engine,
            workload=workload,
            fallback=lambda q: "select 1",
        )
        questions = [e.question for e in examples[:3]]
        assert translator.translate_batch(questions) == ["select 1"] * 3
        assert translator.degraded == 3


class TestPredictBatch:
    @pytest.fixture(scope="class")
    def imputation_setup(self, hub):
        examples = generate_imputation_dataset(num_examples=40, seed=0)
        train, test = examples[:30], examples[30:]
        imputer = ClientImputer(CompletionClient(hub), "tiny-gpt").fit(train)
        return imputer, train, test

    def test_matches_per_example_predict(self, hub, imputation_setup):
        imputer, train, test = imputation_setup
        reference = ClientImputer(CompletionClient(hub), "tiny-gpt").fit(train)
        assert imputer.predict_batch(test[:6]) == [
            reference.predict(e) for e in test[:6]
        ]

    def test_evaluate_imputer_uses_batch_path(self, hub, imputation_setup):
        imputer, train, test = imputation_setup
        reference = ClientImputer(CompletionClient(hub), "tiny-gpt").fit(train)
        batched_accuracy = evaluate_imputer(imputer, test[:6])
        sequential = [reference.predict(e) for e in test[:6]]
        sequential_accuracy = sum(
            p == e.target_value for p, e in zip(sequential, test[:6])
        ) / 6
        assert batched_accuracy == sequential_accuracy

    def test_terminal_batch_failure_degrades(self, imputation_setup):
        imputer, train, test = imputation_setup

        class Down:
            def complete(self, engine, prompt, **kwargs):
                raise TransientError("down")

            def complete_batch(self, engine, prompts, **kwargs):
                raise TransientError("down")

        degraded = ClientImputer(Down(), "tiny-gpt").fit(train)
        predictions = degraded.predict_batch(test[:4])
        assert len(predictions) == 4
        assert degraded.degraded == 4


class TestPerPromptLoopLint:
    def lint(self, code, path):
        from repro.analysis.lint import lint_source

        return [
            f for f in lint_source(code, path=path) if f.rule == "per-prompt-loop"
        ]

    def test_flags_complete_in_loop(self):
        code = (
            "def serve(client, prompts):\n"
            "    out = []\n"
            "    for p in prompts:\n"
            "        out.append(client.complete('e', p))\n"
            "    return out\n"
        )
        findings = self.lint(code, "src/repro/text2sql/translator.py")
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_flags_comprehension(self):
        code = (
            "def serve(client, prompts):\n"
            "    return [client.complete('e', p) for p in prompts]\n"
        )
        assert self.lint(code, "src/repro/wrangle/imputation.py")

    def test_only_application_dirs_covered(self):
        code = (
            "def serve(client, prompts):\n"
            "    return [client.complete('e', p) for p in prompts]\n"
        )
        assert not self.lint(code, "src/repro/serving/dispatch.py")
        assert not self.lint(code, "src/repro/reliability/client.py")

    def test_noqa_suppresses(self):
        code = (
            "def serve(client, prompts):\n"
            "    return [client.complete('e', p)  # repro: noqa[per-prompt-loop]\n"
            "            for p in prompts]\n"
        )
        assert not self.lint(code, "src/repro/codexdb/codex.py")

    def test_single_call_outside_loop_is_fine(self):
        code = (
            "def serve(client, prompt):\n"
            "    return client.complete('e', prompt)\n"
        )
        assert not self.lint(code, "src/repro/text2sql/translator.py")

    def test_flags_reader_read_in_loop_in_neuraldb(self):
        code = (
            "def scan(reader, facts, question):\n"
            "    return [reader.read(f, question) for f in facts]\n"
        )
        findings = self.lint(code, "src/repro/neuraldb/store.py")
        assert len(findings) == 1
        assert "read_batch" in findings[0].message

    def test_read_outside_neuraldb_not_covered(self):
        code = (
            "def slurp(handles):\n"
            "    return [h.read() for h in handles]\n"
        )
        assert not self.lint(code, "src/repro/serving/dispatch.py")

    def test_shipped_subsystems_are_clean(self):
        from pathlib import Path

        from repro.analysis.lint import lint_paths

        findings = [
            f
            for f in lint_paths(
                [
                    Path("src/repro/codexdb"),
                    Path("src/repro/text2sql"),
                    Path("src/repro/wrangle"),
                    Path("src/repro/neuraldb"),
                ]
            )
            if f.rule == "per-prompt-loop"
        ]
        assert findings == []


def _toy_layers(tokens: int, fill: float = 1.0):
    """One-layer (k, v) span of shape (2 heads, tokens, 3 dims)."""
    k = np.full((2, tokens, 3), fill) * np.arange(1, tokens + 1)[None, :, None]
    return [(k, -k)]


class TestPrefixCacheTrie:
    def test_insert_then_lookup_roundtrip(self):
        cache = PrefixCache()
        cache.insert([5, 6, 7], _toy_layers(3))
        match, layers = cache.lookup([5, 6, 7, 8])
        assert match == 3
        keys, values = layers[0]
        assert keys.shape == (2, 3, 3)
        np.testing.assert_array_equal(keys, _toy_layers(3)[0][0])
        np.testing.assert_array_equal(values, -keys)

    def test_shared_header_stored_once(self):
        cache = PrefixCache()
        cache.insert([1, 2, 3], _toy_layers(3))
        added = cache.insert([1, 2, 9], _toy_layers(3))
        assert added == 1  # only the divergent tail allocates
        assert len(cache) == 4

    def test_max_len_caps_match(self):
        cache = PrefixCache()
        cache.insert([1, 2, 3], _toy_layers(3))
        match, layers = cache.lookup([1, 2, 3], max_len=2)
        assert match == 2
        assert layers[0][0].shape[1] == 2

    def test_peek_does_not_touch_stats(self):
        cache = PrefixCache()
        cache.insert([1, 2], _toy_layers(2))
        assert cache.peek_length([1, 2, 3]) == 2
        assert cache.stats.lookups == 0
        assert cache.peek_length([9]) == 0

    def test_miss_counts(self):
        cache = PrefixCache()
        match, layers = cache.lookup([4, 4])
        assert (match, layers) == (0, None)
        assert (cache.stats.lookups, cache.stats.hits) == (1, 0)
        assert cache.stats.hit_rate == 0.0

    def test_lru_eviction_respects_budget_and_keeps_paths_valid(self):
        node_bytes = sum(
            k.nbytes + v.nbytes
            for k, v in [(l[0][:, :1], l[1][:, :1]) for l in _toy_layers(1)]
        )
        cache = PrefixCache(max_bytes=4 * node_bytes)
        cache.insert([1, 2, 3], _toy_layers(3))
        cache.lookup([1, 2, 3])  # make the first chain recently used
        cache.insert([7, 8, 9], _toy_layers(3))  # 6 nodes > budget: evict
        assert cache.stats.evictions >= 2
        assert cache.stats.bytes <= 4 * node_bytes
        # Whatever survived must still be a valid trie prefix.
        match, layers = cache.lookup([1, 2, 3])
        assert match >= 1
        assert layers[0][0].shape[1] == match

    def test_clear(self):
        cache = PrefixCache()
        cache.insert([1, 2], _toy_layers(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes == 0
        assert cache.peek_length([1, 2]) == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(GenerationError):
            PrefixCache(max_bytes=0)

    def test_oversized_prompt_rejected_up_front(self):
        """Regression: a prompt whose K/V alone exceed the byte budget
        used to be inserted first and LRU-evicted after, transiently
        blowing the budget and evicting the *existing* entries. It must
        be rejected before any node is allocated."""
        node_bytes = sum(k.nbytes + v.nbytes for k, v in _toy_layers(1))
        cache = PrefixCache(max_bytes=2 * node_bytes)
        cache.insert([1, 2], _toy_layers(2))
        added = cache.insert(list(range(10, 20)), _toy_layers(10))
        assert added == 0
        assert cache.stats.oversized == 1
        assert cache.stats.evictions == 0
        assert cache.stats.bytes <= 2 * node_bytes
        # The cache is not left cold: the existing entry survives.
        match, _ = cache.lookup([1, 2])
        assert match == 2

    def test_prompt_exactly_at_budget_is_accepted(self):
        node_bytes = sum(k.nbytes + v.nbytes for k, v in _toy_layers(1))
        cache = PrefixCache(max_bytes=2 * node_bytes)
        added = cache.insert([4, 5], _toy_layers(2))
        assert added == 2
        assert cache.stats.oversized == 0


@pytest.fixture(scope="module")
def shared_header_prompts():
    """Few-shot-shaped token prompts: long shared header, short suffixes."""
    rng = np.random.default_rng(5)
    header = list(map(int, rng.integers(1, 48, size=14)))
    return [header + [int(40 + i), int(1 + i)] for i in range(6)]


class TestPrefixEquivalence:
    def test_greedy_identical_with_cache_on_and_off(
        self, model, shared_header_prompts
    ):
        config = GenerationConfig(max_new_tokens=8)
        requests = [BatchRequest(p, config) for p in shared_header_prompts]
        expected = [generate(model, p, config) for p in shared_header_prompts]
        plain = BatchedGenerator(model).generate(requests)
        cached = BatchedGenerator(model, prefix_cache=PrefixCache()).generate(
            requests
        )
        assert [r.sequences[0] for r in plain] == expected
        assert [r.sequences[0] for r in cached] == expected

    def test_warm_cache_still_identical_and_cheaper(
        self, model, shared_header_prompts
    ):
        config = GenerationConfig(max_new_tokens=6)
        requests = [BatchRequest(p, config) for p in shared_header_prompts]
        expected = [generate(model, p, config) for p in shared_header_prompts]
        cache = PrefixCache()
        BatchedGenerator(model, prefix_cache=cache).generate(requests)
        cold_hits = cache.stats.hits
        warm = BatchedGenerator(model, prefix_cache=cache)
        results = warm.generate(requests)
        assert [r.sequences[0] for r in results] == expected
        assert cache.stats.hits - cold_hits == len(requests)
        # Warm prefill touches only the final (uncached) prompt token.
        assert warm.stats.prefill_tokens == len(requests)

    def test_identical_across_lru_eviction_mid_workload(
        self, model, shared_header_prompts
    ):
        config = GenerationConfig(max_new_tokens=6)
        expected = [generate(model, p, config) for p in shared_header_prompts]
        # Budget fits one 16-token prompt (16 KiB of K/V) but not the
        # whole sweep, so inserts are accepted and then evict constantly
        # while the sweep runs. (A budget below a single prompt would be
        # rejected up front as oversized instead of churning.)
        budget = 20 * 1024
        cache = PrefixCache(max_bytes=budget)
        generator = BatchedGenerator(model, prefix_cache=cache)
        results = []
        for prompt in shared_header_prompts:
            (result,) = generator.generate([BatchRequest(prompt, config)])
            results.append(result.sequences[0])
        assert results == expected
        assert cache.stats.oversized == 0
        assert cache.stats.evictions > 0
        assert cache.stats.bytes <= budget

    def test_n_choices_identical_with_prefix_cache(self, model):
        prompt = [3, 9, 9, 2, 7, 7, 1]
        config = GenerationConfig(
            max_new_tokens=6, strategy="sample", temperature=0.9, seed=17
        )
        expected = [
            generate(model, prompt, dataclasses.replace(config, seed=17 + j))
            for j in range(3)
        ]
        cache = PrefixCache()
        request = BatchRequest(prompt, config, n=3)
        (cold,) = BatchedGenerator(model, prefix_cache=cache).generate([request])
        (warm,) = BatchedGenerator(model, prefix_cache=cache).generate([request])
        assert cold.sequences == expected
        assert warm.sequences == expected

    def test_seeded_shared_header_prefills_once(
        self, model, shared_header_prompts
    ):
        cache = PrefixCache()
        generator = BatchedGenerator(model, prefix_cache=cache)
        config = GenerationConfig(max_new_tokens=4)
        generator.generate(
            [BatchRequest(p, config) for p in shared_header_prompts]
        )
        header_len = 14
        suffixes = sum(
            len(p) - header_len for p in shared_header_prompts
        )
        # One header prefill + per-row suffixes, not 6 full prompts.
        assert generator.stats.prefill_tokens == header_len + suffixes

    def test_identical_across_splits_and_strict_prefixes(
        self, model, shared_header_prompts
    ):
        """One cached header run is split at several depths by prompts
        that diverge inside it, then looked up by prompts that stop
        inside it; every decode still matches the oracle."""
        first = shared_header_prompts[0]
        config = GenerationConfig(max_new_tokens=5)
        diverging = [first[:d] + [first[d] % 47 + 1, 2] for d in (12, 9, 5, 2)]
        prefixes = [first[:d] for d in (11, 6, 3)]
        prompts = [first] + diverging + prefixes + [first]
        generator = BatchedGenerator(model, prefix_cache=PrefixCache())
        for prompt in prompts:
            (result,) = generator.generate([BatchRequest(prompt, config)])
            assert result.sequences[0] == generate(model, prompt, config)
        assert generator.prefix_cache.stats.hits == len(prompts) - 1

    def test_identical_when_budget_trims_tails_mid_sweep(
        self, model, shared_header_prompts
    ):
        """A budget a few positions over one prompt makes inserts trim
        the tails of cached runs (suffixes and headers) between calls."""
        config = GenerationConfig(max_new_tokens=5)
        position_bytes = model.config.num_layers * 2 * model.config.dim * 8
        budget = 19 * position_bytes
        rng = np.random.default_rng(11)
        other = list(map(int, rng.integers(1, 48, size=12)))
        prompts = []
        for i, prompt in enumerate(shared_header_prompts):
            prompts += [prompt, other + [i + 1, 2 * i + 3]]
        cache = PrefixCache(max_bytes=budget)
        generator = BatchedGenerator(model, prefix_cache=cache)
        for prompt in prompts:
            (result,) = generator.generate([BatchRequest(prompt, config)])
            assert result.sequences[0] == generate(model, prompt, config)
            assert cache.stats.bytes <= budget
        assert cache.stats.oversized == 0
        assert cache.stats.evictions > 0
        assert cache.stats.hits > 0

    def test_n_choices_after_split_of_cached_header(
        self, model, shared_header_prompts
    ):
        first = shared_header_prompts[0]
        generator = BatchedGenerator(model, prefix_cache=PrefixCache())
        generator.generate([BatchRequest(first, GenerationConfig(max_new_tokens=2))])
        prompt = first[:9] + [first[9] % 47 + 1, 4]  # diverges inside the run
        config = GenerationConfig(
            max_new_tokens=6, strategy="sample", temperature=0.9, seed=5
        )
        expected = [
            generate(model, prompt, dataclasses.replace(config, seed=5 + j))
            for j in range(3)
        ]
        for _ in range(2):  # splits the cached run, then reuses the split
            (result,) = generator.generate([BatchRequest(prompt, config, n=3)])
            assert result.sequences == expected

    def test_client_prefix_cache_persists_and_invalidates(self, hub):
        client = CompletionClient(hub)
        client.complete_batch("tiny-gpt", PROMPTS, max_tokens=4)
        client.complete_batch("tiny-gpt", PROMPTS, max_tokens=4)
        cache_before = client.prefix_cache("tiny-gpt")
        assert cache_before.stats.hits >= len(PROMPTS)  # second sweep fully cached
        entry = hub.get("tiny-gpt")
        hub.register(
            "tiny-gpt",
            GPTModel(entry.model.config, seed=99),
            entry.tokenizer,
        )
        assert client.prefix_cache("tiny-gpt") is not cache_before
        hub.register("tiny-gpt", entry.model, entry.tokenizer)

    def test_disabled_cache_returns_none(self, hub):
        client = CompletionClient(hub, prefix_cache_bytes=0)
        assert client.prefix_cache("tiny-gpt") is None
        responses = client.complete_batch("tiny-gpt", PROMPTS[:2], max_tokens=4)
        assert len(responses) == 2


class TestContinuousBatching:
    def test_matches_sequential_and_barriered(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=9)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        expected = [generate(model, p, config) for p in ragged_prompts]
        generator = BatchedGenerator(model)
        results = generator.generate_continuous(requests, max_active=3)
        assert [r.sequences[0] for r in results] == expected
        assert generator.stats.refills > 0
        assert generator.stats.peak_active <= 3

    def test_refill_admits_mid_decode(self, model, ragged_prompts):
        # Unequal stop points force retirement at different steps, so
        # queued requests must be admitted into freed slots.
        config = GenerationConfig(max_new_tokens=12)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        generator = BatchedGenerator(model)
        generator.generate_continuous(requests, max_active=2)
        assert generator.stats.refills == len(requests) - 2

    def test_sampling_and_n_choices(self, model, ragged_prompts):
        config = GenerationConfig(
            max_new_tokens=5, strategy="sample", temperature=0.8, seed=23
        )
        requests = [BatchRequest(p, config, n=2) for p in ragged_prompts[:3]]
        expected = [
            [
                generate(model, p, dataclasses.replace(config, seed=23 + j))
                for j in range(2)
            ]
            for p in ragged_prompts[:3]
        ]
        results = BatchedGenerator(model).generate_continuous(
            requests, max_active=4
        )
        assert [r.sequences for r in results] == expected

    def test_oversized_n_runs_alone(self, model):
        config = GenerationConfig(
            max_new_tokens=4, strategy="sample", temperature=0.9
        )
        generator = BatchedGenerator(model)
        (result,) = generator.generate_continuous(
            [BatchRequest([1, 2], config, n=5)], max_active=2
        )
        assert len(result.sequences) == 5

    def test_nonfitting_request_falls_back(self, model):
        config = GenerationConfig(max_new_tokens=model.config.max_seq_len)
        generator = BatchedGenerator(model)
        results = generator.generate_continuous(
            [BatchRequest([1, 2, 3], config), BatchRequest([4, 5], GenerationConfig(max_new_tokens=3))],
            max_active=2,
        )
        assert not results[0].batched
        assert results[1].batched
        assert generator.stats.sequential_fallbacks == 1

    def test_with_prefix_cache(self, model, shared_header_prompts):
        config = GenerationConfig(max_new_tokens=7)
        requests = [BatchRequest(p, config) for p in shared_header_prompts]
        expected = [generate(model, p, config) for p in shared_header_prompts]
        generator = BatchedGenerator(model, prefix_cache=PrefixCache())
        results = generator.generate_continuous(requests, max_active=2)
        assert [r.sequences[0] for r in results] == expected
        assert generator.prefix_cache.stats.hits > 0

    def test_scheduler_continuous_matches_barriered(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=6)
        barriered = BatchScheduler(model, max_batch_size=3)
        continuous = BatchScheduler(model, max_batch_size=3, continuous=True)
        tickets_a = [barriered.submit(BatchRequest(p, config)) for p in ragged_prompts]
        tickets_b = [continuous.submit(BatchRequest(p, config)) for p in ragged_prompts]
        results_a = barriered.run()
        results_b = continuous.run()
        assert [results_a[t].sequences for t in tickets_a] == [
            results_b[t].sequences for t in tickets_b
        ]
        assert continuous.generator.stats.refills > 0
        assert continuous.stats.microbatches == 1
        assert barriered.generator.stats.refills == 0

    def test_bad_max_active_rejected(self, model):
        with pytest.raises(GenerationError):
            BatchedGenerator(model).generate_continuous([], max_active=0)

    def test_client_surfaces_refills(self, hub, monkeypatch):
        """The client's per-call scheduler refills freed slots; its
        generator is the one home of the refill count."""
        schedulers = []

        class Recording(BatchScheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                schedulers.append(self)

        monkeypatch.setattr("repro.api.client.BatchScheduler", Recording)
        CompletionClient(hub).complete_batch(
            "tiny-gpt", PROMPTS, max_tokens=8, max_batch_size=2
        )
        (scheduler,) = schedulers
        assert scheduler.generator.stats.refills > 0


class TestMidStreamCancellation:
    """on_step hooks: retire requests mid-decode without collateral."""

    def test_active_cancel_leaves_batch_token_identical(
        self, model, ragged_prompts
    ):
        config = GenerationConfig(max_new_tokens=9)
        expected = [generate(model, p, config) for p in ragged_prompts]
        steps = []

        def cancel_first_at_step_three(active, queued):
            steps.append(list(active))
            return [0] if len(steps) == 3 else []

        generator = BatchedGenerator(model)
        results = generator.generate_continuous(
            [BatchRequest(p, config) for p in ragged_prompts],
            max_active=len(ragged_prompts),
            on_step=cancel_first_at_step_three,
        )
        assert results[0].cancelled and results[0].sequences == []
        # Survivors decode exactly as if the victim had never left.
        assert [r.sequences[0] for r in results[1:]] == expected[1:]
        assert generator.stats.cancelled_sequences == 1
        # The hook fires before each decode step: by its third call the
        # victim had generated two tokens, both discarded.
        assert generator.stats.cancelled_tokens == 2

    def test_queued_cancel_never_admitted(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=6)
        last = len(ragged_prompts) - 1

        def cancel_queued_immediately(active, queued):
            return [last] if last in queued else []

        generator = BatchedGenerator(model)
        results = generator.generate_continuous(
            [BatchRequest(p, config) for p in ragged_prompts],
            max_active=2,
            on_step=cancel_queued_immediately,
        )
        assert results[last].cancelled
        assert generator.stats.cancelled_tokens == 0  # never decoded

    def test_cancelled_slot_is_refilled(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=12)
        fired = []

        def cancel_zero_once(active, queued):
            if not fired and 0 in active:
                fired.append(True)
                return [0]
            return []

        admitted = []
        generator = BatchedGenerator(model)
        generator.generate_continuous(
            [BatchRequest(p, config) for p in ragged_prompts],
            max_active=2,
            on_step=cancel_zero_once,
            on_admit=admitted.append,
        )
        # Every request is eventually admitted: the cancelled slot was
        # handed to queued work, not leaked.
        assert sorted(admitted) == list(range(len(ragged_prompts)))

    def test_hook_exception_propagates_as_replica_death(
        self, model, ragged_prompts
    ):
        scheduler = BatchScheduler(model, max_batch_size=2, continuous=True)
        for p in ragged_prompts:
            scheduler.submit(BatchRequest(p, GenerationConfig(max_new_tokens=6)))

        def die(active, queued):
            raise TransientError("injected replica death")

        with pytest.raises(TransientError):
            scheduler.run(on_step=die)
        # Submission stamps must not leak into the next (failover) run.
        assert scheduler._submitted_at == {}

    def test_scheduler_counts_cancelled_separately(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=6)
        scheduler = BatchScheduler(model, max_batch_size=3, continuous=True)
        tickets = [
            scheduler.submit(BatchRequest(p, config)) for p in ragged_prompts
        ]
        results = scheduler.run(on_step=lambda active, queued: [0])
        assert results[tickets[0]].cancelled
        assert scheduler.stats.cancelled == 1
        assert scheduler.stats.completed == len(ragged_prompts) - 1

    def test_on_step_requires_continuous_mode(self, model):
        scheduler = BatchScheduler(model, max_batch_size=2)
        scheduler.submit(BatchRequest([1, 2], GenerationConfig(max_new_tokens=2)))
        with pytest.raises(GenerationError):
            scheduler.run(on_step=lambda active, queued: [])


class TestQueueWaitAccounting:
    def test_scheduler_records_wait_on_virtual_clock(self, model, ragged_prompts):
        clock = VirtualClock()
        scheduler = BatchScheduler(
            model, max_batch_size=4, continuous=True, clock=clock
        )
        config = GenerationConfig(max_new_tokens=4)
        scheduler.submit(BatchRequest(ragged_prompts[0], config))
        clock.advance(2.5)  # the request sits queued for 2.5 virtual s
        scheduler.submit(BatchRequest(ragged_prompts[1], config))
        scheduler.run()
        assert scheduler.stats.queue_wait_max == pytest.approx(2.5)
        # Total = 2.5 (first) + 0.0 (second, dispatched immediately).
        assert scheduler.stats.queue_wait_total == pytest.approx(2.5)

    def test_barriered_scheduler_also_records_wait(self, model, ragged_prompts):
        clock = VirtualClock()
        scheduler = BatchScheduler(model, max_batch_size=4, clock=clock)
        config = GenerationConfig(max_new_tokens=4)
        scheduler.submit(BatchRequest(ragged_prompts[0], config))
        clock.advance(1.0)
        scheduler.run()
        assert scheduler.stats.queue_wait_total == pytest.approx(1.0)


class TestClientCodexServing:
    @pytest.fixture()
    def db(self):
        database = Database()
        database.execute("CREATE TABLE users (id INT, name TEXT, age INT)")
        database.execute("INSERT INTO users VALUES (1, 'ann', 34), (2, 'bo', 19)")
        return database

    def test_wave_returns_k_candidates(self, hub):
        from repro.codexdb import ClientCodex

        codex = ClientCodex(CompletionClient(hub), "tiny-gpt", max_tokens=6)
        programs = codex.sample_programs(
            "select name from users", CodeGenOptions(), 3
        )
        assert len(programs) == 3
        assert codex.samples_served == 3

    def test_prompts_share_cacheable_header(self, hub):
        from repro.codexdb import ClientCodex

        codex = ClientCodex(CompletionClient(hub), "tiny-gpt", max_tokens=4)
        codex.sample_program("select name from users", CodeGenOptions())
        codex.sample_program("select age from users", CodeGenOptions())
        stats = codex.serving_stats()
        assert stats["prefix_hits"] >= 1
        assert stats["prefix_reused_tokens"] > 0

    def test_codexdb_loop_survives_lm_candidates(self, hub, db):
        from repro.codexdb import ClientCodex

        codex = ClientCodex(CompletionClient(hub), "tiny-gpt", max_tokens=6)
        system = CodexDB(db, codex, CodeGenOptions())
        result = system.run("select name from users where age > 20", max_attempts=2)
        # The tiny word-LM emits non-Python: every candidate is rejected
        # before execution, which is exactly the vetting path.
        assert not result.succeeded
        assert result.static_rejections + result.runtime_failures >= 1

    def test_evaluate_codexdb_accepts_codex_override(self, hub, db):
        from repro.codexdb import ClientCodex, evaluate_codexdb

        codex = ClientCodex(CompletionClient(hub), "tiny-gpt", max_tokens=6)
        report = evaluate_codexdb(
            db, ["select name from users"], max_attempts=2, codex=codex
        )
        assert report.total == 1
        assert report.serving is not None
        assert "prefix_hits" in report.serving


class TestServingStatsSurfaces:
    def test_translator_serving_stats(self, text2sql_setup):
        workload, examples, hub, engine = text2sql_setup
        translator = ClientTranslator(
            client=CompletionClient(hub), engine=engine, workload=workload
        )
        questions = [e.question for e in examples[:4]]
        translator.translate_batch(questions)
        translator.translate_batch(questions)
        stats = translator.serving_stats()
        assert stats["requests"] == 8.0
        assert stats["prefix_hits"] >= 4  # second sweep reuses the first

    def test_evaluate_translator_attaches_serving(self, text2sql_setup):
        workload, examples, hub, engine = text2sql_setup
        translator = ClientTranslator(
            client=CompletionClient(hub), engine=engine, workload=workload
        )
        report = evaluate_translator(
            translator.translate,
            workload,
            examples[:4],
            translate_batch=translator.translate_batch,
            serving_source=translator.serving_stats,
        )
        assert report.serving is not None
        assert report.serving["requests"] == 4.0

    def test_imputer_serving_stats(self, hub):
        examples = generate_imputation_dataset(num_examples=24, seed=1)
        # shots=2 keeps the few-shot prompt inside the tiny context so
        # the batched (cacheable) path serves it, not the fallback.
        imputer = ClientImputer(CompletionClient(hub), "tiny-gpt", shots=2).fit(
            examples[:18]
        )
        imputer.predict_batch(examples[18:])
        stats = imputer.serving_stats()
        assert stats["requests"] == 6.0
        # Few-shot prompts share the shot block: the prefix cache must
        # absorb most of it even within one sweep's admission waves.
        assert stats["prefix_reused_tokens"] > 0

    def test_wrapped_client_unwraps_to_engine_stats(self, hub):
        from repro.serving import engine_serving_stats

        clock = VirtualClock()
        inner = CompletionClient(hub)
        resilient = ResilientClient(inner, policy=RetryPolicy(), clock=clock)
        resilient.complete_batch("tiny-gpt", PROMPTS[:2], max_tokens=4)
        stats = engine_serving_stats(resilient, "tiny-gpt")
        assert stats["requests"] == 2.0

    def test_statless_client_yields_empty_dict(self):
        from repro.serving import engine_serving_stats

        class Bare:
            def complete(self, engine, prompt, **kwargs):
                raise NotImplementedError

        assert engine_serving_stats(Bare(), "x") == {}


class TestConcatInLoopLint:
    def lint(self, code, path):
        from repro.analysis.lint import lint_source

        return [
            f for f in lint_source(code, path=path) if f.rule == "concat-in-loop"
        ]

    def test_flags_concatenate_in_loop(self):
        code = (
            "import numpy as np\n"
            "def grow(chunks):\n"
            "    out = chunks[0]\n"
            "    for c in chunks[1:]:\n"
            "        out = np.concatenate([out, c], axis=2)\n"
            "    return out\n"
        )
        findings = self.lint(code, "src/repro/nn/attention.py")
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_flags_comprehension(self):
        code = (
            "import numpy as np\n"
            "def grow(pairs):\n"
            "    return [np.concatenate(p) for p in pairs]\n"
        )
        assert self.lint(code, "src/repro/serving/engine.py")

    def test_call_outside_loop_is_fine(self):
        code = (
            "import numpy as np\n"
            "def join(a, b):\n"
            "    return np.concatenate([a, b])\n"
        )
        assert not self.lint(code, "src/repro/nn/attention.py")

    def test_only_hot_path_dirs_covered(self):
        code = (
            "import numpy as np\n"
            "def grow(chunks):\n"
            "    return [np.concatenate(c) for c in chunks]\n"
        )
        assert not self.lint(code, "src/repro/wrangle/imputation.py")
        assert not self.lint(code, "tests/test_nn.py")

    def test_noqa_suppresses(self):
        code = (
            "import numpy as np\n"
            "def grow(chunks):\n"
            "    out = chunks[0]\n"
            "    for c in chunks[1:]:\n"
            "        out = np.concatenate(  # repro: noqa[concat-in-loop]\n"
            "            [out, c], axis=2)\n"
            "    return out\n"
        )
        assert not self.lint(code, "src/repro/serving/engine.py")

    def test_shipped_hot_paths_are_clean(self):
        from pathlib import Path

        from repro.analysis.lint import lint_paths

        findings = [
            f
            for f in lint_paths(
                [
                    Path("src/repro/nn"),
                    Path("src/repro/generation"),
                    Path("src/repro/serving"),
                    Path("src/repro/models"),
                ]
            )
            if f.rule == "concat-in-loop"
        ]
        assert findings == []


@pytest.fixture(scope="module")
def matrix_setup(word_tokenizer, corpus):
    """Ragged prompts and a stop id that lands mid-run.

    The model has random weights: a trained model's repetitive output
    can hide a token written at the wrong position."""
    words = " ".join(corpus[:4]).split()
    prompts = [" ".join(words[:n]) for n in (1, 6, 3, 11, 4, 8)]
    ids = [word_tokenizer.encode(p, add_bos=True).ids for p in prompts]
    model = GPTModel(ModelConfig.tiny(vocab_size=word_tokenizer.vocab_size), seed=7)
    hub = ModelHub()
    hub.register("tiny-gpt", model, word_tokenizer)
    stop = generate(model, ids[1], GenerationConfig(max_new_tokens=10))[2]
    return hub, prompts, ids, stop


def _matrix_requests(ids, stop, vocab):
    """Greedy, stop id, constraint, n > 1 and one sampled request."""
    sampled = GenerationConfig(
        max_new_tokens=6, strategy="sample", temperature=0.9, seed=11
    )
    return [
        BatchRequest(ids[0], GenerationConfig(max_new_tokens=8)),
        BatchRequest(ids[1], GenerationConfig(max_new_tokens=10, stop_ids=(stop,))),
        BatchRequest(ids[2], GenerationConfig(max_new_tokens=8), OddOnly(vocab)),
        BatchRequest(ids[3], GenerationConfig(max_new_tokens=9), n=2),
        BatchRequest(ids[4], sampled, n=2),
        BatchRequest(ids[5], GenerationConfig(max_new_tokens=12)),
    ]


class TestServingEquivalenceMatrix:
    """Every serving configuration against the sequential oracle.

    Scheduling (barriered, continuous) x prefix caching (off, on): each
    cell serves the same mixed batch twice — the second pass hits the
    prefix cache when it is on — and must match
    :func:`repro.generation.generate` token for token. Each cell also
    checks that the client's per-prompt path is a one-prompt batch.
    """

    @pytest.mark.parametrize("prefix", [False, True], ids=["noprefix", "prefix"])
    @pytest.mark.parametrize(
        "continuous", [False, True], ids=["barriered", "continuous"]
    )
    def test_matches_generate_oracle(self, matrix_setup, continuous, prefix):
        hub, prompts, ids, stop = matrix_setup
        model = hub.get("tiny-gpt").model
        requests = _matrix_requests(ids, stop, model.config.vocab_size)
        expected = [
            [
                generate(
                    model, r.prompt_ids,
                    dataclasses.replace(r.config, seed=r.config.seed + j),
                    r.constraint,
                )
                for j in range(r.n)
            ]
            for r in requests
        ]
        cache = PrefixCache() if prefix else None
        scheduler = BatchScheduler(
            model, max_batch_size=4, continuous=continuous, prefix_cache=cache
        )
        for _ in range(2):
            tickets = [scheduler.submit(r) for r in requests]
            results = scheduler.run()
            assert [results[t].sequences for t in tickets] == expected
        assert cache is None or cache.stats.hits > 0
        assert (scheduler.generator.stats.refills > 0) == continuous

        # The client's per-prompt path is a one-prompt batch: same texts
        # and usage as one complete_batch call.
        budget = 2**20 if prefix else 0
        batch = CompletionClient(hub, prefix_cache_bytes=budget).complete_batch(
            "tiny-gpt", prompts, max_tokens=8, n=2, continuous=continuous
        )
        single_client = CompletionClient(hub, prefix_cache_bytes=budget)
        single = [
            single_client.complete("tiny-gpt", p, max_tokens=8, n=2) for p in prompts
        ]
        assert [[c.text for c in r.choices] for r in batch] == [
            [c.text for c in r.choices] for r in single
        ]
        assert [r.usage for r in batch] == [r.usage for r in single]
