"""Tests for repro.analysis.settings: settings no caller sets.

The tier-1 check runs the pass over this repository. Every setting it
reports must be listed in ``EXCEPTIONS`` with a reason, and every
listed entry must still be reported, so the list can only shrink. A
reason is a real justification or the literal ``"backlog"`` (a
setting that should go in a later deletion batch).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.settings import main, unset_settings

ROOT = Path(__file__).resolve().parents[1]

EXCEPTIONS = {
    "repro.analysis.pycheck.assert_safe.known_names": "backlog",
    "repro.api.client.CompletionClient.__init__.clock": "backlog",
    "repro.api.pipelines.FillMaskPipeline.__call__.top_k": "set through the instance call `filler(masked, top_k=3)` in examples/quickstart.py; the pass does not resolve `__call__`",
    "repro.api.pipelines.TextGenerationPipeline.__call__.do_sample": "backlog",
    "repro.api.pipelines.TextGenerationPipeline.__call__.max_new_tokens": "set through the instance call `generator(prompt, max_new_tokens=6)` in examples/quickstart.py; the pass does not resolve `__call__`",
    "repro.api.pipelines.TextGenerationPipeline.__call__.seed": "backlog",
    "repro.api.pipelines.TextGenerationPipeline.__call__.temperature": "backlog",
    "repro.autograd.functional.log_softmax.axis": "backlog",
    "repro.autograd.tensor.Tensor.__init__.name": "backlog",
    "repro.autograd.tensor.Tensor.backward.grad": "backlog",
    "repro.autograd.tensor.tensor.requires_grad": "backlog",
    "repro.codexdb.codex.ClientCodex.__init__.max_tokens": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.codex": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.fault_profile": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.retry_policy": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.speculative": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.unsafe_rate": "backlog",
    "repro.codexdb.planner.plan_query.catalog": "backlog",
    "repro.codexdb.sandbox._guarded_import.fromlist": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.globals": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.level": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.locals": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox.run_generated_code.fuel": "backlog",
    "repro.durability.crash.CrashInjector.__init__.crash_rate": "backlog",
    "repro.durability.crash.CrashInjector.__init__.seed": "backlog",
    "repro.durability.crash.CrashInjector.disarm.point": "backlog",
    "repro.durability.database.DurableDatabase.__init__.clock": "backlog",
    "repro.durability.database.DurableDatabase.__init__.fsync_latency": "backlog",
    "repro.durability.harness.random_dml_workload.num_tables": "backlog",
    "repro.durability.harness.run_crash_matrix.failover": "backlog",
    "repro.durability.harness.run_crash_matrix.max_occurrences_per_point": "backlog",
    "repro.durability.harness.run_crash_matrix.num_shards": "backlog",
    "repro.durability.harness.run_crash_matrix.topology": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.clock": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.crash": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.durable": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.fsync_latency": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.initial_facts": "backlog",
    "repro.factcheck.rankers.train_lm_ranker.dim": "backlog",
    "repro.factcheck.rankers.train_lm_ranker.lr": "backlog",
    "repro.factcheck.rankers.train_lm_ranker.seq_len": "backlog",
    "repro.factcheck.verify.FactChecker.__init__.tolerance": "backlog",
    "repro.figures.attention_viz.render_attention.head": "backlog",
    "repro.figures.attention_viz.render_attention.layer": "backlog",
    "repro.figures.param_evolution.render_figure1_ascii.height": "backlog",
    "repro.figures.param_evolution.render_figure1_ascii.width": "backlog",
    "repro.miner.facts.enumerate_facts.aggs": "backlog",
    "repro.miner.scorer.train_relevance_scorer.dim": "backlog",
    "repro.miner.scorer.train_relevance_scorer.seq_len": "backlog",
    "repro.miner.search.exhaustive_summary.k": "backlog",
    "repro.models.body.TransformerLM.__init__.seed": "backlog",
    "repro.models.checkpoint.save_model.crash": "backlog",
    "repro.models.registry.HistoricalModel.to_config.scale": "backlog",
    "repro.neuraldb.index.InvertedIndex.candidates.limit": "backlog",
    "repro.neuraldb.reader.train_reader.dim": "backlog",
    "repro.neuraldb.reader.train_reader.lr": "backlog",
    "repro.neuraldb.reader.train_reader.seq_len": "backlog",
    "repro.neuraldb.retriever.EmbeddingRetriever.__init__.dense_cutoff": "backlog",
    "repro.neuraldb.retriever.EmbeddingRetriever.__init__.dim": "backlog",
    "repro.neuraldb.retriever.EmbeddingRetriever.train_contrastive.batch_size": "backlog",
    "repro.neuraldb.retriever.EmbeddingRetriever.train_contrastive.lr": "backlog",
    "repro.nn.layers.LayerNorm.__init__.eps": "standard layer-norm hyperparameter",
    "repro.profiling.corpus.generate_schema_corpus.rows_per_schema": "backlog",
    "repro.profiling.predictor.train_name_pair_classifier.dim": "backlog",
    "repro.profiling.predictor.train_name_pair_classifier.lr": "backlog",
    "repro.profiling.prioritize.profiling_recall_at_budget.threshold": "backlog",
    "repro.prompting.classify.PromptClassifier.calibrate.max_shots": "backlog",
    "repro.prompting.fewshot.FewShotPrompt.__init__.separator": "backlog",
    "repro.prompting.parsers.parse_label.default": "backlog",
    "repro.reliability.aclock.AsyncVirtualClock.__init__.clock": "backlog",
    "repro.reliability.client.ResilientClient.__init__.burst": "backlog",
    "repro.reliability.client.ResilientClient.__init__.requests_per_second": "backlog",
    "repro.reliability.clock.VirtualClock.__init__.start": "backlog",
    "repro.reliability.faults.FaultProfile.rate_limit_rate": "backlog",
    "repro.reliability.ratelimit.TokenBucket.acquire.tokens": "backlog",
    "repro.reliability.ratelimit.TokenBucket.try_acquire.tokens": "backlog",
    "repro.reliability.retry.RetryPolicy.deadline": "backlog",
    "repro.semantic.predicate._training_reviews.per_class": "backlog",
    "repro.semantic.predicate.train_review_predicate.dim": "backlog",
    "repro.serving.gateway.Gateway.__init__.max_attempts": "backlog",
    "repro.serving.gateway.Gateway.__init__.probe_interval": "backlog",
    "repro.serving.gateway.Gateway.__init__.quotas": "backlog",
    "repro.serving.gateway.GatewayRequest.deadline": "backlog",
    "repro.serving.gateway.GatewayRequest.tenant": "backlog",
    "repro.sql.cluster.coordinator.ClusterDatabase.__init__.allow_stale": "backlog",
    "repro.sql.cluster.coordinator.ClusterDatabase.__init__.durable": "backlog",
    "repro.sql.shell.repl.stdin": "backlog",
    "repro.sql.shell.repl.stdout": "backlog",
    "repro.sql.table.Table.from_csv.types": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.engine": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.reliability_source": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.serving_source": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.translate_batch": "backlog",
    "repro.text2sql.translator.ClientTranslator.fallback": "backlog",
    "repro.text2sql.translator.ClientTranslator.vet": "backlog",
    "repro.text2sql.translator.LMTranslator.translate.max_new_tokens": "backlog",
    "repro.text2sql.translator.LMTranslator.translate.vet": "backlog",
    "repro.tokenizers.base.Tokenizer.__init__.vocab": "set by every tokenizer subclass through `super().__init__(Vocabulary(...))`, which the pass does not resolve",
    "repro.tokenizers.bpe.BPETokenizer.__init__.specials": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.bos": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.cls": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.eos": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.mask": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.pad": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.sep": "backlog",
    "repro.tokenizers.vocab.SpecialTokens.unk": "backlog",
    "repro.tokenizers.vocab.Vocabulary.from_tokens.specials": "backlog",
    "repro.tokenizers.whitespace.WhitespaceTokenizer.__init__.specials": "backlog",
    "repro.tokenizers.wordpiece.WordPieceTokenizer.__init__.lowercase": "set through `cls(**kwargs)` in `tokenizers.serialize.load_tokenizer`, which the pass does not resolve",
    "repro.tokenizers.wordpiece.WordPieceTokenizer.__init__.max_subword_len": "set through `cls(**kwargs)` in `tokenizers.serialize.load_tokenizer`, which the pass does not resolve",
    "repro.tokenizers.wordpiece.WordPieceTokenizer.__init__.specials": "backlog",
    "repro.training.adapters.LoRALinear.__init__.alpha": "backlog",
    "repro.training.adapters.inject_adapters.target_names": "backlog",
    "repro.training.finetune.evaluate_classifier.max_length": "backlog",
    "repro.training.finetune.finetune_classifier.batch_size": "backlog",
    "repro.training.metrics.f1_score.positive": "backlog",
    "repro.training.optim.Adam.__init__.betas": "standard optimizer hyperparameter",
    "repro.training.optim.Adam.__init__.eps": "standard optimizer hyperparameter",
    "repro.training.optim.Adam.__init__.lr": "set by `AdamW` through `super().__init__(params, lr, betas, eps)`, which the pass does not resolve",
    "repro.training.optim.AdamW.__init__.betas": "standard optimizer hyperparameter",
    "repro.training.optim.AdamW.__init__.eps": "standard optimizer hyperparameter",
    "repro.training.optim.AdamW.__init__.weight_decay": "standard optimizer hyperparameter",
    "repro.training.optim.SGD.__init__.momentum": "standard optimizer hyperparameter",
    "repro.training.pretrain.evaluate_clm.max_rows": "backlog",
    "repro.training.pretrain.evaluate_mlm.max_rows": "backlog",
    "repro.training.pretrain.pretrain_clm.batch_size": "backlog",
    "repro.training.pretrain.pretrain_clm.lr": "backlog",
    "repro.training.pretrain.pretrain_clm.seq_len": "backlog",
    "repro.training.pretrain.pretrain_mlm.batch_size": "backlog",
    "repro.training.pretrain.pretrain_mlm.lr": "backlog",
    "repro.training.schedule.CosineSchedule.__init__.floor": "backlog",
    "repro.training.schedule.LinearWarmupSchedule.__init__.floor": "backlog",
    "repro.tuning.extractor.train_lm_extractor.dim": "backlog",
    "repro.tuning.manuals.generate_manual.hint_fraction": "backlog",
    "repro.tuning.simulator.DBMSConfig.buffer_pool_mb": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.compression": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.log_buffer_kb": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.worker_threads": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.tuner.tune.initial": "backlog",
    "repro.wrangle.data.generate_error_dataset.error_rate": "backlog",
    "repro.wrangle.errors_task.FinetunedErrorDetector.__init__.dim": "backlog",
    "repro.wrangle.imputation.ClientImputer.__init__.seed": "backlog",
    "repro.wrangle.imputation.ClientImputer.__init__.shots": "backlog",
    "repro.wrangle.imputation.FinetunedImputer.__init__.dim": "backlog",
    "repro.wrangle.matching.FinetunedMatcher.__init__.dim": "backlog",
    "repro.wrangle.matching.FinetunedMatcher.__init__.num_layers": "backlog",
    "repro.wrangle.matching.FinetunedMatcher.fit.batch_size": "backlog",
    "repro.wrangle.matching.FinetunedMatcher.fit.lr": "backlog",
    "repro.wrangle.matching.PromptMatcher.__init__.style": "backlog",
    "repro.wrangle.matching.SimilarityMatcher.__init__.threshold": "backlog",
    "repro.wrangle.schema_match.EmbeddingSchemaMatcher.__init__.dim": "backlog",
    "repro.wrangle.schema_match.EmbeddingSchemaMatcher.__init__.pretrain_steps": "backlog",
    "repro.wrangle.schema_match.generate_schema_match_task.num_columns": "backlog",
    "repro.wrangle.schema_match.generate_schema_match_task.sample_size": "backlog",
}


@pytest.fixture(scope="module")
def found():
    return unset_settings(ROOT)


def test_every_unset_setting_is_listed(found):
    unlisted = sorted(set(found) - set(EXCEPTIONS))
    assert not unlisted, (
        "settings no caller outside tests sets; delete them, or list them "
        "in EXCEPTIONS with a reason:\n"
        + "\n".join(found[key].render() for key in unlisted)
    )


def test_every_listed_setting_is_still_unset(found):
    stale = sorted(set(EXCEPTIONS) - set(found))
    assert not stale, (
        "listed settings that a caller now sets (or that are gone); "
        "remove their entries:\n" + "\n".join(stale)
    )


def test_every_entry_has_a_reason():
    assert all(reason.strip() for reason in EXCEPTIONS.values())


SYNTHETIC = {
    "src/pkg/rng.py": """
        class SeededRNG:
            def coin(self, p_true=0.5):
                return p_true
    """,
    "src/pkg/mod.py": """
        from dataclasses import dataclass, field

        def forward(a=1, *, b=2):
            return a + b

        def call_forward(**kwargs):
            return forward(**kwargs)

        @dataclass
        class FooStats:
            hits: int = 0

        @dataclass
        class Report:
            count: int = 0
            seen: list = field(default_factory=list)
            label: str = "x"

        def tally(report):
            report.count += 1
            report.seen.append(1)

        def lonely(flag=False):
            return flag
    """,
    "examples/use.py": """
        from pkg.rng import SeededRNG

        SeededRNG().coin(0.3)
    """,
    "tests/test_use.py": """
        from pkg.mod import lonely

        lonely(flag=True)
        lonely(True)
        lonely()
    """,
}


@pytest.fixture
def synthetic(tmp_path):
    for rel, text in SYNTHETIC.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


class TestPass:
    def test_reports_exactly_the_unset_settings(self, synthetic):
        assert sorted(unset_settings(synthetic)) == [
            "pkg.mod.Report.label",
            "pkg.mod.lonely.flag",
        ]

    def test_positional_caller_sets_the_parameter(self, synthetic):
        assert "pkg.rng.SeededRNG.coin.p_true" not in unset_settings(synthetic)

    def test_forwarded_kwargs_set_every_parameter(self, synthetic):
        found = unset_settings(synthetic)
        assert "pkg.mod.forward.a" not in found
        assert "pkg.mod.forward.b" not in found

    def test_stats_classes_and_written_fields_are_exempt(self, synthetic):
        found = unset_settings(synthetic)
        assert "pkg.mod.FooStats.hits" not in found
        assert "pkg.mod.Report.count" not in found
        assert "pkg.mod.Report.seen" not in found

    def test_test_only_setting_reports_its_test_callers(self, synthetic):
        finding = unset_settings(synthetic)["pkg.mod.lonely.flag"]
        assert "2 test call(s)" in finding.message
        assert finding.source.endswith("mod.py")

    def test_report_exit_status_follows_the_exception_list(self, synthetic, capsys):
        assert main([str(synthetic)]) == 1  # nothing listed yet
        exceptions = synthetic / "tests" / "test_settings.py"
        exceptions.write_text(
            'EXCEPTIONS = {"pkg.mod.Report.label": "backlog", '
            '"pkg.mod.lonely.flag": "test hook"}\n',
            encoding="utf-8",
        )
        assert main([str(synthetic)]) == 0
        assert "1 on the backlog, 1 justified, 0 unlisted, 0 stale" in capsys.readouterr().out
        exceptions.write_text(
            'EXCEPTIONS = {"pkg.mod.Report.label": "backlog", '
            '"pkg.mod.lonely.flag": "test hook", "pkg.mod.gone.x": "backlog"}\n',
            encoding="utf-8",
        )
        assert main([str(synthetic)]) == 1
        assert "stale exception (now set, or gone): pkg.mod.gone.x" in capsys.readouterr().out
