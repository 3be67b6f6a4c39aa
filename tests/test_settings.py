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
    "repro.api.client.CompletionClient.__init__.clock": "backlog",
    "repro.api.pipelines.FillMaskPipeline.__call__.top_k": "set through the instance call `filler(masked, top_k=3)` in examples/quickstart.py; the pass does not resolve `__call__`",
    "repro.api.pipelines.TextGenerationPipeline.__call__.max_new_tokens": "set through the instance call `generator(prompt, max_new_tokens=6)` in examples/quickstart.py; the pass does not resolve `__call__`",
    "repro.autograd.tensor.Tensor.backward.grad": "backlog",
    "repro.codexdb.codex.ClientCodex.__init__.max_tokens": "backlog",
    "repro.codexdb.codex.CodexDB.__init__.speculative": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.codex": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.fault_profile": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.retry_policy": "backlog",
    "repro.codexdb.evaluate.evaluate_codexdb.unsafe_rate": "backlog",
    "repro.codexdb.sandbox._guarded_import.fromlist": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.globals": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.level": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox._guarded_import.locals": "mirrors `builtins.__import__`, which the sandbox replaces",
    "repro.codexdb.sandbox.run_generated_code.fuel": "backlog",
    "repro.durability.crash.CrashInjector.__init__.crash_rate": "backlog",
    "repro.durability.crash.CrashInjector.__init__.seed": "backlog",
    "repro.durability.crash.CrashInjector.disarm.point": "backlog",
    "repro.durability.harness.run_crash_matrix.topology": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.crash": "backlog",
    "repro.durability.neural.DurableNeuralDatabase.__init__.initial_facts": "backlog",
    "repro.factcheck.verify.FactChecker.__init__.tolerance": "backlog",
    "repro.miner.search.exhaustive_summary.k": "backlog",
    "repro.models.checkpoint.save_model.crash": "backlog",
    "repro.neuraldb.index.InvertedIndex.candidates.limit": "backlog",
    "repro.nn.layers.LayerNorm.__init__.eps": "standard layer-norm hyperparameter",
    "repro.prompting.parsers.parse_label.default": "backlog",
    "repro.reliability.client.ResilientClient.__init__.burst": "backlog",
    "repro.reliability.client.ResilientClient.__init__.requests_per_second": "backlog",
    "repro.reliability.clock.VirtualClock.__init__.start": "backlog",
    "repro.reliability.ratelimit.TokenBucket.acquire.tokens": "backlog",
    "repro.reliability.ratelimit.TokenBucket.try_acquire.tokens": "backlog",
    "repro.reliability.retry.RetryPolicy.deadline": "backlog",
    "repro.serving.gateway.Gateway.__init__.max_attempts": "backlog",
    "repro.serving.gateway.Gateway.__init__.probe_interval": "backlog",
    "repro.serving.gateway.Gateway.__init__.quotas": "backlog",
    "repro.serving.gateway.GatewayRequest.deadline": "backlog",
    "repro.serving.gateway.GatewayRequest.tenant": "backlog",
    "repro.sql.cluster.coordinator.ClusterDatabase.__init__.allow_stale": "backlog",
    "repro.sql.cluster.coordinator.ClusterDatabase.__init__.durable": "backlog",
    "repro.sql.shell.repl.stdin": "backlog",
    "repro.sql.shell.repl.stdout": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.engine": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.reliability_source": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.serving_source": "backlog",
    "repro.text2sql.evaluate.evaluate_translator.translate_batch": "backlog",
    "repro.text2sql.translator.ClientTranslator.fallback": "backlog",
    "repro.text2sql.translator.LMTranslator.translate.vet": "backlog",
    "repro.tokenizers.wordpiece.WordPieceTokenizer.__init__.lowercase": "set through `cls(**kwargs)` in `tokenizers.serialize.load_tokenizer`, which the pass does not resolve",
    "repro.tokenizers.wordpiece.WordPieceTokenizer.__init__.max_subword_len": "set through `cls(**kwargs)` in `tokenizers.serialize.load_tokenizer`, which the pass does not resolve",
    "repro.training.optim.AdamW.__init__.betas": "standard optimizer hyperparameter",
    "repro.training.optim.AdamW.__init__.eps": "standard optimizer hyperparameter",
    "repro.training.optim.AdamW.__init__.weight_decay": "standard optimizer hyperparameter",
    "repro.training.optim.SGD.__init__.momentum": "standard optimizer hyperparameter",
    "repro.training.pretrain.pretrain_clm.batch_size": "backlog",
    "repro.training.pretrain.pretrain_mlm.batch_size": "backlog",
    "repro.tuning.manuals.generate_manual.hint_fraction": "backlog",
    "repro.tuning.simulator.DBMSConfig.buffer_pool_mb": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.compression": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.log_buffer_kb": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.simulator.DBMSConfig.worker_threads": "set through `dataclasses.replace(self, **{knob: value})` in `DBMSConfig.with_knob`, which the pass does not resolve",
    "repro.tuning.tuner.tune.initial": "backlog",
    "repro.wrangle.data.generate_error_dataset.error_rate": "backlog",
    "repro.wrangle.imputation.ClientImputer.__init__.seed": "backlog",
    "repro.wrangle.imputation.ClientImputer.__init__.shots": "backlog",
    "repro.wrangle.schema_match.generate_schema_match_task.num_columns": "backlog",
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

        class Base:
            def __init__(self, lr=0.1, eps=1e-8):
                self.lr, self.eps = lr, eps

        class Child(Base):
            def __init__(self, lr=0.1):
                super().__init__(lr)
    """,
    "examples/use.py": """
        from pkg.mod import Child
        from pkg.rng import SeededRNG

        SeededRNG().coin(0.3)
        Child(lr=0.2)
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
            "pkg.mod.Base.__init__.eps",
            "pkg.mod.Report.label",
            "pkg.mod.lonely.flag",
        ]

    def test_positional_caller_sets_the_parameter(self, synthetic):
        assert "pkg.rng.SeededRNG.coin.p_true" not in unset_settings(synthetic)

    def test_forwarded_kwargs_set_every_parameter(self, synthetic):
        found = unset_settings(synthetic)
        assert "pkg.mod.forward.a" not in found
        assert "pkg.mod.forward.b" not in found

    def test_super_init_sets_the_base_class_parameters(self, synthetic):
        found = unset_settings(synthetic)
        assert "pkg.mod.Base.__init__.lr" not in found
        assert "pkg.mod.Base.__init__.eps" in found  # not passed on

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
            '"pkg.mod.lonely.flag": "test hook", "pkg.mod.Base.__init__.eps": "backlog"}\n',
            encoding="utf-8",
        )
        assert main([str(synthetic)]) == 0
        assert "2 on the backlog, 1 justified, 0 unlisted, 0 stale" in capsys.readouterr().out
        exceptions.write_text(
            'EXCEPTIONS = {"pkg.mod.Report.label": "backlog", '
            '"pkg.mod.lonely.flag": "test hook", "pkg.mod.Base.__init__.eps": "backlog", '
            '"pkg.mod.gone.x": "backlog"}\n',
            encoding="utf-8",
        )
        assert main([str(synthetic)]) == 1
        assert "stale exception (now set, or gone): pkg.mod.gone.x" in capsys.readouterr().out
