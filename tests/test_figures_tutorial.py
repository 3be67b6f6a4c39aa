"""Tests for the Figure 1 and Table 1 reproductions."""

import pytest

from repro.figures import (
    figure1_points,
    growth_orders_of_magnitude,
    render_figure1_ascii,
)
from repro.tutorial import (
    TUTORIAL_PARTS,
    render_table1,
    run_tutorial,
    total_duration_minutes,
)


class TestFigure1:
    def test_eleven_models(self):
        assert len(figure1_points()) == 11

    def test_points_sorted_by_year(self):
        years = [p.year for p in figure1_points()]
        assert years == sorted(years)

    def test_every_point_within_documented_tolerance(self):
        from repro.models.registry import HISTORICAL_MODELS

        for point, model in zip(figure1_points(), HISTORICAL_MODELS):
            assert point.relative_error <= model.tolerance

    def test_growth_spans_three_plus_orders(self):
        # The paper's log-scale figure spans ~1e8 (ELMo) to >5e11 (PaLM).
        assert growth_orders_of_magnitude() > 3.0

    def test_first_and_last_models(self):
        points = figure1_points()
        assert points[0].name == "ELMo"
        assert points[-1].name == "PaLM"

    def test_ascii_render_mentions_every_model(self):
        rendered = render_figure1_ascii()
        for point in figure1_points():
            assert point.name in rendered

    def test_ascii_render_has_log_axis(self):
        assert "log10(parameters)" in render_figure1_ascii()


class TestAttentionViz:
    def test_matrix_shape_and_rows_sum(self, tiny_gpt, word_tokenizer):
        from repro.figures import attention_matrix

        tokens, weights = attention_matrix(
            tiny_gpt, word_tokenizer, "the database stores rows ."
        )
        assert weights.shape == (len(tokens), len(tokens))
        import numpy as np

        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_causal_model_upper_triangle_empty(self, tiny_gpt, word_tokenizer):
        from repro.figures import attention_matrix
        import numpy as np

        _, weights = attention_matrix(tiny_gpt, word_tokenizer, "the database stores")
        np.testing.assert_allclose(np.triu(weights, k=1), 0.0, atol=1e-9)

    def test_render_contains_tokens(self, tiny_gpt, word_tokenizer):
        from repro.figures import render_attention

        out = render_attention(tiny_gpt, word_tokenizer, "the database stores rows")
        assert "database" in out
        assert "scale:" in out

    def test_bert_attention_renders(self, tiny_bert, word_tokenizer):
        from repro.figures import render_attention

        out = render_attention(tiny_bert, word_tokenizer, "the table scans rows")
        assert "attention" in out

    def test_empty_text_raises(self, tiny_gpt, word_tokenizer):
        from repro.errors import ModelError
        from repro.figures import attention_matrix

        with pytest.raises(ModelError):
            attention_matrix(tiny_gpt, word_tokenizer, "")


class TestTable1:
    def test_seven_parts(self):
        assert len(TUTORIAL_PARTS) == 7

    def test_total_is_ninety_minutes(self):
        assert total_duration_minutes() == 90

    def test_paper_titles_verbatim(self):
        titles = [p.title for p in TUTORIAL_PARTS]
        assert titles == [
            "Welcome and introduction",
            "Rise of the Transformer",
            "Pre-trained language models",
            "Fine-tuning and prompting",
            "APIs and libraries",
            "Applications in data management",
            "Final discussion and conclusion",
        ]

    def test_paper_durations_verbatim(self):
        durations = [p.duration_minutes for p in TUTORIAL_PARTS]
        assert durations == [5, 10, 10, 10, 20, 25, 10]

    def test_render_contains_rows(self):
        rendered = render_table1()
        assert "Rise of the Transformer" in rendered
        assert "25 min" in rendered

    def test_run_tutorial_executes_every_demo(self):
        outputs = run_tutorial(seed=0)
        assert len(outputs) == 7
        assert "attention" in outputs["Rise of the Transformer"].lower()
        assert "loss" in outputs["Pre-trained language models"]
        assert "engine=tiny-gpt" in outputs["APIs and libraries"]
        assert "text-to-sql" in outputs["Applications in data management"].lower()
