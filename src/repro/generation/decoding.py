"""Autoregressive decoding for causal language models.

Implements the strategies the tutorial demonstrates with the OpenAI API:
greedy decoding, temperature sampling, top-k and nucleus (top-p)
filtering, stop sequences, and a hook for *constrained* decoding — the
PICARD idea [69] of masking away tokens that would make the output
syntactically invalid (used heavily by the text-to-SQL subsystem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.errors import GenerationError
from repro.models.gpt import GPTModel
from repro.nn.attention import causal_mask
from repro.tokenizers import Tokenizer
from repro.utils.rng import SeededRNG


class TokenConstraint(Protocol):
    """Restricts which tokens may follow a given generated prefix."""

    def allowed_tokens(self, generated_ids: Sequence[int]) -> Optional[Sequence[int]]:
        """Return permitted next-token ids, or ``None`` for "no restriction".

        ``generated_ids`` contains only the *newly generated* ids (the
        prompt is not included). Returning an empty sequence aborts
        generation.
        """
        ...


@dataclass
class GenerationConfig:
    """Decoding hyper-parameters.

    Attributes:
        max_new_tokens: hard cap on generated tokens.
        strategy: one of ``greedy``, ``sample``.
        temperature: softmax temperature for sampling (ignored by greedy).
        top_k: if > 0, sample only among the k most likely tokens.
        top_p: if < 1, sample from the smallest set with cumulative
            probability >= top_p (nucleus sampling).
        stop_ids: token ids that end generation (e.g. ``[EOS]``).
        seed: RNG seed for sampling.
    """

    max_new_tokens: int = 32
    strategy: str = "greedy"
    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0
    stop_ids: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("greedy", "sample"):
            raise GenerationError(f"unknown strategy {self.strategy!r}")
        if self.max_new_tokens <= 0:
            raise GenerationError("max_new_tokens must be positive")
        if self.temperature <= 0:
            raise GenerationError("temperature must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise GenerationError("top_p must be in (0, 1]")
        if self.top_k < 0:
            raise GenerationError("top_k must be >= 0")


def generate(
    model: GPTModel,
    prompt_ids: Sequence[int],
    config: Optional[GenerationConfig] = None,
    constraint: Optional[TokenConstraint] = None,
    use_cache: bool = True,
) -> List[int]:
    """Generate token ids continuing ``prompt_ids``.

    Returns only the newly generated ids (without the prompt). The
    context window slides if the sequence would exceed the model's
    ``max_seq_len``.

    ``use_cache=True`` (the default) reuses per-layer key/value caches
    (the standard incremental-decoding optimization): one cache row
    sized for the prompt plus ``max_new_tokens`` is primed with one
    chunked causal forward, and each step then costs O(context)
    attention instead of a full O(context^2) re-encode, producing the
    same token sequences. The cached path requires the whole sequence
    to fit the context window; otherwise it falls back to the
    sliding-window re-encode automatically. ``use_cache=False`` always
    re-encodes; tests use it as the full-recompute reference for this
    single-row loop and for the batched engine of :mod:`repro.serving`.
    """
    config = config or GenerationConfig()
    if not prompt_ids:
        raise GenerationError("prompt must contain at least one token")
    fits = len(prompt_ids) + config.max_new_tokens <= model.config.max_seq_len
    if use_cache and fits:
        return _generate_cached(model, prompt_ids, config, constraint)
    return _generate_recompute(model, prompt_ids, config, constraint)


def _generate_recompute(
    model: GPTModel,
    prompt_ids: Sequence[int],
    config: GenerationConfig,
    constraint: Optional[TokenConstraint],
) -> List[int]:
    rng = SeededRNG(config.seed)
    ids = list(prompt_ids)
    generated: List[int] = []

    for _ in range(config.max_new_tokens):
        window = ids[-model.config.max_seq_len:]
        with no_grad():
            logits = model(np.array([window], dtype=np.int64))
        next_logits = logits.data[0, -1].copy()
        next_id = _next_token(next_logits, generated, config, constraint, rng)
        if next_id is None or next_id in config.stop_ids:
            break
        generated.append(next_id)
        ids.append(next_id)
    return generated


def _generate_cached(
    model: GPTModel,
    prompt_ids: Sequence[int],
    config: GenerationConfig,
    constraint: Optional[TokenConstraint],
) -> List[int]:
    rng = SeededRNG(config.seed)
    length = len(prompt_ids)
    # One cache row holding the prompt and every new token; the caller
    # checked that this fits the context window.
    caches = model.init_cache(1, length + config.max_new_tokens)
    generated: List[int] = []

    # Chunked causal prefill: one forward over the whole prompt with
    # an in-chunk causal mask, instead of priming one token at a time.
    logits = model.forward_chunk(
        np.array([prompt_ids], dtype=np.int64),
        np.arange(length)[None, :],
        caches,
        blocked=causal_mask(length)[None, None, :, :],
        write_cols=slice(0, length),
        kv_len=length,
    )
    next_logits = logits[0, -1].copy()

    for position in range(length, length + config.max_new_tokens):
        next_id = _next_token(next_logits, generated, config, constraint, rng)
        if next_id is None or next_id in config.stop_ids:
            break
        generated.append(next_id)
        if len(generated) == config.max_new_tokens:
            break  # nothing reads the logits of a last step
        logits = model.forward_chunk(
            np.array([[next_id]], dtype=np.int64),
            np.array([[position]]),
            caches,
            write_cols=slice(position, position + 1),
            kv_len=position + 1,
        )
        next_logits = logits[0, -1].copy()
    return generated


def _next_token(
    next_logits: np.ndarray,
    generated: List[int],
    config: GenerationConfig,
    constraint: Optional[TokenConstraint],
    rng: SeededRNG,
) -> Optional[int]:
    """Apply the constraint mask and pick the next id (None = abort)."""
    if constraint is not None:
        allowed = constraint.allowed_tokens(generated)
        if allowed is not None:
            if len(allowed) == 0:
                return None
            mask = np.full_like(next_logits, -np.inf)
            allowed_arr = np.asarray(list(allowed), dtype=np.int64)
            mask[allowed_arr] = 0.0
            next_logits = next_logits + mask
    return _pick_token(next_logits, config, rng)


#: absolute slack when comparing a probability cumsum against top_p —
#: far above float64 accumulation error over any realistic vocab
#: (~1e-13 worst case), far below any meaningful top_p difference.
_TOP_P_TOLERANCE = 1e-9


def _pick_token(logits: np.ndarray, config: GenerationConfig, rng: SeededRNG) -> int:
    """Select one token id from a logit vector per the configured strategy."""
    if config.strategy == "greedy":
        return int(np.argmax(logits))

    scaled = logits / config.temperature
    if 0 < config.top_k < scaled.size:
        # Keep exactly k tokens. A cutoff comparison (scaled < cutoff)
        # would keep *every* token tied at the cutoff value, letting more
        # than k survive; a stable sort instead breaks score ties
        # deterministically in favour of the lowest token id.
        keep = np.argsort(-scaled, kind="stable")[: config.top_k]
        filtered = np.full_like(scaled, -np.inf)
        filtered[keep] = scaled[keep]
        scaled = filtered
    probs = _stable_softmax(scaled)
    if config.top_p < 1.0:
        order = np.argsort(-probs)
        cumulative = np.cumsum(probs[order])
        # Boundary rule: the nucleus is the smallest prefix whose
        # cumulative probability reaches top_p, where "reaches" is
        # judged with a tolerance — a cumsum that lands within
        # _TOP_P_TOLERANCE below top_p (pure float accumulation error,
        # e.g. 0.3+0.3+0.3 == 0.8999999999999999) counts as having
        # reached it. Without the clamp the keep-count flips by one
        # token depending on rounding direction, changing sampled
        # output across platforms.
        keep_count = int(
            np.searchsorted(cumulative, config.top_p - _TOP_P_TOLERANCE) + 1
        )
        keep = order[:keep_count]
        filtered = np.zeros_like(probs)
        filtered[keep] = probs[keep]
        probs = filtered / filtered.sum()
    return int(rng.generator.choice(len(probs), p=probs))


def _stable_softmax(x: np.ndarray) -> np.ndarray:
    finite_max = np.max(x[np.isfinite(x)]) if np.isfinite(x).any() else 0.0
    exp = np.exp(np.clip(x - finite_max, -700, 0))
    exp[~np.isfinite(x)] = 0.0
    total = exp.sum()
    if total <= 0:
        raise GenerationError("all tokens were filtered out during sampling")
    return exp / total


def generate_text(
    model: GPTModel,
    tokenizer: Tokenizer,
    prompt: str,
    config: Optional[GenerationConfig] = None,
) -> str:
    """Convenience wrapper: text in, text out, stopping at ``[EOS]``.

    Decodes with the KV cache (sequences that do not fit the context
    window fall back to the sliding-window re-encode).
    """
    config = config or GenerationConfig()
    if not config.stop_ids:
        config = GenerationConfig(
            max_new_tokens=config.max_new_tokens,
            strategy=config.strategy,
            temperature=config.temperature,
            top_k=config.top_k,
            top_p=config.top_p,
            stop_ids=(tokenizer.vocab.eos_id,),
            seed=config.seed,
        )
    prompt_ids = tokenizer.encode(prompt, add_bos=True).ids
    out_ids = generate(model, prompt_ids, config)
    return tokenizer.decode(out_ids)
