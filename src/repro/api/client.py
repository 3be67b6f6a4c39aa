"""An OpenAI-style completion client over a :class:`ModelHub`.

Demonstrates the remote-API access channel from Section 2.4: engines are
addressed by name, requests carry decoding parameters, and responses
return structured choices plus token-usage accounting — the interface
shape of ``openai.Completion.create``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.generation import GenerationConfig
from repro.generation.decoding import TokenConstraint
from repro.models import GPTModel
from repro.api.hub import ModelHub
from repro.nn import QuantizationReport, quantize_model
from repro.reliability.clock import Clock, SystemClock
from repro.serving import BatchRequest, BatchScheduler, PrefixCache, SemanticCache


@dataclass(frozen=True)
class Usage:
    """Token accounting for one request."""

    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class EngineStats:
    """Cumulative serving counters for one engine.

    The single counter surface for reliability metrics and batching:
    everything a client served is attributed to the engine that did the
    work. ``prompt_tokens`` bills the full prompt regardless of caching;
    ``prefix_hits``/``prefix_reused_tokens`` record how much of that
    billed prefill was actually served from the engine's prefix cache.
    ``queue_wait_seconds`` accumulates each batched request's
    admission→dispatch wait on the client's clock — the term that lets
    end-to-end latency be split into waiting vs decoding.

    The ``cache_*`` counters cover the semantic completion cache: a
    cache hit never reaches the engine, so it is *not* billed as a
    request or as prompt/completion tokens — instead the prefill and
    decode tokens it would have cost are recorded as skipped.
    """

    requests: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    prefix_hits: int = 0
    prefix_reused_tokens: int = 0
    batch_refills: int = 0
    draft_tokens: int = 0
    draft_accepted_tokens: int = 0
    verify_forwards: int = 0
    queue_wait_seconds: float = 0.0
    cache_lookups: int = 0
    cache_exact_hits: int = 0
    cache_similarity_hits: int = 0
    cache_skipped_prompt_tokens: int = 0
    cache_skipped_completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def cache_hits(self) -> int:
        """Completions served from the semantic cache (no engine work)."""
        return self.cache_exact_hits + self.cache_similarity_hits

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    @property
    def cache_skipped_tokens(self) -> int:
        """Prefill + decode tokens the semantic cache saved this engine."""
        return (
            self.cache_skipped_prompt_tokens
            + self.cache_skipped_completion_tokens
        )

    @property
    def acceptance_rate(self) -> float:
        """Fraction of draft-proposed tokens the target model accepted."""
        if self.draft_tokens == 0:
            return 0.0
        return self.draft_accepted_tokens / self.draft_tokens


@dataclass(frozen=True)
class CompletionChoice:
    """One completion alternative."""

    text: str
    index: int
    finish_reason: str


@dataclass(frozen=True)
class CompletionResponse:
    """The full response of a completion request."""

    engine: str
    choices: List[CompletionChoice]
    usage: Usage

    @property
    def text(self) -> str:
        """The text of the first choice (the common access path)."""
        return self.choices[0].text


def _request_config(
    tokenizer, max_tokens: int, temperature: float, top_p: float, seed: int
) -> GenerationConfig:
    """Decoding config for one request (OpenAI temperature conventions)."""
    return GenerationConfig(
        max_new_tokens=max_tokens,
        strategy="greedy" if temperature == 0.0 else "sample",
        temperature=max(temperature, 1e-6) if temperature else 1.0,
        top_p=top_p,
        stop_ids=(tokenizer.vocab.eos_id,),
        seed=seed,
    )


def _finish_choice(
    tokenizer,
    out_ids: Sequence[int],
    index: int,
    stop: Sequence[str],
    max_tokens: int,
):
    """Decode, stop-truncate and bill one choice: (choice, billed tokens)."""
    text = tokenizer.decode(list(out_ids))
    truncated = False
    for stop_string in stop:
        cut = text.find(stop_string)
        if cut >= 0:
            text = text[:cut]
            truncated = True
    text = text.strip()
    if truncated:
        # Usage must bill the *returned* text, not the tokens
        # generated past the stop string.
        choice_tokens = len(tokenizer.encode(text).ids) if text else 0
        finish_reason = "stop"
    else:
        choice_tokens = len(out_ids)
        finish_reason = "length" if len(out_ids) >= max_tokens else "stop"
    return (
        CompletionChoice(text=text, index=index, finish_reason=finish_reason),
        choice_tokens,
    )


#: default per-engine prefix-cache byte budget
DEFAULT_PREFIX_CACHE_BYTES = 32 * 1024 * 1024


class CompletionClient:
    """Issue completion requests against named engines in a hub.

    :meth:`complete` is a one-prompt :meth:`complete_batch`: every
    request runs through the same scheduler, decode loop and billing
    path. Each engine gets a persistent :class:`~repro.serving.PrefixCache`
    (``prefix_cache_bytes`` budget; ``0`` disables) that survives across
    calls, so a few-shot sweep only prefills its shared header once for
    the whole session, whether it arrives in one batch or one prompt at
    a time. The cache is invalidated automatically when the hub
    re-registers the engine with a different model.

    Serving accelerations are opt-in constructor flags — all default
    off, keeping the plain path bit-identical to previous releases:

    * ``int8_weights`` serves each engine through an int8
      weight-quantized copy (:func:`repro.nn.quantize_model`;
      per-engine :meth:`quantization_report` gives the weight error).
    * ``speculative_draft`` names another hub engine to use as a
      speculative-decoding draft model for greedy requests, under
      continuous and barriered batching alike; outputs stay
      token-identical while each target forward advances up to
      ``speculative_k + 1`` tokens.
    * ``semantic_cache_bytes`` enables the
      :class:`~repro.serving.SemanticCache`: repeated requests — same
      engine, prompt, and decode parameters — return their cached
      :class:`CompletionResponse` without any prefill *or* decode.
      Exact hits are byte-identical to re-decoding (generation is
      seeded-deterministic); near-duplicate hits change outputs, so
      they only run when a call passes ``allow_similar=True``. Cached
      entries are invalidated per engine on model identity, like the
      prefix cache. Constrained requests are never cached.

    The transformed serving copies (and their prefix caches) are cached
    per engine and rebuilt whenever the hub re-registers the model.
    """

    def __init__(
        self,
        hub: ModelHub,
        prefix_cache_bytes: int = DEFAULT_PREFIX_CACHE_BYTES,
        clock: Optional[Clock] = None,
        int8_weights: bool = False,
        speculative_draft: Optional[str] = None,
        speculative_k: int = 4,
        semantic_cache_bytes: int = 0,
        semantic_cache: Optional[SemanticCache] = None,
    ) -> None:
        self.hub = hub
        self.prefix_cache_bytes = prefix_cache_bytes
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.int8_weights = int8_weights
        self.speculative_draft = speculative_draft
        self.speculative_k = speculative_k
        if semantic_cache is not None:
            self.semantic_cache: Optional[SemanticCache] = semantic_cache
        elif semantic_cache_bytes > 0:
            self.semantic_cache = SemanticCache(max_bytes=semantic_cache_bytes)
        else:
            self.semantic_cache = None
        self._stats: Dict[str, EngineStats] = {}
        self._prefix_caches: Dict[str, Tuple[object, PrefixCache]] = {}
        #: engine -> hub model the semantic cache's entries were decoded by
        self._semcache_models: Dict[str, object] = {}
        # engine -> (hub model, serving copy, quantization report)
        self._serving_models: Dict[
            str, Tuple[object, object, Optional[QuantizationReport]]
        ] = {}

    def _serving_model(self, engine: str):
        """The model actually served for ``engine`` (transforms applied).

        Without ``int8_weights`` this is the hub's model object itself —
        no copy, bit-identical behavior. Otherwise a cached per-engine
        int8 copy, rebuilt whenever the hub re-registers the engine.
        """
        entry = self.hub.get(engine)
        model = entry.model
        if not isinstance(model, GPTModel) or not self.int8_weights:
            return model
        stored = self._serving_models.get(engine)
        if stored is None or stored[0] is not model:
            serving, report = quantize_model(model)
            stored = (model, serving, report)
            self._serving_models[engine] = stored
        return stored[1]

    def quantization_report(self, engine: str) -> Optional[QuantizationReport]:
        """Weight-error report for the engine's int8 serving copy.

        ``None`` unless the client was built with ``int8_weights=True``.
        """
        if not self.int8_weights:
            return None
        self._serving_model(engine)
        stored = self._serving_models.get(engine)
        return stored[2] if stored else None

    def _draft_model(self) -> Optional[GPTModel]:
        """The speculative draft engine's serving model (None if unset)."""
        if self.speculative_draft is None:
            return None
        draft = self._serving_model(self.speculative_draft)
        if not isinstance(draft, GPTModel):
            raise ModelError(
                f"speculative draft engine {self.speculative_draft!r} "
                "is not a causal (completion) model"
            )
        return draft

    def prefix_cache(self, engine: str) -> Optional[PrefixCache]:
        """The engine's prompt-prefix K/V cache (None when disabled).

        Cached K/V states are only valid for the exact model weights
        that produced them, so the cache is dropped whenever the hub
        entry's model changes — including when an acceleration flag
        swaps the serving copy (int8 K/V differ from float K/V).
        """
        if self.prefix_cache_bytes <= 0:
            return None
        model = self._serving_model(engine)
        stored = self._prefix_caches.get(engine)
        if stored is None or stored[0] is not model:
            stored = (model, PrefixCache(max_bytes=self.prefix_cache_bytes))
            self._prefix_caches[engine] = stored
        return stored[1]

    def _completion_cache(self, engine: str) -> Optional[SemanticCache]:
        """The semantic cache, with ``engine``'s entries identity-checked.

        Cached completions are only valid for the exact model that
        decoded them, so the engine's group is flushed whenever the hub
        re-registers it with a different model — the same invalidation
        rule as :meth:`prefix_cache`.
        """
        cache = self.semantic_cache
        if cache is None:
            return None
        model = self.hub.get(engine).model
        if self._semcache_models.get(engine) is not model:
            if engine in self._semcache_models:
                cache.invalidate(engine)
            self._semcache_models[engine] = model
        return cache

    @staticmethod
    def _cache_key(
        engine: str,
        prompt: str,
        max_tokens: int,
        temperature: float,
        top_p: float,
        n: int,
        stop: Sequence[str],
        seed: int,
    ) -> Tuple:
        """Exact-match key: everything that determines the response."""
        return (engine, prompt, max_tokens, temperature, top_p, n, tuple(stop), seed)

    def _record_cache_hit(self, engine: str, hit) -> CompletionResponse:
        stats = self.engine_stats(engine)
        if hit.kind == "exact":
            stats.cache_exact_hits += 1
        else:
            stats.cache_similarity_hits += 1
        stats.cache_skipped_prompt_tokens += hit.prompt_tokens
        stats.cache_skipped_completion_tokens += hit.completion_tokens
        return hit.value

    def _cache_insert(
        self, cache: SemanticCache, key: Tuple, engine: str, prompt: str,
        response: CompletionResponse,
    ) -> None:
        cache.insert(
            key,
            response,
            group=engine,
            text=prompt,
            prompt_tokens=response.usage.prompt_tokens,
            completion_tokens=response.usage.completion_tokens,
        )

    def complete(
        self,
        engine: str,
        prompt: str,
        max_tokens: int = 32,
        temperature: float = 0.0,
        top_p: float = 1.0,
        n: int = 1,
        stop: Sequence[str] = (),
        seed: int = 0,
        constraint: Optional[TokenConstraint] = None,
        allow_similar: bool = False,
    ) -> CompletionResponse:
        """Complete ``prompt`` with the named engine.

        ``temperature == 0`` selects greedy decoding (the OpenAI
        convention); positive temperatures sample. ``stop`` strings
        truncate each returned text at the first occurrence. With a
        semantic cache enabled, an exact repeat returns its cached
        response without touching the engine; ``allow_similar=True``
        additionally accepts a near-duplicate prompt's completion.
        This is :meth:`complete_batch` with one prompt, so it shares
        the engine's prefix cache and billing.
        """
        (response,) = self.complete_batch(
            engine,
            [prompt],
            max_tokens=max_tokens,
            temperature=temperature,
            top_p=top_p,
            n=n,
            stop=stop,
            seed=seed,
            constraints=[constraint],
            allow_similar=allow_similar,
        )
        return response

    def complete_batch(
        self,
        engine: str,
        prompts: Sequence[str],
        max_tokens: int = 32,
        temperature: float = 0.0,
        top_p: float = 1.0,
        n: int = 1,
        stop: Sequence[str] = (),
        seed: int = 0,
        constraints: Optional[Sequence[Optional[TokenConstraint]]] = None,
        max_batch_size: int = 8,
        prefill_chunk: Optional[int] = None,
        prefix_caching: bool = True,
        continuous: bool = True,
        allow_similar: bool = False,
    ) -> List[CompletionResponse]:
        """Complete many prompts in one serving pass; one response per prompt.

        Decoding matches per-prompt :func:`repro.generation.generate` —
        greedy at ``temperature == 0``, choice ``j`` samples with
        ``seed + j`` — but prompts share vectorized model forwards (and
        a request's ``n`` choices share one prompt prefill), so
        throughput scales with the batch instead of the per-request
        latency. By default
        the engine's persistent prefix cache skips re-prefilling shared
        prompt headers (``prefix_caching=False`` opts out) and the
        scheduler runs retire-and-admit continuous batching
        (``continuous=False`` restores barriered microbatches); both
        are token-identical to the defaults-off path. Engine usage is
        attributed exactly as if each prompt were a request of its own.
        ``constraints`` optionally carries one per-prompt decoding
        constraint, aligned with ``prompts``.

        With a semantic cache enabled, cached prompts (and exact
        duplicates *within* the batch) skip the engine entirely; only
        the remaining misses are scheduled. ``allow_similar=True``
        additionally serves near-duplicate prompts from the cache.
        """
        entry = self.hub.get(engine)
        if not isinstance(entry.model, GPTModel):
            raise ModelError(f"engine {engine!r} is not a causal (completion) model")
        model = self._serving_model(engine)
        tokenizer = entry.tokenizer
        if n <= 0:
            raise ModelError("n must be positive")
        if constraints is not None and len(constraints) != len(prompts):
            raise ModelError("constraints must align one-to-one with prompts")
        if not prompts:
            return []
        cache = self._completion_cache(engine)
        served: Dict[int, CompletionResponse] = {}
        keys: List[Optional[Tuple]] = [None] * len(prompts)
        duplicate_of: Dict[int, int] = {}
        to_run = list(range(len(prompts)))
        if cache is not None:
            to_run = []
            leaders: Dict[Tuple, int] = {}
            stats = self.engine_stats(engine)
            for i, prompt in enumerate(prompts):
                constraint = constraints[i] if constraints is not None else None
                if constraint is not None:
                    to_run.append(i)
                    continue
                key = self._cache_key(
                    engine, prompt, max_tokens, temperature, top_p, n, stop, seed
                )
                keys[i] = key
                stats.cache_lookups += 1
                hit = cache.lookup(
                    key, group=engine, text=prompt, allow_similar=allow_similar
                )
                if hit is not None:
                    served[i] = self._record_cache_hit(engine, hit)
                elif key in leaders:
                    # An exact duplicate earlier in this same batch will
                    # decode it; serve this copy from that result.
                    duplicate_of[i] = leaders[key]
                else:
                    leaders[key] = i
                    to_run.append(i)
            if not to_run:
                return [served[i] for i in range(len(prompts))]
        draft = self._draft_model()

        scheduler = BatchScheduler(
            model,
            max_batch_size=max_batch_size,
            prefill_chunk=prefill_chunk,
            prefix_cache=self.prefix_cache(engine) if prefix_caching else None,
            continuous=continuous,
            clock=self.clock,
            draft_model=draft,
            speculative_k=self.speculative_k,
            draft_prefix_cache=(
                self.prefix_cache(self.speculative_draft)
                if draft is not None and prefix_caching
                else None
            ),
        )
        config = _request_config(tokenizer, max_tokens, temperature, top_p, seed)
        tickets = []
        encoded = []
        for i in to_run:
            prompt_ids = tokenizer.encode(prompts[i], add_bos=True).ids
            encoded.append(prompt_ids)
            constraint = constraints[i] if constraints is not None else None
            tickets.append(
                scheduler.submit(
                    BatchRequest(prompt_ids, config, constraint=constraint, n=n)
                )
            )
        results = scheduler.run()

        stats = self.engine_stats(engine)
        # The scheduler is fresh per call, so its counters are this
        # call's deltas.
        stats.prefix_hits += scheduler.stats.prefix_hits
        stats.prefix_reused_tokens += scheduler.stats.prefix_reused_tokens
        stats.batch_refills += scheduler.stats.refills
        stats.draft_tokens += scheduler.stats.draft_tokens
        stats.draft_accepted_tokens += scheduler.stats.draft_accepted_tokens
        stats.verify_forwards += scheduler.stats.verify_forwards
        stats.queue_wait_seconds += scheduler.stats.queue_wait_total
        for i, prompt_ids, ticket in zip(to_run, encoded, tickets):
            choices: List[CompletionChoice] = []
            completion_tokens = 0
            for index, out_ids in enumerate(results[ticket].sequences):
                choice, choice_tokens = _finish_choice(
                    tokenizer, out_ids, index, stop, max_tokens
                )
                completion_tokens += choice_tokens
                choices.append(choice)
            stats.requests += 1
            stats.prompt_tokens += len(prompt_ids)
            stats.completion_tokens += completion_tokens
            response = CompletionResponse(
                engine=engine,
                choices=choices,
                usage=Usage(
                    prompt_tokens=len(prompt_ids),
                    completion_tokens=completion_tokens,
                ),
            )
            served[i] = response
            if cache is not None and keys[i] is not None:
                self._cache_insert(cache, keys[i], engine, prompts[i], response)
        for i, leader in duplicate_of.items():
            # Identical request, identical (deterministic) response; it
            # skipped decode, which is what the cache counters record.
            response = served[leader]
            stats.cache_exact_hits += 1
            stats.cache_skipped_prompt_tokens += response.usage.prompt_tokens
            stats.cache_skipped_completion_tokens += response.usage.completion_tokens
            served[i] = response
        return [served[i] for i in range(len(prompts))]

    def engine_stats(self, engine: str) -> EngineStats:
        """Cumulative counters for one engine (created on first use)."""
        if engine not in self._stats:
            self._stats[engine] = EngineStats()
        return self._stats[engine]

    @property
    def stats(self) -> Dict[str, EngineStats]:
        """Per-engine serving counters."""
        return self._stats

    @property
    def requests_served(self) -> int:
        """Total requests across all engines (legacy counter)."""
        return sum(s.requests for s in self._stats.values())
