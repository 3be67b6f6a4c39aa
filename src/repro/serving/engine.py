"""Vectorized batched decoding over the numpy Transformer: one decode loop.

One :class:`BatchedGenerator` serves every batched request through a
single retire-and-admit loop. Admitting requests runs one *causal
prefill* forward per admission wave (every prompt at once, with an
in-chunk causal mask, instead of priming the cache one token at a time)
and splices the new rows into the active batch; each step then advances
every active sequence with one model forward. Ragged prompt lengths are
handled with padding-aware slotted KV caches — each row's keys occupy
columns ``0..len-1`` of a preallocated slab and a per-row mask blocks
everything beyond — so sequences of different lengths share the same
batch without influencing each other.

Requests with ``n > 1`` choices prefill the prompt **once** and fork the
cache afterwards (the choices share the prompt's K/V), which is what
makes multi-sample recipes — CodexDB's candidate programs, GPT-3-style
self-consistency — cheap. Finished sequences retire from the batch
immediately (their rows are compacted away), and
:meth:`BatchedGenerator.generate_continuous` refills their slots from
the queue at once (**continuous batching**), so the batch stays full
instead of draining to the slowest request.
:meth:`BatchedGenerator.generate` is the same loop with every request
admitted at once.

A :class:`~repro.serving.prefix.PrefixCache` per model lets prompts that
share a prefix (the few-shot header of a text2sql sweep, an imputation
shot block) skip re-prefilling it — the engine preloads the cached K/V
columns, prefills only the suffix, and stores each new prompt's states
back for later requests. When several admitted prompts share a prefix
that is not cached yet, the engine prefills that header *once* (one
single-row forward) so every row reuses it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GenerationError
from repro.generation.decoding import (
    GenerationConfig,
    TokenConstraint,
    _next_token,
    generate,
)
from repro.models.gpt import GPTModel
from repro.nn.attention import chunk_causal_mask
from repro.serving.prefix import PrefixCache, common_prefix_length
from repro.utils.rng import SeededRNG

#: per-decode-iteration hook: ``on_step(active, queued)`` receives the
#: request indexes currently decoding and those still queued; returning
#: indexes cancels them mid-stream, raising aborts the whole run.
StepHook = Callable[[List[int], List[int]], Optional[Iterable[int]]]


@dataclass
class BatchRequest:
    """One queued generation request (``n`` choices share one prefill)."""

    prompt_ids: Sequence[int]
    config: GenerationConfig = field(default_factory=GenerationConfig)
    constraint: Optional[TokenConstraint] = None
    n: int = 1

    def __post_init__(self) -> None:
        if not self.prompt_ids:
            raise GenerationError("prompt must contain at least one token")
        if self.n <= 0:
            raise GenerationError("n must be positive")


@dataclass
class BatchResult:
    """Generated ids for one request: one sequence per choice.

    ``batched`` is False when the request did not fit the context window
    and was served by the sequential sliding-window fallback instead.
    ``cancelled`` is True when the request was retired mid-stream by an
    ``on_step`` hook (client disconnect, deadline expiry); its partial
    tokens are discarded and ``sequences`` is empty.
    """

    sequences: List[List[int]]
    batched: bool = True
    cancelled: bool = False


@dataclass
class GeneratorStats:
    """Forward-pass accounting for one :class:`BatchedGenerator`.

    ``prefill_tokens`` counts prompt tokens actually pushed through the
    model; tokens served from the prefix cache instead are counted by
    the cache (``PrefixCacheStats.reused_tokens``). ``refills`` counts
    requests admitted into freed slots mid-decode (continuous
    batching); ``peak_active`` is the widest decode batch observed.
    ``decode_steps`` counts decode forwards, each advancing every active
    sequence by one token.
    """

    prefill_chunks: int = 0
    prefill_tokens: int = 0
    decode_steps: int = 0
    generated_tokens: int = 0
    sequential_fallbacks: int = 0
    refills: int = 0
    peak_active: int = 0
    cancelled_sequences: int = 0
    cancelled_tokens: int = 0


@dataclass
class _ChoiceState:
    """Decode-time state of one active sequence (request choice)."""

    request_index: int
    choice_index: int
    config: GenerationConfig
    constraint: Optional[TokenConstraint]
    rng: SeededRNG
    generated: List[int] = field(default_factory=list)


class _Batch:
    """The active rows of the decode loop and the arrays aligned with them.

    Between steps, row ``r``'s cache holds its first ``lengths[r]``
    tokens and ``logits[r]`` is the next-token distribution after them.
    """

    def __init__(
        self,
        states: List[_ChoiceState],
        caches: list,
        lengths: np.ndarray,
        logits: np.ndarray,
    ) -> None:
        self.states = states
        self.caches = caches
        self.lengths = lengths
        self.logits = logits

    def select(self, keep: np.ndarray) -> None:
        """Drop the rows whose ``keep`` entry is False."""
        self.states = [s for s, k in zip(self.states, keep) if k]
        self.lengths = self.lengths[keep]
        self.logits = self.logits[keep]
        for cache in self.caches:
            cache["k"] = cache["k"][keep]
            cache["v"] = cache["v"][keep]

    def extend(self, wave: "_Batch") -> "_Batch":
        """Append a freshly admitted wave's rows."""
        for cache, addition in zip(self.caches, wave.caches):
            # Row-axis splice, once per admission wave (amortized over
            # the wave's whole decode, not per token).
            cache["k"] = np.concatenate(  # repro: noqa[concat-in-loop]
                [cache["k"], addition["k"]], axis=0
            )
            cache["v"] = np.concatenate(  # repro: noqa[concat-in-loop]
                [cache["v"], addition["v"]], axis=0
            )
        self.states = self.states + wave.states
        self.lengths = np.concatenate([self.lengths, wave.lengths])
        self.logits = np.concatenate([self.logits, wave.logits])
        return self


class BatchedGenerator:
    """Decode many sequences per model forward (inference only).

    Each admission wave is prefilled in one forward. With a
    ``prefix_cache``, prompt prefixes already seen by the cache are
    loaded instead of recomputed and every prefilled prompt is stored
    back. Greedy decoding produces the same token sequences as per-prompt
    :func:`repro.generation.generate` — with or without the prefix
    cache — and sampling draws from per-sequence seeded RNGs exactly as
    the sequential path does (choice ``j`` of a request samples with
    ``config.seed + j``).

    Shared state: ``stats`` (and the prefix caches, when attached) are
    plain mutable attributes updated on every generate call with no
    synchronization — safe only while one caller drives the generator
    at a time. ``python -m repro.analysis.lint --shared-state
    src/repro/serving`` inventories these sites; the
    ``shared-state-mutation`` lint rule gates any future ``async``
    request path over this class.
    """

    def __init__(
        self,
        model: GPTModel,
        prefix_cache: Optional[PrefixCache] = None,
    ) -> None:
        self.model = model
        self.prefix_cache = prefix_cache
        self.stats = GeneratorStats()

    def generate(self, requests: Sequence[BatchRequest]) -> List[BatchResult]:
        """Serve ``requests`` in one batch; order follows the input.

        The continuous loop of :meth:`generate_continuous` with every
        request admitted at once.
        """
        return self.generate_continuous(
            requests, max_active=max(1, sum(r.n for r in requests))
        )

    def generate_continuous(
        self,
        requests: Sequence[BatchRequest],
        max_active: int = 8,
        on_step: Optional[StepHook] = None,
        on_admit: Optional[Callable[[int], None]] = None,
    ) -> List[BatchResult]:
        """Serve ``requests`` with retire-and-admit continuous batching.

        At most ``max_active`` sequences decode together; whenever one
        finishes, its slot is refilled from the queue *immediately*
        (prefilling the newcomer mid-decode) instead of waiting for the
        whole microbatch to drain. Output order follows the input and
        every sequence is token-identical to :meth:`generate`.

        ``on_step(active, queued)`` — if given — is called once per
        decode-loop iteration with the request indexes currently
        decoding and those still queued; any index it returns is
        *cancelled mid-stream*: its partial tokens are discarded, its
        result comes back ``cancelled=True``, and its slots are freed
        for queued work without disturbing the other rows (their KV
        columns, lengths, and logits are pruned with the same keep-mask
        path that retires finished sequences). Exceptions raised by the
        hook abort the whole run — that is how a replica "dies"
        mid-decode under fault injection. ``on_admit(index)`` fires when
        a request leaves the queue and enters the active batch, so
        schedulers can record queue-wait time per request.
        """
        if max_active <= 0:
            raise GenerationError("max_active must be positive")
        results: List[Optional[BatchResult]] = [None] * len(requests)
        pending: List[Tuple[int, BatchRequest]] = []
        for i, request in enumerate(requests):
            if self._fits(request):
                pending.append((i, request))
            else:
                results[i] = self._sequential_fallback(request)
        if pending:
            capacity = int(
                max(
                    len(r.prompt_ids) + r.config.max_new_tokens
                    for _, r in pending
                )
            )
            self._run_continuous(
                pending, capacity, max_active, results, on_step, on_admit
            )
        return [r for r in results if r is not None]

    def _fits(self, request: BatchRequest) -> bool:
        max_len = self.model.config.max_seq_len
        return len(request.prompt_ids) + request.config.max_new_tokens <= max_len

    def _sequential_fallback(self, request: BatchRequest) -> BatchResult:
        """Serve one non-fitting request with sliding-window decoding."""
        self.stats.sequential_fallbacks += 1
        sequences = [
            generate(
                self.model,
                request.prompt_ids,
                _choice_config(request.config, choice),
                request.constraint,
            )
            for choice in range(request.n)
        ]
        return BatchResult(sequences=sequences, batched=False)

    # -- the decode loop ---------------------------------------------------
    def _run_continuous(
        self,
        pending: List[Tuple[int, BatchRequest]],
        capacity: int,
        max_active: int,
        results: List[Optional[BatchResult]],
        on_step: Optional[StepHook] = None,
        on_admit: Optional[Callable[[int], None]] = None,
    ) -> None:
        queue = list(pending)
        batch = _Batch([], [], np.zeros(0, dtype=np.int64), np.zeros((0, 0)))
        admitted_any = False

        while queue or batch.states:
            if on_step is not None:
                cancelled = self._apply_cancellations(
                    on_step, queue, batch.states, results
                )
                if cancelled and batch.states:
                    keep = np.array(
                        [s.request_index not in cancelled for s in batch.states],
                        dtype=bool,
                    )
                    if not keep.all():
                        batch.select(keep)
                if not (queue or batch.states):
                    break
            wave = self._take_admissions(queue, batch.states, max_active)
            if wave:
                if admitted_any:
                    self.stats.refills += len(wave)
                admitted_any = True
                if on_admit is not None:
                    for index, _ in wave:
                        on_admit(index)
                fresh = self._admit(wave, capacity, results)
                batch = batch.extend(fresh) if batch.states else fresh
            if not batch.states:
                continue
            self.stats.peak_active = max(self.stats.peak_active, len(batch.states))
            keep = self._advance(batch, results)
            if not keep.all():
                batch.select(keep)
            if batch.states:  # else freed slots may admit queued work next turn
                self._decode_step(batch)

        for result in results:
            if result is not None and result.batched:
                result.sequences.sort(key=lambda pair: pair[0])
                result.sequences[:] = [seq for _, seq in result.sequences]

    def _apply_cancellations(
        self,
        on_step: StepHook,
        queue: List[Tuple[int, BatchRequest]],
        states: List[_ChoiceState],
        results: List[Optional[BatchResult]],
    ) -> set:
        """Ask the hook who to cancel; retire them from queue and batch.

        Returns the cancelled request indexes (already restricted to
        live requests — cancelling a finished or unknown index is a
        no-op, so a racing gateway can never clobber a delivered
        result). The caller prunes the KV rows of cancelled *active*
        states with the ordinary keep-mask path.
        """
        active = sorted({s.request_index for s in states})
        queued = [index for index, _ in queue]
        requested = on_step(active, queued)
        cancel = set(requested) if requested else set()
        cancel &= set(active) | set(queued)
        if not cancel:
            return set()
        kept: List[Tuple[int, BatchRequest]] = []
        for index, request in queue:
            if index in cancel:
                self.stats.cancelled_sequences += request.n
                results[index] = BatchResult(sequences=[], cancelled=True)
            else:
                kept.append((index, request))
        queue[:] = kept
        for state in states:
            if state.request_index in cancel:
                self.stats.cancelled_sequences += 1
                self.stats.cancelled_tokens += len(state.generated)
                results[state.request_index] = BatchResult(
                    sequences=[], cancelled=True
                )
        return cancel

    @staticmethod
    def _take_admissions(
        queue: List[Tuple[int, BatchRequest]],
        states: List[_ChoiceState],
        max_active: int,
    ) -> List[Tuple[int, BatchRequest]]:
        """Pop the FIFO prefix of the queue that fits the free slots.

        A request wider than ``max_active`` still runs — alone, when the
        batch is empty — so oversized requests degrade throughput
        rather than deadlock the queue.
        """
        batch: List[Tuple[int, BatchRequest]] = []
        occupancy = len(states)
        while queue:
            _, request = queue[0]
            if (batch or states) and occupancy + request.n > max_active:
                break
            batch.append(queue.pop(0))
            occupancy += request.n
        return batch

    def _admit(
        self,
        wave: List[Tuple[int, BatchRequest]],
        capacity: int,
        results: List[Optional[BatchResult]],
    ) -> _Batch:
        """Prefill newly admitted requests into a batch of their own rows."""
        requests = [request for _, request in wave]
        prompt_lengths = np.array([len(r.prompt_ids) for r in requests])
        caches = self.model.init_cache(batch_size=len(requests), capacity=capacity)
        self._seed_shared_prefix(requests)
        logits = self._prefill(requests, prompt_lengths, caches)

        repeats = np.array([r.n for r in requests])
        states = []
        for index, request in wave:
            results[index] = BatchResult(sequences=[])
            states.extend(
                _ChoiceState(
                    request_index=index,
                    choice_index=j,
                    config=_choice_config(request.config, j),
                    constraint=request.constraint,
                    rng=SeededRNG(request.config.seed + j),
                )
                for j in range(request.n)
            )
        return _Batch(
            states,
            _fork(caches, repeats),
            np.repeat(prompt_lengths, repeats),
            np.repeat(logits, repeats, axis=0),
        )

    # -- prefill with prefix reuse -----------------------------------------
    def _seed_shared_prefix(self, requests: Sequence[BatchRequest]) -> None:
        """Prefill a shared, uncached prompt header once for the batch.

        When every queued prompt starts with the same token prefix (a
        few-shot header) and the prefix cache does not cover it yet,
        one single-row prefill of the header populates the cache so
        each row's own prefill only touches its suffix.
        """
        if self.prefix_cache is None or len(requests) < 2:
            return
        prompts = [list(r.prompt_ids) for r in requests]
        shared = common_prefix_length(prompts)
        # Leave at least the final prompt token for every row to
        # prefill — that forward produces the row's next-token logits.
        shared = min(shared, min(len(p) for p in prompts) - 1)
        if shared < 2 or self.prefix_cache.peek_length(prompts[0]) >= shared:
            return
        header = BatchRequest(prompts[0][:shared])
        caches = self.model.init_cache(batch_size=1, capacity=shared)
        self._prefill([header], np.array([shared]), caches)

    def _load_prefixes(
        self,
        requests: Sequence[BatchRequest],
        prompt_lengths: np.ndarray,
        caches: list,
    ) -> np.ndarray:
        """Preload cached prompt-prefix K/V; returns per-row reuse lengths."""
        reused = np.zeros(len(requests), dtype=np.int64)
        if self.prefix_cache is None:
            return reused
        for i, request in enumerate(requests):
            match, layers = self.prefix_cache.lookup(
                request.prompt_ids, max_len=int(prompt_lengths[i]) - 1
            )
            if not match:
                continue
            reused[i] = match
            for cache, (keys, values) in zip(caches, layers):
                cache["k"][i, :, :match] = keys
                cache["v"][i, :, :match] = values
        return reused

    def _store_prefixes(
        self,
        requests: Sequence[BatchRequest],
        prompt_lengths: np.ndarray,
        caches: list,
    ) -> None:
        """Insert each prompt's prefilled K/V into the prefix cache."""
        if self.prefix_cache is None:
            return
        for i, request in enumerate(requests):
            length = int(prompt_lengths[i])
            layers = [
                (cache["k"][i, :, :length], cache["v"][i, :, :length])
                for cache in caches
            ]
            self.prefix_cache.insert(list(request.prompt_ids), layers)

    def _prefill(
        self,
        requests: Sequence[BatchRequest],
        prompt_lengths: np.ndarray,
        caches: list,
    ) -> np.ndarray:
        """One causal prefill forward; returns each row's next-token logits.

        The forward covers the columns from the shortest uncached prefix
        to the longest prompt: rows whose prompt prefix is cached have
        those K/V columns preloaded into the slab, and attention sees
        them through the chunk mask exactly as if they had been computed
        this call. Every row's last prompt token lies in the chunk,
        because a cached prefix always leaves at least that token out.
        """
        rows = len(requests)
        longest = int(prompt_lengths.max())
        prompts = np.zeros((rows, longest), dtype=np.int64)
        for i, request in enumerate(requests):
            prompts[i, : prompt_lengths[i]] = request.prompt_ids
        reused = self._load_prefixes(requests, prompt_lengths, caches)
        first = int(reused.min())
        # Causal mask over absolute columns: the query at column first+t
        # may see keys 0..first+t (preloaded prefix columns included).
        # Rows already past their prompt produce padding garbage that is
        # never read.
        hidden = self.model.encode_chunk(
            prompts[:, first:],
            np.arange(first, longest)[None, :],
            caches,
            blocked=chunk_causal_mask(first, longest)[None, None],
            write_cols=slice(first, longest),
            kv_len=longest,
        )
        self.stats.prefill_chunks += 1
        last = hidden[np.arange(rows), prompt_lengths - 1 - first]
        next_logits = self.model.logits_from_hidden(last)
        self.stats.prefill_tokens += int((prompt_lengths - reused).sum())
        self._store_prefixes(requests, prompt_lengths, caches)
        return next_logits

    # -- one step: pick a token per row, then one forward ------------------
    def _advance(self, batch: _Batch, results: List[BatchResult]) -> np.ndarray:
        """Pick each row's next token from its logits; retire finished rows.

        Returns the keep-mask.
        """
        states, logits = batch.states, batch.logits
        keep = np.ones(len(states), dtype=bool)
        plain_greedy = all(
            s.config.strategy == "greedy" and s.constraint is None for s in states
        )
        greedy_ids = np.argmax(logits, axis=-1) if plain_greedy else None
        for r, state in enumerate(states):
            if greedy_ids is not None:
                token: Optional[int] = int(greedy_ids[r])
            else:
                token = _next_token(
                    logits[r], state.generated, state.config,
                    state.constraint, state.rng,
                )
            if token is None or token in state.config.stop_ids:
                keep[r] = False
            else:
                state.generated.append(token)
                self.stats.generated_tokens += 1
                keep[r] = len(state.generated) < state.config.max_new_tokens
            if not keep[r]:
                results[state.request_index].sequences.append(
                    (state.choice_index, state.generated)
                )
        return keep

    def _decode_step(self, batch: _Batch) -> None:
        """One vectorized forward advancing every active sequence."""
        lengths = batch.lengths
        step_ids = np.array([[s.generated[-1]] for s in batch.states], dtype=np.int64)
        kv_len = int(lengths.max()) + 1
        blocked = (np.arange(kv_len)[None, :] > lengths[:, None])[:, None, None, :]
        hidden = self.model.encode_chunk(
            step_ids,
            lengths[:, None],
            batch.caches,
            blocked=blocked,
            write_cols=lengths,
            kv_len=kv_len,
        )
        batch.logits = self.model.logits_from_hidden(hidden[:, 0])
        batch.lengths = lengths + 1
        self.stats.decode_steps += 1


def _fork(caches: list, repeats: np.ndarray) -> list:
    """Repeat each request's cache row across its ``n`` choices."""
    for cache in caches:
        cache["k"] = np.repeat(cache["k"], repeats, axis=0)
        cache["v"] = np.repeat(cache["v"], repeats, axis=0)
    return caches


def _choice_config(config: GenerationConfig, choice: int) -> GenerationConfig:
    """Choice ``j`` of an n-way request decodes with ``seed + j``."""
    if choice == 0:
        return config
    return dataclasses.replace(config, seed=config.seed + choice)
