"""Vectorized batched decoding over the numpy Transformer: one decode loop.

One :class:`BatchedGenerator` serves every batched request through a
single retire-and-admit loop. Admitting requests runs a *chunked causal
prefill* (one forward over each prompt chunk with an in-chunk causal
mask, instead of priming the cache one token at a time) and splices the
new rows into the active batch; each step then advances every active
sequence with one model forward. Ragged prompt lengths are handled with
padding-aware slotted KV caches — each row's keys occupy columns
``0..len-1`` of a preallocated slab and a per-row mask blocks everything
beyond — so sequences of different lengths share the same batch without
influencing each other.

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

Speculative decoding is a per-step *proposer* inside that loop (the
draft-and-verify rung of the implementation survey, arXiv 2403.18969).
With a ``draft`` model, admission also prefills the draft's own slotted
caches, and at each step every greedy row that fits both context
windows has the draft propose up to ``k`` tokens. One target forward
over ``[last token, proposals]`` scores them all; the accept scan emits
the matching run, then the target's own pick at the first mismatch (or
a bonus token when every proposal matched). Every emitted token is the
target's pick given exactly the tokens before it, so output is
token-identical to plain decoding — the draft only decides how many
tokens a forward advances. Sampled rows, rows outside the draft's
window, and every row when no draft is set propose nothing; a step in
which no row proposes is the plain one-token decode step. Rejected
proposals cost no rollback: a row's valid prefix is its length, the
blocked mask hides stale columns beyond it, and later writes overwrite
them.

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

from repro.autograd import Tensor, no_grad
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

#: default number of tokens the draft proposes per verify forward
DEFAULT_DRAFT_K = 4


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
    model; tokens served from the prefix cache instead are counted in
    ``prefix_reused_tokens``. ``refills`` counts requests admitted into
    freed slots mid-decode (continuous batching); ``peak_active`` is
    the widest decode batch observed. ``decode_steps`` counts plain
    one-token steps.

    The speculative counters stay zero without a draft model:
    ``draft_tokens`` counts tokens proposed by the draft model,
    ``draft_accepted_tokens`` the subset the target model verified, and
    ``verify_forwards`` the batched target forwards that did the
    verification (one per step in which some row proposed).
    """

    prefill_chunks: int = 0
    prefill_tokens: int = 0
    decode_steps: int = 0
    generated_tokens: int = 0
    retired_sequences: int = 0
    sequential_fallbacks: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_reused_tokens: int = 0
    refills: int = 0
    peak_active: int = 0
    cancelled_sequences: int = 0
    cancelled_tokens: int = 0
    draft_tokens: int = 0
    draft_accepted_tokens: int = 0
    verify_forwards: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of draft-proposed tokens the target model accepted."""
        if self.draft_tokens == 0:
            return 0.0
        return self.draft_accepted_tokens / self.draft_tokens


@dataclass
class _ChoiceState:
    """Decode-time state of one active sequence (request choice)."""

    request_index: int
    choice_index: int
    config: GenerationConfig
    constraint: Optional[TokenConstraint]
    rng: SeededRNG
    speculative: bool = False
    generated: List[int] = field(default_factory=list)


class _Batch:
    """The active rows of the decode loop and the arrays aligned with them.

    Between steps, row ``r``'s target cache holds its first
    ``lengths[r]`` tokens, and ``logits[r, j]`` is the target's
    next-token distribution after them plus ``proposals[r, :j]``
    (``-1`` = no proposal; a plain step has width 1 and no proposals).
    With a draft model, ``dcaches`` hold each row's first ``d_lens[r]``
    tokens.
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
        self.proposals = np.zeros((len(states), 0), dtype=np.int64)
        self.dcaches: list = []
        self.d_lens: Optional[np.ndarray] = None

    def select(self, keep: np.ndarray) -> None:
        """Drop the rows whose ``keep`` entry is False."""
        self.states = [s for s, k in zip(self.states, keep) if k]
        self.lengths = self.lengths[keep]
        self.logits = self.logits[keep]
        self.proposals = self.proposals[keep]
        for cache in self.caches + self.dcaches:
            cache["k"] = cache["k"][keep]
            cache["v"] = cache["v"][keep]
        if self.d_lens is not None:
            self.d_lens = self.d_lens[keep]

    def extend(self, wave: "_Batch") -> "_Batch":
        """Append a freshly admitted wave's rows (logits of width 1)."""
        width = self.logits.shape[1]
        logits, proposals = wave.logits, wave.proposals
        if width > 1:
            # Pad the wave to this step's verify width; with no
            # proposals its scan stops at position 0.
            logits = np.pad(logits, ((0, 0), (0, width - 1), (0, 0)))
            proposals = np.full((len(wave.states), width - 1), -1, dtype=np.int64)
        for cache, addition in zip(
            self.caches + self.dcaches, wave.caches + wave.dcaches
        ):
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
        self.logits = np.concatenate([self.logits, logits])
        self.proposals = np.concatenate([self.proposals, proposals])
        if self.d_lens is not None:
            self.d_lens = np.concatenate([self.d_lens, wave.d_lens])
        return self


class BatchedGenerator:
    """Decode many sequences per model forward (inference only).

    ``prefill_chunk`` bounds the width of each prefill forward; ``None``
    primes every prompt in a single chunk. With a ``prefix_cache``,
    prompt prefixes already seen by the cache are loaded instead of
    recomputed and every prefilled prompt is stored back. Greedy
    decoding produces the same token sequences as per-prompt
    :func:`repro.generation.generate` — with or without the prefix
    cache — and sampling draws from per-sequence seeded RNGs exactly as
    the sequential path does (choice ``j`` of a request samples with
    ``config.seed + j``).

    A ``draft`` model (same vocabulary) turns on the speculative
    proposer: greedy rows that fit both context windows advance up to
    ``k + 1`` tokens per target forward, with unchanged output.
    ``draft_prefix_cache`` gives the draft its own prompt K/V reuse
    (draft and target states differ in shape and must never share a
    cache); the draft's prefill work is not counted in ``stats``.

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
        prefill_chunk: Optional[int] = None,
        prefix_cache: Optional[PrefixCache] = None,
        draft: Optional[GPTModel] = None,
        k: int = DEFAULT_DRAFT_K,
        draft_prefix_cache: Optional[PrefixCache] = None,
    ) -> None:
        if prefill_chunk is not None and prefill_chunk <= 0:
            raise GenerationError("prefill_chunk must be positive")
        self.model = model
        self.prefill_chunk = prefill_chunk
        self.prefix_cache = prefix_cache
        self.draft = draft
        self.k = k
        self.stats = GeneratorStats()
        if draft is not None:
            if k <= 0:
                raise GenerationError("speculative k must be positive")
            if draft.config.vocab_size != model.config.vocab_size:
                raise GenerationError(
                    f"draft vocab {draft.config.vocab_size} != "
                    f"target vocab {model.config.vocab_size}"
                )
            # Prefills the draft's caches through its own prefix cache.
            self._draft_engine = BatchedGenerator(
                draft, prefill_chunk=prefill_chunk, prefix_cache=draft_prefix_cache
            )

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
            self.model.eval()
            if self.draft is not None:
                self.draft.eval()
                # Verify chunks of rows near retirement may overshoot
                # their own end by up to k - 1 columns.
                capacity = min(capacity + self.k, self.model.config.max_seq_len)
            with no_grad():
                self._run_continuous(
                    pending, capacity, max_active, results, on_step, on_admit
                )
        return [r for r in results if r is not None]

    def _fits(self, request: BatchRequest) -> bool:
        max_len = self.model.config.max_seq_len
        return len(request.prompt_ids) + request.config.max_new_tokens <= max_len

    def _speculates(self, request: BatchRequest) -> bool:
        """Whether ``request``'s rows get draft proposals."""
        return (
            self.draft is not None
            and request.config.strategy == "greedy"
            and len(request.prompt_ids) + request.config.max_new_tokens
            <= self.draft.config.max_seq_len
        )

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
        batch = _Batch([], [], np.zeros(0, dtype=np.int64), np.zeros((0, 1, 0)))
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
                self._step(batch, capacity)

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
            speculative = self._speculates(request)
            states.extend(
                _ChoiceState(
                    request_index=index,
                    choice_index=j,
                    config=_choice_config(request.config, j),
                    constraint=request.constraint,
                    rng=SeededRNG(request.config.seed + j),
                    speculative=speculative,
                )
                for j in range(request.n)
            )
        lengths = np.repeat(prompt_lengths, repeats)
        batch = _Batch(
            states,
            _fork(caches, repeats),
            lengths,
            np.repeat(logits, repeats, axis=0)[:, None],
        )
        if self.draft is not None:
            dcaches = self._draft_prefill(requests, prompt_lengths, capacity)
            batch.dcaches = _fork(dcaches, repeats)
            batch.d_lens = lengths.copy()
        return batch

    def _draft_prefill(
        self,
        requests: Sequence[BatchRequest],
        prompt_lengths: np.ndarray,
        capacity: int,
    ) -> list:
        """The draft's slotted caches, prefilled for the rows that speculate.

        Rows that never propose keep zero K/V; their draft outputs are
        discarded.
        """
        dcaches = self.draft.init_cache(batch_size=len(requests), capacity=capacity)
        chosen = [i for i, r in enumerate(requests) if self._speculates(r)]
        if not chosen:
            return dcaches
        subset = [requests[i] for i in chosen]
        part = (
            dcaches
            if len(chosen) == len(requests)
            else self.draft.init_cache(batch_size=len(chosen), capacity=capacity)
        )
        self._draft_engine._seed_shared_prefix(subset)
        self._draft_engine._prefill(subset, prompt_lengths[chosen], part)
        if part is not dcaches:
            for cache, piece in zip(dcaches, part):
                cache["k"][chosen] = piece["k"]
                cache["v"][chosen] = piece["v"]
        return dcaches

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
                self.stats.prefix_misses += 1
                continue
            self.stats.prefix_hits += 1
            self.stats.prefix_reused_tokens += match
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
        """Chunked causal prefill; returns each row's next-token logits.

        Rows whose prompt prefix is cached start from the shortest
        uncached column instead of zero: the cached K/V columns are
        preloaded into the slab and attention sees them through the
        chunk mask exactly as if they had been computed this call.
        """
        rows = len(requests)
        longest = int(prompt_lengths.max())
        prompts = np.zeros((rows, longest), dtype=np.int64)
        for i, request in enumerate(requests):
            prompts[i, : prompt_lengths[i]] = request.prompt_ids
        reused = self._load_prefixes(requests, prompt_lengths, caches)
        first = int(reused.min())
        next_logits = np.zeros((rows, self.model.config.vocab_size))
        chunk = self.prefill_chunk or (longest - first)
        for start in range(first, longest, chunk):
            stop = min(start + chunk, longest)
            # In-chunk causal mask over absolute columns: query at column
            # start+t may see keys 0..start+t (preloaded prefix columns
            # included). Rows already past their prompt produce padding
            # garbage that is never read.
            blocked = chunk_causal_mask(start, stop)
            hidden = self.model.encode_chunk(
                prompts[:, start:stop],
                np.arange(start, stop)[None, :],
                caches,
                blocked=blocked[None, None],
                write_cols=slice(start, stop),
                kv_len=stop,
            )
            self.stats.prefill_chunks += 1
            # Harvest logits for rows whose last prompt token is here.
            last = prompt_lengths - 1
            sel = (last >= start) & (last < stop)
            if sel.any():
                picked = hidden.data[np.where(sel)[0], last[sel] - start]
                logits = self.model.logits_from_hidden(Tensor(picked))
                next_logits[sel] = logits.data
        self.stats.prefill_tokens += int((prompt_lengths - reused).sum())
        self._store_prefixes(requests, prompt_lengths, caches)
        return next_logits

    # -- one step: pick tokens, then one target forward ---------------------
    def _advance(self, batch: _Batch, results: List[BatchResult]) -> np.ndarray:
        """Pick each row's tokens from its logits; retire finished rows.

        Position ``j`` of a row's logits is the target's distribution
        after the committed tokens plus proposals ``0..j-1``, so its
        pick is the true next token: a pick that matches proposal ``j``
        extends the run, and the first pick that does not — or the pick
        after the last proposal — is emitted and ends it. Accepted
        proposals already sit in the target cache, so they advance
        ``lengths``; the draft keeps the ones it forwarded (all but the
        last). Returns the keep-mask.
        """
        states, logits, proposals = batch.states, batch.logits, batch.proposals
        width = logits.shape[1]
        keep = np.ones(len(states), dtype=bool)
        accepted = np.zeros(len(states), dtype=np.int64)
        plain_greedy = all(
            s.config.strategy == "greedy" and s.constraint is None for s in states
        )
        greedy_ids = np.argmax(logits, axis=-1) if plain_greedy else None
        for r, state in enumerate(states):
            for j in range(width):
                if greedy_ids is not None:
                    token: Optional[int] = int(greedy_ids[r, j])
                else:
                    token = _next_token(
                        logits[r, j], state.generated, state.config,
                        state.constraint, state.rng,
                    )
                if token is None or token in state.config.stop_ids:
                    keep[r] = False
                    break
                state.generated.append(token)
                self.stats.generated_tokens += 1
                if len(state.generated) >= state.config.max_new_tokens:
                    keep[r] = False
                if j == width - 1 or token != proposals[r, j]:
                    break
                accepted[r] += 1
                if not keep[r]:
                    break
            if not keep[r]:
                self.stats.retired_sequences += 1
                results[state.request_index].sequences.append(
                    (state.choice_index, state.generated)
                )
        if width > 1:
            self.stats.draft_accepted_tokens += int(accepted.sum())
            batch.d_lens = batch.lengths + np.minimum(accepted, width - 2)
            batch.lengths = batch.lengths + accepted
        return keep

    def _step(self, batch: _Batch, capacity: int) -> None:
        """Verify this step's proposals, or take a plain decode step."""
        k_eff = self._proposal_length(batch, capacity)
        if k_eff:
            batch.proposals = self._propose(batch, k_eff)
            batch.logits = self._verify(batch)
        else:
            if batch.proposals.shape[1]:
                batch.proposals = batch.proposals[:, :0]
            batch.logits = self._decode_step(
                batch.states, batch.lengths, batch.caches
            )[:, None]
        batch.lengths += 1

    def _proposal_length(self, batch: _Batch, capacity: int) -> int:
        """Draft tokens per row this step; 0 when no row speculates.

        Bounded by ``k``, by the largest remaining token budget among
        speculating rows, and by the room the verify chunk has left in
        the caches and in the draft's context window.
        """
        if self.draft is None:
            return 0
        spec = [r for r, s in enumerate(batch.states) if s.speculative]
        if not spec:
            return 0
        committed = batch.lengths + 1
        budget = max(
            batch.states[r].config.max_new_tokens - len(batch.states[r].generated)
            for r in spec
        )
        room = min(
            capacity - int(committed.max()),
            self.draft.config.max_seq_len - int(committed[spec].max()),
        )
        return max(0, min(self.k, budget - 1, room))

    def _propose(self, batch: _Batch, k_eff: int) -> np.ndarray:
        """Draft up to ``k_eff`` ids per speculating row; ``-1`` marks none.

        The draft first catches up on committed tokens it has not seen
        (the last step's emitted tokens, and any plain steps since):
        each row's chunk starts at its ``d_lens`` column, and rows that
        need fewer columns repeat their last committed one, rewriting
        that column with the same token. Proposals are then decoded one
        draft forward at a time; a constraint that allows nothing ends a
        row's run early. Rows that do not speculate ride along on column
        0 of their unused draft rows.
        """
        states = batch.states
        rows = len(states)
        spec = np.fromiter((s.speculative for s in states), dtype=bool, count=rows)
        committed = batch.lengths + 1
        width = int((committed - batch.d_lens)[spec].max())
        positions = np.minimum(
            batch.d_lens[:, None] + np.arange(width), committed[:, None] - 1
        )
        positions[~spec] = 0
        ids = np.zeros((rows, width), dtype=np.int64)
        for r in np.flatnonzero(spec):
            # Every column from d_lens on holds a generated token.
            generated = states[r].generated
            ids[r] = [generated[p - committed[r]] for p in positions[r]]
        hidden = _ragged_forward(self.draft, ids, positions, batch.dcaches)
        d_next = self.draft.logits_from_hidden(Tensor(hidden[:, -1])).data

        proposals = np.full((rows, k_eff), -1, dtype=np.int64)
        # A row proposes at most its remaining budget minus the token
        # the verify forward always yields.
        room = np.array(
            [s.config.max_new_tokens - len(s.generated) - 1 for s in states]
        )
        alive = spec.copy()
        unconstrained = all(s.constraint is None for s in states)
        for j in range(k_eff):
            alive &= room > j
            if not alive.any():
                break
            if unconstrained:
                proposals[alive, j] = np.argmax(d_next, axis=-1)[alive]
            else:
                for r in np.flatnonzero(alive):
                    state = states[r]
                    pick = _next_token(
                        d_next[r], state.generated + proposals[r, :j].tolist(),
                        state.config, state.constraint, state.rng,
                    )
                    if pick is None:
                        alive[r] = False
                    else:
                        proposals[r, j] = pick
            if j == k_eff - 1:
                break
            cols = np.where(spec, committed + j, 0)[:, None]
            step_ids = np.maximum(proposals[:, j : j + 1], 0)
            hidden = _ragged_forward(self.draft, step_ids, cols, batch.dcaches)
            d_next = self.draft.logits_from_hidden(Tensor(hidden[:, 0])).data
        self.stats.draft_tokens += int((proposals >= 0).sum())
        return proposals

    def _verify(self, batch: _Batch) -> np.ndarray:
        """One target forward over each row's last token and proposals."""
        width = batch.proposals.shape[1] + 1
        ids = np.empty((len(batch.states), width), dtype=np.int64)
        ids[:, 0] = [s.generated[-1] for s in batch.states]
        ids[:, 1:] = np.maximum(batch.proposals, 0)
        positions = batch.lengths[:, None] + np.arange(width)
        hidden = _ragged_forward(self.model, ids, positions, batch.caches)
        self.stats.verify_forwards += 1
        return self.model.logits_from_hidden(Tensor(hidden)).data

    def _decode_step(
        self, states: List[_ChoiceState], lengths: np.ndarray, caches: list
    ) -> np.ndarray:
        """One vectorized forward advancing every active sequence."""
        step_ids = np.array([[s.generated[-1]] for s in states], dtype=np.int64)
        kv_len = int(lengths.max()) + 1
        blocked = (np.arange(kv_len)[None, :] > lengths[:, None])[:, None, None, :]
        hidden = self.model.encode_chunk(
            step_ids,
            lengths[:, None],
            caches,
            blocked=blocked,
            write_cols=lengths,
            kv_len=kv_len,
        )
        logits = self.model.logits_from_hidden(Tensor(hidden.data[:, 0]))
        self.stats.decode_steps += 1
        return logits.data


def _ragged_forward(
    model: GPTModel, ids: np.ndarray, positions: np.ndarray, caches: list
) -> np.ndarray:
    """Hidden states for per-row runs of tokens at ``positions`` (B, T).

    Each run is written to the slotted caches at its own columns and
    attends every column up to its own position.
    """
    kv_len = int(positions.max()) + 1
    blocked = np.arange(kv_len)[None, None, None, :] > positions[:, None, :, None]
    return model.encode_chunk(
        ids, positions, caches, blocked=blocked, write_cols=positions, kv_len=kv_len
    ).data


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
