"""The four workloads: inputs from a seed, set-up, one timed phase, checks.

Every workload has the same shape. ``prepare(speed)``, where a workload
has one, does the one-off work whose cost is reported but not repeated
(fine-tuning the translator), and samples the host-speed kernel
(``hostspeed``) on ``speed`` between its steps. ``build(seed, seconds, workdir)`` makes
the inputs and every piece of serving state a timed phase needs; it is
cheap enough to repeat, which is how set-up time is measured.
``warm(state)``, where a workload has one, fills the program's caches
untimed and untraced just before the phase. ``run(state, seconds)`` is
the timed phase and returns a :class:`Phase`; ``check(state, phase)``
compares its outputs with an independent reference and returns the
problems found. ``close(state)`` releases files and threads. A phase
times the host-speed kernel (``hostspeed``) between a closed loop's
operations, and on the open loop when nothing is in flight.

The seed drives the traffic: which questions are asked in which order,
the arrival times, the repeats and the statement stream. The deployment
the traffic meets is the same for every seed: schema, data, question
pool, fine-tuned translator, few-shot headers and model weights all come
from ``DEPLOYMENT_SEED``. A deployment drawn per seed moved the medians
by up to a fifth from one seed to the next, more than a regression
bound may be. The program only sees generated inputs; the seed never
reaches it.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import CompletionClient, ModelHub
from repro.durability import dump_database, restore_database
from repro.errors import ReproError, SQLError
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.serving import (
    BatchRequest,
    BatchScheduler,
    Gateway,
    GatewayRequest,
    Replica,
    SemanticCache,
)
from repro.sql import Database
from repro.sql.cluster import ClusterDatabase, canonicalize
from repro.text2sql.translator import (
    ClientTranslator,
    LMTranslator,
    build_prompt,
    train_translator,
)
from repro.text2sql.workload import generate_workload, sql_to_engine_dialect
from repro.tokenizers import WhitespaceTokenizer
from repro.training.optim import AdamW
from repro.utils.rng import SeededRNG

from hostspeed import HostSpeed

clock = time.perf_counter

DEPLOYMENT_SEED = 0

#: translator fine-tune: 200 steps of 8 rows at 48 tokens. The 300-step,
#: 16-row, 64-token fine-tune the repo's tests use takes 25 s, which the
#: run budget cannot pay; at this size every decoded pool query parses.
TRAINING = dict(steps=200, batch_size=8, seq_len=48, lr=5e-3)
#: the longest gold query is 22 tokens plus EOS; the prompt gets the rest
MAX_NEW_TOKENS = 28
#: questions drawn per template; deduplicated by prompt ids this leaves
#: about 1600 distinct prompts, more than one timed phase asks for
POOL_PER_TEMPLATE = 2000
#: distinct prompts the oracle re-decodes sequentially in each check
ORACLE_SAMPLE = 32


@dataclass
class Phase:
    """What one timed phase measured.

    ``latencies`` holds one sample, in seconds, per independent wait a
    caller saw: an open-loop request, a statement, or a whole batch call
    whose operations all arrive together. ``answered`` counts the
    operations those samples delivered, and ``ends`` when each sample
    ended. ``elapsed`` runs from the phase's start to the last answer,
    less the time ``speed`` spent timing its kernel. ``records`` keeps
    the outputs the checks read.
    """

    attempted: int = 0
    failed: int = 0
    answered: int = 0
    open_loop: bool = False
    latencies: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    lates: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def answer(self, latency: float, operations: int = 1) -> None:
        self.latencies.append(latency)
        self.ends.append(clock())
        self.answered += operations

    def scaled_latencies(self) -> List[float]:
        """Each latency at the reference host speed (``hostspeed``)."""
        factors = self.speed.factors(self.ends)
        return [latency * f for latency, f in zip(self.latencies, factors)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile: always an observed value."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def beyond(count: int, q: float) -> int:
    """Samples ranked above the ``q``-th percentile of ``count`` samples."""
    return count - math.ceil(q / 100.0 * count)


def supported(count: int, q: float) -> bool:
    """The sample-count rule: report a percentile only with at least ten
    samples beyond it."""
    return beyond(count, q) >= 10


#: samples per window of a windowed percentile: a window's p90 has ten
#: samples beyond it
WINDOW = 100


def windowed_percentile(values: Sequence[float], q: float) -> float:
    """Median over consecutive ``WINDOW``-sample windows of each one's
    ``q``-th percentile; the last window takes the remainder.

    A slow spell of the host that covers part of a phase fills the top
    decile of a pooled sample with its own latencies; the median over
    windows sets those windows aside.
    """
    count = len(values) // WINDOW
    if count == 0:
        raise ValueError(f"{len(values)} samples are fewer than one window of {WINDOW}")
    edges = [k * WINDOW for k in range(count)] + [len(values)]
    return statistics.median(
        percentile(values[a:b], q) for a, b in zip(edges, edges[1:])
    )


def same_rows(got: Optional[list], want: Optional[list], ordered: bool) -> bool:
    """Row equality; ``None`` stands for "the engine rejected the SQL"."""
    if got is None or want is None:
        return got is want
    return got == want if ordered else Counter(got) == Counter(want)


def run_sql(db, sql: str) -> Optional[list]:
    """Rows of a decoded query, or ``None`` if the engine rejects it."""
    try:
        return db.execute(sql_to_engine_dialect(sql)).rows
    except SQLError:
        return None


# -- open-loop load ----------------------------------------------------------
async def open_loop(
    offsets: Sequence[float],
    send: Callable[[int, float], Awaitable[Any]],
    lead: float = 0.05,
) -> Tuple[List[float], List[Any], float]:
    """Start ``send(i, due)`` at each absolute due time; await them all.

    Due times are fixed before the first request (``start + offset``),
    so a stalled loop makes later requests *late* but never moves their
    schedule, and ``send`` times each answer from its due time, so the
    stall's wait lands in the latency of every request behind it.
    Returns ``(lates, outcomes, elapsed)``: how late each request was
    sent, each ``send`` result or raised exception, and the time from
    the start of the schedule to the last answer.
    """
    start = clock() + lead
    lates: List[float] = []
    tasks: List[asyncio.Task] = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lates.append(clock() - due)
        tasks.append(asyncio.ensure_future(send(index, due)))
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    return lates, list(outcomes), clock() - start


# -- text-to-SQL helpers -----------------------------------------------------
def fit_translator(speed: Optional[HostSpeed] = None) -> LMTranslator:
    """Fine-tune the translator on the 0.75 split of 100 questions per
    template; that vocabulary covers the pool's question words.

    With ``speed``, the host-speed kernel is sampled after optimizer
    steps, as a closed loop samples it between operations: the fit's
    own steps are the only moments it is idle.
    """
    source = generate_workload(DEPLOYMENT_SEED, examples_per_template=100)
    train, _ = source.split(0.25, seed=DEPLOYMENT_SEED)
    if speed is None:
        return train_translator(source, train, seed=DEPLOYMENT_SEED, **TRAINING)
    step = AdamW.step

    def sampled_step(optimizer, *args, **kwargs):
        result = step(optimizer, *args, **kwargs)
        speed.tick()
        return result

    AdamW.step = sampled_step
    try:
        return train_translator(source, train, seed=DEPLOYMENT_SEED, **TRAINING)
    finally:
        AdamW.step = step


def question_pool(seed: int, translator: LMTranslator, num_rows: int):
    """The workload (schema + data) and its distinct prompts, in an
    order drawn from ``seed``.

    Questions that encode to the same prompt ids are one prompt to the
    serving stack, so the pool keeps one ``(ids, example)`` per id
    sequence.
    """
    workload = generate_workload(
        DEPLOYMENT_SEED, num_rows=num_rows, examples_per_template=POOL_PER_TEMPLATE
    )
    tokenizer = translator.tokenizer
    distinct: Dict[tuple, Any] = {}
    for example in workload.examples:
        ids = tuple(tokenizer.encode(build_prompt(example.question), add_bos=True).ids)
        distinct.setdefault(ids, example)
    room = translator.model.config.max_seq_len - MAX_NEW_TOKENS
    longest = max(len(ids) for ids in distinct)
    if longest > room:
        raise RuntimeError(
            f"a {longest}-token prompt leaves no room for {MAX_NEW_TOKENS} "
            "new tokens; the scheduler would fall back to sequential decode"
        )
    ordered = sorted(distinct.items(), key=lambda item: item[0])
    return workload, SeededRNG(seed).spawn("pool").shuffled(ordered)


def decode_config(translator: LMTranslator) -> GenerationConfig:
    return GenerationConfig(
        max_new_tokens=MAX_NEW_TOKENS,
        stop_ids=(translator.tokenizer.vocab.eos_id,),
    )


def warm_up(model, prompts: Sequence[Sequence[int]], config) -> None:
    """Run the decode path once so lazy numpy set-up is not timed."""
    scheduler = BatchScheduler(model, max_batch_size=8, continuous=True)
    for ids in prompts:
        scheduler.submit(BatchRequest(list(ids), config))
    scheduler.run()


def answer_quality(pool, reference: Database, answers) -> Dict[str, float]:
    """Execution accuracy of ``(pool index, rows)`` answers against gold.

    Gold rows come from the gold SQL on the single-node reference
    database; ordering counts only when the gold query orders.
    """
    gold: Dict[int, Optional[list]] = {}
    right: Counter = Counter()
    asked: Counter = Counter()
    invalid = 0
    for index, rows in answers:
        example = pool[index][1]
        if index not in gold:
            gold[index] = run_sql(reference, example.sql)
        asked[example.hardness] += 1
        invalid += rows is None
        ordered = "order by" in example.sql
        right[example.hardness] += rows is not None and same_rows(
            rows, gold[index], ordered
        )
    total = sum(asked.values())
    quality = {
        "answer_accuracy": sum(right.values()) / total if total else 0.0,
        "invalid_sql_share": invalid / total if total else 0.0,
    }
    for level in ("easy", "medium", "hard"):
        quality[f"accuracy_{level}"] = (
            right[level] / asked[level] if asked[level] else 0.0
        )
    return quality


def consistent(records) -> Tuple[Dict[int, Any], List[str]]:
    """First ``(output, rows)`` per pool index; repeats must agree."""
    first: Dict[int, Any] = {}
    problems = []
    for index, output, rows in records:
        seen = first.setdefault(index, (output, rows))
        if seen != (output, rows):
            problems.append(f"pool entry {index} was answered two ways")
    return first, problems


def oracle_problems(
    translator: LMTranslator, reference: Database, pool, served, seed: int
) -> List[str]:
    """Re-decode a sample of answered prompts with the sequential decoder.

    ``served`` maps a pool index to ``(output, rows)``, where the output
    is either the generated token ids (a tuple) or the SQL text. The
    oracle's output must equal what was served, and its SQL on the
    single-node reference must give the rows the program answered.
    """
    problems = []
    config = decode_config(translator)
    indexes = sorted(served)
    rng = SeededRNG(seed).spawn("oracle")
    for index in rng.sample(indexes, min(ORACLE_SAMPLE, len(indexes))):
        oracle_ids = generate(translator.model, list(pool[index][0]), config)
        oracle_sql = translator.tokenizer.decode(oracle_ids)
        output, rows = served[index]
        expected = tuple(oracle_ids) if isinstance(output, tuple) else oracle_sql
        if output != expected:
            problems.append(f"pool entry {index}: served {output!r}, oracle {expected!r}")
        elif not same_rows(
            rows, run_sql(reference, oracle_sql), "order by" in oracle_sql
        ):
            problems.append(f"pool entry {index}: rows differ from the reference")
    return problems


def close_cluster(state) -> None:
    if not state.cluster_closed:
        state.cluster.close()
        state.cluster_closed = True


# -- workloads ---------------------------------------------------------------
class Translating:
    """What the two text-to-SQL workloads share: the fine-tuned
    translator, and checks against the sequential oracle and gold SQL.

    Records are ``(pool index, output, rows)``; the output is the token
    ids (online) or the SQL text (batch) the program produced.
    """

    def prepare(self, speed: HostSpeed) -> None:
        self.translator = fit_translator(speed)

    def check(self, state, phase: Phase) -> List[str]:
        served, problems = consistent(phase.records)
        return problems + oracle_problems(
            self.translator, state.reference, state.pool, served, state.seed
        )

    def layer_inputs(self, state, phase: Phase) -> Dict[str, float]:
        return answer_quality(
            state.pool, state.reference, [(i, rows) for i, _, rows in phase.records]
        )

    def extras(self, state, phase: Phase) -> Dict[str, Tuple[float, str]]:
        accuracy = self.layer_inputs(state, phase)["answer_accuracy"]
        return {"answer_accuracy": (accuracy, "share")}


class T2SQLOnline(Translating):
    """NL question -> gateway -> semantic cache -> decode -> SQL cluster.

    Open loop: Poisson arrivals at ``RATE`` per second, drawn as sorted
    uniform times over the phase so every seed sends the same count.
    ``REPEAT_SHARE`` of requests repeat one of the last
    ``REPEAT_WINDOW``; the rest walk the shuffled pool. Each request is
    encoded, admitted, decoded on the gateway's worker thread,
    detokenized and run on a 2-shard durable cluster of 500 entity rows.
    """

    name = "t2sql-online"
    #: The decode thread and the event loop share the GIL. On a host
    #: whose speed halves, 30 req/s kept them over 70% busy: queueing
    #: amplified the drift, requests waited up to a second, and the
    #: median spread 25% to 47% across seeds. At 15 they stay under 40%
    #: busy on such a host and latency tracks service time.
    RATE = 15.0
    REPEAT_SHARE = 0.3
    REPEAT_WINDOW = 256
    #: holds about 110 completions, fewer than the ~160 distinct prompts
    #: a phase asks, so repeats can miss and eviction keeps running
    CACHE_BYTES = 32 * 1024
    MAX_BATCH = 8
    ROWS = 500
    SLO_S = 0.050
    #: idle time before the next due time that a host-speed sample (two
    #: kernel runs, about 2 ms) needs, so that it never delays a send
    IDLE_S = 0.005

    def build(self, seed: int, seconds: float, workdir: Path):
        translator = self.translator
        workload, pool = question_pool(seed, translator, self.ROWS)
        rng = SeededRNG(seed).spawn(self.name)
        count = max(1, round(self.RATE * seconds))
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        plan: List[int] = []
        fresh = 0
        for _ in range(count):
            if plan and rng.random() < self.REPEAT_SHARE:
                plan.append(rng.choice(plan[-self.REPEAT_WINDOW:]))
            else:
                plan.append(fresh % len(pool))
                fresh += 1
        config = decode_config(translator)
        cluster = ClusterDatabase.from_database(
            workload.db, workdir / "cluster", num_shards=2
        )
        warm_up(translator.model, [ids for ids, _ in pool[-8:]], config)
        for _, example in pool[-8:]:
            run_sql(cluster, example.sql)
        cache = SemanticCache(max_bytes=self.CACHE_BYTES)
        replica = Replica("r0", translator.model, max_batch=self.MAX_BATCH)
        return SimpleNamespace(
            seed=seed,
            workdir=workdir,
            pool=pool,
            reference=workload.db,
            offsets=offsets,
            plan=plan,
            config=config,
            tokenizer=translator.tokenizer,
            cluster=cluster,
            cluster_closed=False,
            cache=cache,
            gateway=Gateway([replica], completion_cache=cache),
        )

    def run(self, state, seconds: float) -> Phase:
        return asyncio.run(self._serve(state))

    async def _serve(self, state) -> Phase:
        phase = Phase(attempted=len(state.offsets), open_loop=True)
        tokenizer, gateway, offsets = state.tokenizer, state.gateway, state.offsets
        in_flight = 0

        async def send(i: int, due: float) -> None:
            nonlocal in_flight
            index = state.plan[i]
            in_flight += 1
            try:
                prompt = build_prompt(state.pool[index][1].question)
                ids = tokenizer.encode(prompt, add_bos=True).ids
                result = await gateway.submit(
                    GatewayRequest(BatchRequest(ids, state.config))
                )
                tokens = tuple(result.sequences[0])
                # SQL runs on the event loop: its cost delays later sends,
                # which the due-time latency of those requests then shows.
                rows = run_sql(state.cluster, tokenizer.decode(list(tokens)))
                phase.answer(clock() - due)
            finally:
                in_flight -= 1
            phase.records.append((index, tokens, rows))
            if result.replica != "cache":  # a cache hit never queues
                phase.queue_waits.append(result.queue_wait)
            # With nothing in flight the loop and the decode worker are idle
            # until the next due time; the kernel runs there if it fits.
            if in_flight == 0 and i + 1 < len(offsets):
                if due + offsets[i + 1] - offsets[i] - clock() > self.IDLE_S:
                    phase.speed.tick()

        await gateway.start()
        try:
            phase.lates, outcomes, phase.elapsed = await open_loop(state.offsets, send)
        finally:
            await gateway.stop()
        for outcome in outcomes:
            if isinstance(outcome, ReproError):  # shed, expired or failed
                phase.failed += 1
            elif isinstance(outcome, BaseException):
                raise outcome
        return phase

    def extras(self, state, phase: Phase) -> Dict[str, Tuple[float, str]]:
        within = sum(latency <= self.SLO_S for latency in phase.latencies)
        return {
            "slo_attainment": (within / phase.attempted, "share"),
            **super().extras(state, phase),
        }

    def close(self, state) -> None:
        close_cluster(state)
        shutil.rmtree(state.workdir / "cluster", ignore_errors=True)


class T2SQLBatch(Translating):
    """Offline jobs: a fresh client translates a slice of the pool, then
    the answers run on the 30-row single-node workload database.

    Closed loop, one job at a time. A job's latency runs from its start
    to the moment the rows of its last question exist. No gateway, no
    semantic cache (off by default in the client), no cluster.
    """

    name = "t2sql-batch"
    ENGINE = "t2sql"
    #: one full decode batch per job. A job is one latency sample; at 8
    #: questions a 10 s phase held 300 to 500 jobs, 3 to 5 windows of the
    #: reported p90. At 16 it held 250 jobs, at 128 only 36.
    JOB_SIZE = 8

    def build(self, seed: int, seconds: float, workdir: Path):
        translator = self.translator
        workload, pool = question_pool(seed, translator, num_rows=30)
        hub = ModelHub()
        hub.register(self.ENGINE, translator.model, translator.tokenizer)
        warm_up(translator.model, [ids for ids, _ in pool[-8:]], decode_config(translator))
        return SimpleNamespace(
            seed=seed,
            workdir=workdir,
            pool=pool,
            workload=workload,
            reference=workload.db,
            hub=hub,
            tokenizer=translator.tokenizer,
        )

    def run(self, state, seconds: float) -> Phase:
        phase = Phase()
        pool, db = state.pool, state.reference
        start = clock()
        cursor = 0
        while clock() - start < seconds:
            indexes = [(cursor + k) % len(pool) for k in range(self.JOB_SIZE)]
            cursor += self.JOB_SIZE
            phase.attempted += len(indexes)
            job_start = clock()
            translator = ClientTranslator(
                CompletionClient(state.hub),
                self.ENGINE,
                state.workload,
                max_new_tokens=MAX_NEW_TOKENS,
            )
            sqls = translator.translate_batch([pool[i][1].question for i in indexes])
            for index, sql in zip(indexes, sqls):
                phase.records.append((index, sql, run_sql(db, sql)))
            phase.answer(clock() - job_start, len(indexes))
            phase.speed.tick()
        phase.elapsed = clock() - start - phase.speed.spent
        return phase

    def close(self, state) -> None:
        pass


class FewShotPrefill:
    """GPT-3-style few-shot prompts through one persistent client.

    Each prompt is one of four 8-shot text-to-SQL headers followed by a
    question no other prompt asks; the model is a 12-layer, 64-wide
    random-weight stand-in, so this measures serving cost, not answers.
    Closed loop of ``complete_batch`` calls; a call is one latency
    sample. The headers' K/V stay cached while every unique suffix is
    inserted too, which overflows the prefix budget and keeps LRU
    eviction running.
    """

    name = "fewshot-prefill"
    ENGINE = "fewshot"
    HEADERS = 4
    SHOTS = 8
    #: A call is one latency sample. A 10 s phase made 250 to 500 calls
    #: of one prompt, depending on host speed; calls of 2 made about 280
    #: on a quiet host, of 8 only 58.
    CALL_SIZE = 1
    MAX_TOKENS = 4
    #: Half the client's default 32 MB. Suffixes fill it after about 100
    #: calls; 32 MB filled only after about 300, late in a phase or never
    #: on a slow host. At 8 MB the headers themselves were evicted.
    PREFIX_CACHE_BYTES = 16 * 2**20
    #: Untimed calls that fill the prefix cache before the phase, so
    #: eviction runs from its first call. Calls grow about a fifth
    #: slower as the cache fills; timed from empty, a fast host spent
    #: less of its phase in that ramp than a slow one.
    WARM_CALLS = 128

    def build(self, seed: int, seconds: float, workdir: Path):
        source = generate_workload(DEPLOYMENT_SEED, examples_per_template=POOL_PER_TEMPLATE)
        rng = SeededRNG(DEPLOYMENT_SEED).spawn(self.name)
        distinct = list({example.question: example for example in source.examples}.values())
        by_length = sorted(distinct, key=lambda e: (len(e.question) + len(e.sql), e.question))
        shots = rng.sample(by_length[:200], self.HEADERS * self.SHOTS)
        headers = [
            " ; ".join(
                f"q : {e.question} ; sql : {e.sql}"
                for e in shots[k * self.SHOTS:(k + 1) * self.SHOTS]
            )
            for k in range(self.HEADERS)
        ]
        shot_questions = {e.question for e in shots}
        questions = SeededRNG(seed).spawn(self.name).shuffled(
            [e.question for e in distinct if e.question not in shot_questions]
        )
        prompts = [
            f"{headers[i % self.HEADERS]} ; q : {question} ; sql :"
            for i, question in enumerate(questions)
        ]
        tokenizer = WhitespaceTokenizer(lowercase=True)
        tokenizer.train(prompts, vocab_size=4096)
        longest = max(len(tokenizer.encode(p, add_bos=True).ids) for p in prompts)
        model = GPTModel(
            ModelConfig(
                vocab_size=tokenizer.vocab_size,
                max_seq_len=longest + self.MAX_TOKENS,
                dim=64,
                num_layers=12,
                num_heads=4,
                ff_dim=256,
                causal=True,
            ),
            seed=DEPLOYMENT_SEED,
        )
        hub = ModelHub()
        hub.register(self.ENGINE, model, tokenizer)
        warm, prompts = prompts[-self.CALL_SIZE:], prompts[:-self.CALL_SIZE]
        CompletionClient(hub).complete_batch(self.ENGINE, warm, max_tokens=self.MAX_TOKENS)
        fill, prompts = prompts[-self.WARM_CALLS:], prompts[:-self.WARM_CALLS]
        return SimpleNamespace(
            seed=seed,
            workdir=workdir,
            fill=fill,
            prompts=prompts,
            model=model,
            tokenizer=tokenizer,
            client=CompletionClient(hub, prefix_cache_bytes=self.PREFIX_CACHE_BYTES),
        )

    def warm(self, state) -> None:
        for prompt in state.fill:
            state.client.complete_batch(self.ENGINE, [prompt], max_tokens=self.MAX_TOKENS)

    def run(self, state, seconds: float) -> Phase:
        phase = Phase()
        prompts = state.prompts
        start = clock()
        cursor = 0
        while clock() - start < seconds and cursor < len(prompts):
            batch = prompts[cursor: cursor + self.CALL_SIZE]
            phase.attempted += len(batch)
            call_start = clock()
            try:
                responses = state.client.complete_batch(
                    self.ENGINE, batch, max_tokens=self.MAX_TOKENS
                )
            except ReproError:
                phase.failed += len(batch)
                cursor += len(batch)
                continue
            phase.answer(clock() - call_start, len(batch))
            phase.records.extend(
                (cursor + k, response.text) for k, response in enumerate(responses)
            )
            cursor += len(batch)
            phase.speed.tick()
        phase.elapsed = clock() - start - phase.speed.spent
        if cursor >= len(prompts):
            raise RuntimeError("the prompt list ran out before the phase ended")
        return phase

    def check(self, state, phase: Phase) -> List[str]:
        problems = []
        config = GenerationConfig(
            max_new_tokens=self.MAX_TOKENS, stop_ids=(state.tokenizer.vocab.eos_id,)
        )
        rng = SeededRNG(state.seed).spawn("oracle")
        for index, text in rng.sample(phase.records, min(ORACLE_SAMPLE, len(phase.records))):
            ids = state.tokenizer.encode(state.prompts[index], add_bos=True).ids
            oracle = state.tokenizer.decode(generate(state.model, ids, config)).strip()
            if oracle != text:
                problems.append(f"prompt {index}: served {text!r}, oracle {oracle!r}")
        return problems

    def layer_inputs(self, state, phase: Phase) -> Dict[str, float]:
        return {}

    def extras(self, state, phase: Phase) -> Dict[str, Tuple[float, str]]:
        return {}

    def close(self, state) -> None:
        pass


class SQLReadWrite:
    """A single client's statement mix on a durable, replicated cluster.

    Closed loop over a seeded statement stream on 2 shards holding 2000
    entity rows: 15% point SELECT by the indexed partition key, 10%
    GROUP BY, 10% join, 15% INSERT, 35% UPDATE by key, 15% DELETE of an
    earlier insert. Every write fsyncs its commit and ships its WAL
    frames to the shard's replica before it returns.
    """

    #: Point reads (0.5 ms) and inserts (1.5 ms) are the fast kinds;
    #: UPDATE and DELETE by key (14 ms) come next, then GROUP BY (17 ms)
    #: and joins (28 ms). With the fast kinds at 30% and UPDATE/DELETE at
    #: 50%, the median falls 40% of the way into the UPDATE/DELETE mode,
    #: clear of its broad lower edge. With 30% point reads the fast kinds
    #: made 45%, the median sat on that edge and spread 39% across seeds;
    #: now it spreads 2%.
    BLOCK = (
        ("point",) * 3 + ("group",) * 2 + ("join",) * 2
        + ("insert",) * 3 + ("update",) * 7 + ("delete",) * 3
    )

    name = "sql-rw"
    ROWS = 2000
    #: statements generated per second of phase: six times what the
    #: cluster ran on the 2-vCPU host the README names
    STREAM_PER_SECOND = 400

    def build(self, seed: int, seconds: float, workdir: Path):
        source = generate_workload(
            DEPLOYMENT_SEED, num_rows=self.ROWS, examples_per_template=1
        )
        # The partition key is the row key; point reads go through its index.
        source.db.table(source.entity_table).create_index(source.name_col)
        initial = dump_database(source.db)
        cluster = ClusterDatabase.from_database(
            source.db, workdir / "cluster", num_shards=2
        )
        statements = self.statements(
            source, seed, int(self.STREAM_PER_SECOND * seconds)
        )
        for sql, is_write in statements[:8]:
            if not is_write:
                cluster.execute(sql)
        return SimpleNamespace(
            workdir=workdir,
            initial=initial,
            statements=statements,
            cluster=cluster,
            cluster_closed=False,
        )

    @classmethod
    def statements(cls, source, seed: int, count: int) -> List[Tuple[str, bool]]:
        """``(sql, is_write)`` pairs, ``BLOCK`` by ``BLOCK``, from the seed.

        Each block holds the mix exactly, in a shuffled order, so every
        run's share of each statement kind is the declared one.
        """
        rng = SeededRNG(seed).spawn("sql-rw")
        t, c = source.entity_table, source.cat_table
        key, cat, attr = source.name_col, source.cat_col, source.cat_attr
        num_a, num_b = source.num_cols
        entity = source.db.table(t)
        keys = list(entity.column_values(key))
        cats = sorted(set(entity.column_values(cat)))
        inserted: List[str] = []
        out: List[Tuple[str, bool]] = []
        while len(out) < count:
            for kind in rng.shuffled(cls.BLOCK):
                if kind == "delete" and not inserted:
                    kind = "insert"  # nothing inserted yet to delete
                if kind == "point":
                    sql = f"SELECT * FROM {t} WHERE {key} = '{rng.choice(keys)}'"
                elif kind == "group":
                    sql = (
                        f"SELECT {cat}, COUNT(*), SUM({num_a}), MAX({num_b}) "
                        f"FROM {t} GROUP BY {cat}"
                    )
                elif kind == "join":
                    sql = (
                        f"SELECT {t}.{key}, {c}.{attr} FROM {t} JOIN {c} "
                        f"ON {t}.{cat} = {c}.{cat} "
                        f"WHERE {t}.{num_a} > {rng.randint(85, 100)}"
                    )
                elif kind == "update":
                    sql = (
                        f"UPDATE {t} SET {num_b} = {num_b} + 1 "
                        f"WHERE {key} = '{rng.choice(keys)}'"
                    )
                elif kind == "delete":
                    victim = inserted.pop(rng.randint(0, len(inserted)))
                    keys.remove(victim)
                    sql = f"DELETE FROM {t} WHERE {key} = '{victim}'"
                else:
                    name = f"n{seed}x{len(out)}"
                    inserted.append(name)
                    keys.append(name)
                    sql = (
                        f"INSERT INTO {t} VALUES ('{name}', '{rng.choice(cats)}', "
                        f"{rng.randint(10, 100)}, {rng.randint(10, 100)})"
                    )
                out.append((sql, kind in ("insert", "update", "delete")))
        return out

    def run(self, state, seconds: float) -> Phase:
        phase = Phase()
        cluster = state.cluster
        start = clock()
        for sql, is_write in state.statements:
            if clock() - start >= seconds:
                break
            phase.attempted += 1
            began = clock()
            try:
                result = cluster.execute(sql)
            except ReproError:
                phase.failed += 1
                continue
            phase.answer(clock() - began)
            phase.records.append(
                (sql, is_write, result.rowcount if is_write else result.rows)
            )
            phase.speed.tick()
        phase.elapsed = clock() - start - phase.speed.spent
        if phase.attempted == len(state.statements):
            raise RuntimeError("the statement stream ran out before the phase ended")
        return phase

    def check(self, state, phase: Phase) -> List[str]:
        """Replay on a single-node shadow, then reopen the cluster."""
        shadow = restore_database(state.initial, Database())
        problems = []
        for sql, is_write, got in phase.records:
            want = shadow.execute(sql)
            if is_write and got != want.rowcount:
                problems.append(f"{sql}: rowcount {got}, shadow {want.rowcount}")
            elif not is_write and Counter(got) != Counter(want.rows):
                problems.append(f"{sql}: rows differ from the shadow")
        close_cluster(state)
        reopened = ClusterDatabase(state.cluster.directory)
        try:
            if reopened.state() != canonicalize(dump_database(shadow)):
                problems.append("reopened cluster state differs from the shadow")
        finally:
            reopened.close()
        return problems

    def layer_inputs(self, state, phase: Phase) -> Dict[str, float]:
        writes = [sql for sql, is_write, _ in phase.records if is_write]
        return {
            "writes": len(writes),
            "write_sql_bytes": sum(len(sql.encode("utf-8")) for sql in writes),
        }

    def extras(self, state, phase: Phase) -> Dict[str, Tuple[float, str]]:
        out = {}
        for label, wanted in (("read", False), ("write", True)):
            lat = [
                latency
                for latency, (_, is_write, _) in zip(phase.latencies, phase.records)
                if is_write is wanted
            ]
            # 500 to 900 of each kind per phase: p99 would have under ten beyond it
            for q in (50, 90):
                out[f"{label}_p{q}_ms"] = (percentile(lat, q) * 1e3, "ms")
        return out

    def close(self, state) -> None:
        close_cluster(state)
        shutil.rmtree(state.workdir / "cluster", ignore_errors=True)


WORKLOADS = {w.name: w for w in (T2SQLOnline, T2SQLBatch, FewShotPrefill, SQLReadWrite)}
