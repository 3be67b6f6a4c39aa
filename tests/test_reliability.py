"""Tests for repro.reliability: clocks, retries, breakers, fault injection,
the resilient client, and the hardened consumers (text2sql, CodexDB,
wrangle imputation)."""

import dataclasses

import pytest

from repro.api import CompletionClient, ModelHub
from repro.api.client import CompletionChoice, CompletionResponse, Usage
from repro.codexdb import evaluate_codexdb
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ModelError,
    RateLimitError,
    ReproError,
    RequestTimeoutError,
    TransientError,
)
from repro.reliability import (
    CLOSED,
    DEGRADED_ENGINE,
    FAULT_FREE,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    FaultProfile,
    FaultyCompletionClient,
    ResilientClient,
    Retrier,
    RetryPolicy,
    TokenBucket,
    VirtualClock,
    decorrelated_jitter,
)
from repro.sql import Database
from repro.text2sql import (
    ClientTranslator,
    RuleBasedTranslator,
    evaluate_translator,
    generate_workload,
    register_translator,
)
from repro.utils.rng import SeededRNG
from repro.wrangle import ClientImputer, generate_imputation_dataset


#: the acceptance fault profile: >=30% transient errors plus periodic
#: rate limiting, with occasional garbled completions on top
HEAVY_FAULTS = FaultProfile(
    transient_rate=0.25,
    timeout_rate=0.10,
    garble_rate=0.10,
    rate_limit_every=7,
    retry_after=0.5,
    latency=0.01,
)


class TestVirtualClock:
    def test_monotonic_starts_at_start(self):
        assert VirtualClock().monotonic() == 0.0
        assert VirtualClock(start=5.0).monotonic() == 5.0

    def test_sleep_advances_and_logs(self):
        clock = VirtualClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.monotonic() == 2.0
        assert clock.slept == 2.0
        assert clock.sleep_log == [1.5, 0.5]

    def test_advance_does_not_log(self):
        clock = VirtualClock()
        clock.advance(3.0)
        assert clock.monotonic() == 3.0
        assert clock.sleep_log == []

    def test_negative_durations_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ReproError):
            clock.sleep(-1.0)
        with pytest.raises(ReproError):
            clock.advance(-1.0)


class TestBackoff:
    def test_jitter_within_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        rng = SeededRNG(0)
        delay = policy.base_delay
        for _ in range(50):
            delay = decorrelated_jitter(policy, delay, rng)
            assert policy.base_delay <= delay <= policy.max_delay

    def test_jitter_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        a = [decorrelated_jitter(policy, 0.1, SeededRNG(7)) for _ in range(1)]
        b = [decorrelated_jitter(policy, 0.1, SeededRNG(7)) for _ in range(1)]
        assert a == b

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(deadline=0.0)


class TestRetrier:
    def _flaky(self, failures, exc_factory=lambda i: TransientError("boom")):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exc_factory(calls["n"])
            return "ok"

        return fn, calls

    def test_succeeds_after_transient_failures(self):
        clock = VirtualClock()
        retrier = Retrier(RetryPolicy(max_retries=5), clock=clock, seed=0)
        fn, calls = self._flaky(3)
        assert retrier.call(fn) == "ok"
        assert calls["n"] == 4
        assert retrier.retries == 3
        assert clock.slept > 0

    def test_exhausted_retries_reraise(self):
        retrier = Retrier(RetryPolicy(max_retries=2), clock=VirtualClock())
        fn, calls = self._flaky(10)
        with pytest.raises(TransientError):
            retrier.call(fn)
        assert calls["n"] == 3  # initial + 2 retries

    def test_permanent_errors_not_retried(self):
        retrier = Retrier(clock=VirtualClock())
        fn, calls = self._flaky(1, exc_factory=lambda i: ModelError("no"))
        with pytest.raises(ModelError):
            retrier.call(fn)
        assert calls["n"] == 1

    def test_rate_limit_honors_retry_after(self):
        clock = VirtualClock()
        retrier = Retrier(
            RetryPolicy(max_retries=3, base_delay=0.01, max_delay=0.05),
            clock=clock,
        )
        fn, _ = self._flaky(
            1, exc_factory=lambda i: RateLimitError("429", retry_after=4.0)
        )
        assert retrier.call(fn) == "ok"
        assert clock.slept >= 4.0
        assert retrier.rate_limited == 1

    def test_deadline_exceeded_instead_of_oversleeping(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_retries=10, deadline=2.0)
        retrier = Retrier(policy, clock=clock)
        fn, _ = self._flaky(
            99, exc_factory=lambda i: RateLimitError("429", retry_after=5.0)
        )
        with pytest.raises(DeadlineExceededError):
            retrier.call(fn)
        # The loop refused to start a sleep that would overspend the
        # budget, so simulated time never passed the deadline.
        assert clock.monotonic() <= policy.deadline

    def test_deterministic_backoff_schedule(self):
        def run():
            clock = VirtualClock()
            retrier = Retrier(RetryPolicy(max_retries=5), clock=clock, seed=3)
            fn, _ = self._flaky(4)
            retrier.call(fn)
            return clock.sleep_log

        assert run() == run()


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        assert breaker.state == CLOSED
        tripped = [breaker.record_failure() for _ in range(3)]
        assert tripped == [False, False, True]
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_after_timeout_then_close_on_success(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.record_failure()  # failed probe trips immediately
        assert breaker.state == OPEN
        assert breaker.trips == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=VirtualClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_invalid_config_rejected(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(reset_timeout=0.0)


class TestTokenBucket:
    def test_burst_then_wait(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(0.5)
        assert clock.slept == pytest.approx(0.5)
        assert bucket.waited == pytest.approx(0.5)

    def test_refills_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock)
        assert bucket.try_acquire(3.0)
        assert not bucket.try_acquire()
        clock.advance(2.0)
        assert bucket.tokens == pytest.approx(2.0)
        assert bucket.try_acquire(2.0)

    def test_capacity_clamps_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_invalid_use_rejected(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=VirtualClock())
        with pytest.raises(ReproError):
            bucket.acquire(0)
        with pytest.raises(ReproError):
            bucket.acquire(3.0)
        with pytest.raises(ReproError):
            TokenBucket(rate=0.0)


class TestFaultInjector:
    def test_fault_free_profile_never_raises(self):
        injector = FaultInjector(FAULT_FREE, seed=0)
        for _ in range(100):
            injector.before_request()
        assert injector.counts == {
            "rate_limit": 0, "transient": 0, "timeout": 0, "garbled": 0,
        }

    def test_periodic_rate_limit(self):
        injector = FaultInjector(
            FaultProfile(rate_limit_every=3, retry_after=2.5), seed=0
        )
        outcomes = []
        for _ in range(9):
            try:
                injector.before_request()
                outcomes.append("ok")
            except RateLimitError as exc:
                outcomes.append("rl")
                assert exc.retry_after == 2.5
        assert outcomes == ["ok", "ok", "rl"] * 3

    def test_deterministic_fault_sequence(self):
        def sequence(seed):
            injector = FaultInjector(HEAVY_FAULTS, seed=seed, clock=VirtualClock())
            kinds = []
            for _ in range(60):
                try:
                    injector.before_request()
                    kinds.append("ok")
                except ReproError as exc:
                    kinds.append(type(exc).__name__)
            return kinds

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)

    def test_transient_taxonomy(self):
        injector = FaultInjector(
            FaultProfile(timeout_rate=0.99), seed=0, clock=VirtualClock()
        )
        with pytest.raises(RequestTimeoutError) as excinfo:
            for _ in range(50):
                injector.before_request()
        assert isinstance(excinfo.value, TransientError)

    def test_latency_charged_to_clock(self):
        clock = VirtualClock()
        injector = FaultInjector(FaultProfile(latency=0.2), seed=0, clock=clock)
        injector.before_request()
        injector.before_request()
        assert clock.monotonic() == pytest.approx(0.4)

    def test_garble_truncates(self):
        injector = FaultInjector(FaultProfile(garble_rate=0.999), seed=0)
        text, garbled = injector.maybe_garble("select a from t")
        assert garbled
        assert len(text) <= len("select a from t")

    def test_invalid_profile_rejected(self):
        with pytest.raises(ReproError):
            FaultProfile(transient_rate=1.0)
        with pytest.raises(ReproError):
            FaultProfile(rate_limit_every=-1)
        with pytest.raises(ReproError):
            FaultProfile(latency=-0.1)


def _response(engine, text):
    return CompletionResponse(
        engine=engine,
        choices=[CompletionChoice(text=text, index=0, finish_reason="stop")],
        usage=Usage(prompt_tokens=1, completion_tokens=1),
    )


class ScriptedClient:
    """A CompletionClient stand-in that fails on command.

    ``script`` maps engine -> list of exceptions (to raise) or strings
    (to return); entries are consumed in order, and the last entry
    repeats forever.
    """

    def __init__(self, script):
        self.script = {k: list(v) for k, v in script.items()}
        self.calls = []

    def _next(self, engine):
        self.calls.append(engine)
        entries = self.script[engine]
        entry = entries.pop(0) if len(entries) > 1 else entries[0]
        if isinstance(entry, Exception):
            raise entry
        return entry

    def complete(self, engine, prompt, **kwargs):
        return _response(engine, self._next(engine))

    def complete_batch(self, engine, prompts, **kwargs):
        """One scripted entry answers (or fails) the whole batch."""
        text = self._next(engine)
        return [_response(engine, text) for _ in prompts]


class TestResilientClient:
    def test_retries_then_succeeds(self):
        clock = VirtualClock()
        stub = ScriptedClient(
            {"big": [TransientError("a"), TransientError("b"), "answer"]}
        )
        client = ResilientClient(stub, clock=clock, seed=0)
        response = client.complete("big", "prompt")
        assert response.text == "answer"
        metrics = client.metrics
        assert metrics.retries == 2
        assert metrics.successes == 1
        assert metrics.fallbacks == 0
        assert clock.slept > 0

    def test_fallback_chain_order(self):
        stub = ScriptedClient(
            {"big": [TransientError("down")], "small": ["small says hi"]}
        )
        client = ResilientClient(
            stub,
            policy=RetryPolicy(max_retries=1),
            fallback_engines={"big": ["small"]},
            clock=VirtualClock(),
        )
        response = client.complete("big", "prompt")
        assert response.engine == "small"
        assert client.metrics.fallbacks == 1
        # big was tried (and retried) before small
        assert stub.calls[:2] == ["big", "big"] and stub.calls[-1] == "small"

    def test_breaker_short_circuits_dead_engine(self):
        stub = ScriptedClient(
            {"big": [TransientError("down")], "small": ["ok"]}
        )
        client = ResilientClient(
            stub,
            policy=RetryPolicy(max_retries=0),
            fallback_engines={"big": ["small"]},
            failure_threshold=2,
            reset_timeout=1000.0,
            clock=VirtualClock(),
        )
        for _ in range(4):
            assert client.complete("big", "p").engine == "small"
        metrics = client.metrics
        assert metrics.breaker_trips == 1
        assert metrics.breaker_short_circuits == 2  # requests 3 and 4
        assert client.breaker("big").state == OPEN
        # Once open, big is no longer attempted at all.
        assert stub.calls.count("big") == 2

    def test_degraded_baseline_answer(self):
        stub = ScriptedClient({"big": [TransientError("down")]})
        client = ResilientClient(
            stub,
            policy=RetryPolicy(max_retries=0),
            baseline=lambda prompt: "degraded answer",
            clock=VirtualClock(),
        )
        response = client.complete("big", "prompt")
        assert response.engine == DEGRADED_ENGINE
        assert response.text == "degraded answer"
        assert response.choices[0].finish_reason == "degraded"
        assert client.metrics.degraded_answers == 1

    def test_terminal_error_without_baseline(self):
        stub = ScriptedClient({"big": [TransientError("down")]})
        client = ResilientClient(
            stub, policy=RetryPolicy(max_retries=0), clock=VirtualClock()
        )
        with pytest.raises(TransientError):
            client.complete("big", "prompt")
        assert client.metrics.exhausted == 1

    def test_circuit_open_error_when_whole_chain_is_open(self):
        stub = ScriptedClient({"big": [TransientError("down")]})
        client = ResilientClient(
            stub,
            policy=RetryPolicy(max_retries=0),
            failure_threshold=1,
            reset_timeout=1000.0,
            clock=VirtualClock(),
        )
        with pytest.raises(TransientError):
            client.complete("big", "prompt")
        with pytest.raises(CircuitOpenError):
            client.complete("big", "prompt")

    def test_deadline_stops_fallback_chain(self):
        clock = VirtualClock()
        stub = ScriptedClient(
            {
                "big": [RateLimitError("429", retry_after=10.0)],
                "small": ["never reached"],
            }
        )
        client = ResilientClient(
            stub,
            policy=RetryPolicy(max_retries=5, deadline=1.0),
            fallback_engines={"big": ["small"]},
            baseline=lambda prompt: "from baseline",
            clock=clock,
        )
        response = client.complete("big", "prompt")
        assert response.engine == DEGRADED_ENGINE
        assert client.metrics.deadline_exceeded == 1
        assert "small" not in stub.calls

    def test_rate_limiter_throttles(self):
        clock = VirtualClock()
        stub = ScriptedClient({"big": ["ok"]})
        client = ResilientClient(
            stub, requests_per_second=2.0, burst=1.0, clock=clock
        )
        for _ in range(3):
            client.complete("big", "p")
        assert client.metrics.throttle_seconds == pytest.approx(1.0)
        assert clock.slept == pytest.approx(1.0)

    def test_metrics_as_dict_is_complete(self):
        client = ResilientClient(ScriptedClient({"e": ["x"]}), clock=VirtualClock())
        client.complete("e", "p")
        snapshot = client.metrics.as_dict()
        assert snapshot["requests"] == 1
        assert set(snapshot) == {
            f.name for f in dataclasses.fields(client.metrics)
        }


@pytest.fixture(scope="module")
def hub(tiny_gpt_module, word_tokenizer_module):
    hub = ModelHub()
    hub.register("tiny-gpt", tiny_gpt_module, word_tokenizer_module)
    # The same weights under a second name play the "smaller engine" in
    # fallback chains.
    hub.register("tiny-gpt-mini", tiny_gpt_module, word_tokenizer_module)
    return hub


@pytest.fixture(scope="module")
def tiny_gpt_module(tiny_gpt):
    return tiny_gpt


@pytest.fixture(scope="module")
def word_tokenizer_module(word_tokenizer):
    return word_tokenizer


def _resilient_over_faults(hub, seed):
    clock = VirtualClock()
    injector = FaultInjector(HEAVY_FAULTS, seed=seed, clock=clock)
    faulty = FaultyCompletionClient(CompletionClient(hub), injector)
    resilient = ResilientClient(
        faulty,
        policy=RetryPolicy(max_retries=6, base_delay=0.05, max_delay=1.0),
        fallback_engines={"tiny-gpt": ["tiny-gpt-mini"]},
        failure_threshold=4,
        reset_timeout=5.0,
        baseline=lambda prompt: "",
        clock=clock,
        seed=seed,
    )
    return resilient, injector


class TestResilientCompletionIntegration:
    """The acceptance scenario: a real hub behind heavy injected faults."""

    PROMPTS = [f"the {noun} returns" for noun in ("database", "table", "index")] * 8

    def _run(self, hub, seed):
        client, injector = _resilient_over_faults(hub, seed)
        texts = [client.complete("tiny-gpt", p, max_tokens=4).text for p in self.PROMPTS]
        return texts, client.metrics.as_dict(), dict(injector.counts)

    def test_all_requests_answered_under_heavy_faults(self, hub):
        texts, metrics, injected = self._run(hub, seed=11)
        assert len(texts) == len(self.PROMPTS)
        assert metrics["successes"] + metrics["degraded_answers"] == len(self.PROMPTS)
        # the profile really did fire: periodic rate limits + transients
        assert injected["rate_limit"] > 0
        assert injected["transient"] + injected["timeout"] > 0
        assert metrics["retries"] > 0

    def test_same_seed_same_retries_fallbacks_results(self, hub):
        assert self._run(hub, seed=11) == self._run(hub, seed=11)

    def test_different_seed_different_fault_history(self, hub):
        _, metrics_a, injected_a = self._run(hub, seed=11)
        _, metrics_b, injected_b = self._run(hub, seed=12)
        assert (metrics_a, injected_a) != (metrics_b, injected_b)


class TestClientTranslatorReliability:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(seed=0, examples_per_template=2)

    def _translator(self, hub, workload, seed):
        client, _ = _resilient_over_faults(hub, seed)
        return ClientTranslator(
            client,
            engine="tiny-gpt",
            workload=workload,
            max_new_tokens=8,
            fallback=RuleBasedTranslator(workload).translate,
        ), client

    def test_workload_completes_under_faults(self, hub, workload):
        translator, client = self._translator(hub, workload, seed=2)
        examples = workload.examples[:12]
        report = evaluate_translator(
            translator.translate, workload, examples, reliability_source=client
        )
        assert report.total == len(examples)  # zero unhandled exceptions
        assert report.reliability is not None
        assert report.reliability["requests"] == len(examples)
        assert report.reliability["retries"] > 0

    def test_deterministic_reports(self, hub, workload):
        def run():
            translator, client = self._translator(hub, workload, seed=2)
            report = evaluate_translator(
                translator.translate,
                workload,
                workload.examples[:12],
                reliability_source=client,
            )
            return (
                report.correct,
                report.reliability,
                translator.degraded,
            )

        assert run() == run()

    def test_degrades_to_rule_baseline_when_channel_dead(self, workload):
        stub = ScriptedClient({"tiny-gpt": [TransientError("down")]})
        client = ResilientClient(
            stub, policy=RetryPolicy(max_retries=0), clock=VirtualClock()
        )
        translator = ClientTranslator(
            client,
            engine="tiny-gpt",
            workload=workload,
            fallback=RuleBasedTranslator(workload).translate,
        )
        example = workload.examples[0]
        sql = translator.translate(example.question)
        assert translator.degraded == 1
        assert sql  # the rule baseline produced something

    def test_register_translator_roundtrip(self, hub, workload, tiny_gpt_module, word_tokenizer_module):
        from repro.text2sql.translator import LMTranslator

        translator = LMTranslator(
            model=tiny_gpt_module, tokenizer=word_tokenizer_module, workload=workload
        )
        name = register_translator(hub, "translator-engine", translator)
        assert name in hub


class TestCodexDBReliability:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INT)")
        database.execute(
            "INSERT INTO emp VALUES ('a', 'eng', 100), ('b', 'eng', 80), "
            "('c', 'sales', 90)"
        )
        return database

    QUERIES = [
        "SELECT name FROM emp",
        "SELECT name FROM emp WHERE salary > 85",
        "SELECT count ( * ) FROM emp",
    ]

    def _report(self, db, seed):
        # A shorter rate-limit period than HEAVY_FAULTS: this workload
        # makes far fewer requests than the completion benchmarks.
        profile = dataclasses.replace(HEAVY_FAULTS, rate_limit_every=3)
        return evaluate_codexdb(
            db,
            self.QUERIES,
            max_attempts=5,
            error_rate=0.2,
            seed=seed,
            fault_profile=profile,
            retry_policy=RetryPolicy(max_retries=6, base_delay=0.05, max_delay=1.0),
        )

    def test_workload_completes_under_faults(self, db):
        report = self._report(db, seed=1)
        assert report.total == len(self.QUERIES)  # zero unhandled exceptions
        assert report.succeeded == len(self.QUERIES)
        assert report.reliability is not None
        assert report.reliability["retries"] > 0
        assert report.reliability["injected_rate_limit"] > 0

    def test_deterministic_reports(self, db):
        a, b = self._report(db, seed=1), self._report(db, seed=1)
        assert (a.succeeded, a.attempts_used, a.reliability) == (
            b.succeeded, b.attempts_used, b.reliability,
        )

    def test_no_fault_profile_keeps_legacy_behaviour(self, db):
        report = evaluate_codexdb(db, self.QUERIES, error_rate=0.0, seed=0)
        assert report.reliability is None
        assert report.failed_transient == 0
        assert report.succeeded == len(self.QUERIES)


class TestClientImputerReliability:
    @pytest.fixture(scope="class")
    def dataset(self):
        examples = generate_imputation_dataset(num_examples=40, seed=0)
        return examples[:30], examples[30:]

    def test_predicts_without_exceptions_under_faults(self, hub, dataset):
        train, test = dataset
        client, _ = _resilient_over_faults(hub, seed=4)
        imputer = ClientImputer(client, engine="tiny-gpt", seed=0).fit(train)
        predictions = [imputer.predict(e) for e in test]
        assert len(predictions) == len(test)
        # Every answer is a legal class value (degraded ones come from
        # the majority baseline).
        assert all(p in imputer.classes for p in predictions)

    def test_deterministic_predictions(self, hub, dataset):
        train, test = dataset

        def run():
            client, _ = _resilient_over_faults(hub, seed=4)
            imputer = ClientImputer(client, engine="tiny-gpt", seed=0).fit(train)
            return (
                [imputer.predict(e) for e in test],
                imputer.degraded,
                imputer.fallbacks,
            )

        assert run() == run()

    def test_dead_channel_degrades_to_majority(self, dataset):
        train, test = dataset
        stub = ScriptedClient({"tiny-gpt": [TransientError("down")]})
        client = ResilientClient(
            stub, policy=RetryPolicy(max_retries=0), clock=VirtualClock()
        )
        imputer = ClientImputer(client, engine="tiny-gpt").fit(train)
        prediction = imputer.predict(test[0])
        assert imputer.degraded == 1
        assert prediction == imputer._fallback._majority

    def test_unfitted_rejected(self):
        from repro.errors import WrangleError

        imputer = ClientImputer(ScriptedClient({}), engine="e")
        with pytest.raises(WrangleError):
            imputer.predict(None)
