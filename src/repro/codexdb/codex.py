"""The simulated Codex model and the CodexDB generate/validate/retry loop.

The real CodexDB samples multiple programs from GPT-3 Codex, executes
each, and keeps the first that runs (validating against reference
results where available). :class:`SimulatedCodex` reproduces exactly that
interface: it synthesizes a program per request, but a seeded error
model corrupts a fraction of candidates (wrong column, dropped filter,
flipped comparison) so the retry loop and the success-at-k metric stay
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, render_findings
from repro.analysis.sqlcheck import check_sql
from repro.errors import (
    CodexDBError,
    DeadlineExceededError,
    StaticAnalysisError,
    TransientError,
)
from repro.reliability.retry import Retrier
from repro.serving import engine_serving_stats
from repro.sql import Database
from repro.sql.ast import BinaryOp, ColumnRef, SelectItem
from repro.codexdb.codegen import CodeGenOptions, generate_python
from repro.codexdb.planner import PlanStep, plan_query
from repro.codexdb.sandbox import ExecutionOutcome, run_generated_code
from repro.utils.rng import SeededRNG


@dataclass
class SynthesisResult:
    """Outcome of one CodexDB request.

    ``static_rejections`` and ``runtime_failures`` break down the failed
    attempts: candidates the analyzer refused to execute versus
    candidates that crashed (or misbehaved) while running.
    ``transient_failures`` counts attempts lost to the serving channel
    itself — requests that still failed after the retrier gave up.
    """

    code: str
    outcome: Optional[ExecutionOutcome]
    attempts: int
    succeeded: bool
    static_rejections: int = 0
    runtime_failures: int = 0
    transient_failures: int = 0


class SimulatedCodex:
    """Stands in for the GPT-3 Codex API.

    ``error_rate`` is the probability that a sampled candidate program
    is corrupted. Corruptions are the realistic failure modes of LM code
    generation: referencing the wrong column, dropping a filter, or
    flipping a comparison operator. ``unsafe_rate`` adds a second
    failure mode: the candidate gratuitously imports ``os`` — exactly
    the kind of program static analysis must stop before it runs.

    When the caller passes the previous attempt's analyzer findings as
    ``feedback``, the simulated model "reads the error report" and
    produces a repaired, uncorrupted candidate — mirroring how the real
    CodexDB folds failure messages into the regeneration prompt.
    """

    def __init__(
        self, error_rate: float = 0.3, seed: int = 0, unsafe_rate: float = 0.0
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise CodexDBError("error_rate must be in [0, 1)")
        if not 0.0 <= unsafe_rate < 1.0:
            raise CodexDBError("unsafe_rate must be in [0, 1)")
        self.error_rate = error_rate
        self.unsafe_rate = unsafe_rate
        self._rng = SeededRNG(seed)
        self.samples_served = 0

    def sample_program(
        self,
        sql: str,
        options: CodeGenOptions,
        feedback: Optional[Sequence[Finding]] = None,
    ) -> str:
        """Return one candidate Python program for ``sql``."""
        self.samples_served += 1
        steps = plan_query(sql)
        if feedback:
            # Regeneration with the analyzer's findings in the prompt:
            # the model fixes the reported problem.
            return generate_python(steps, options)
        if self._rng.coin(self.unsafe_rate):
            return "import os\n" + generate_python(steps, options)
        if self._rng.coin(self.error_rate):
            steps = self._corrupt(steps)
        return generate_python(steps, options)

    def sample_programs(
        self,
        sql: str,
        options: CodeGenOptions,
        k: int,
        feedback: Optional[Sequence[Finding]] = None,
    ) -> List[str]:
        """Draw ``k`` candidate programs in one batched request.

        Candidate ``i`` consumes the error-model RNG exactly as the
        ``i``-th :meth:`sample_program` call would, so a batch of ``k``
        is bit-identical to ``k`` sequential draws.
        """
        if k <= 0:
            raise CodexDBError("k must be positive")
        return [self.sample_program(sql, options, feedback=feedback) for _ in range(k)]

    def _corrupt(self, steps: List[PlanStep]) -> List[PlanStep]:
        """Inject one plausible bug into the plan."""
        mode = self._rng.randint(0, 3)
        corrupted = list(steps)
        if mode == 0:
            # Drop the filter (if any): program runs but over-counts.
            corrupted = [s for s in corrupted if s.kind != "filter"]
        elif mode == 1:
            # Reference a bogus column in the projection: crashes.
            for i, step in enumerate(corrupted):
                if step.kind == "project":
                    items = list(step.args["items"])
                    items[0] = SelectItem(expr=ColumnRef(name="nonexistent_col"))
                    corrupted[i] = PlanStep(kind="project", args={"items": items})
                    break
            else:
                corrupted = [s for s in corrupted if s.kind != "filter"]
        else:
            # Flip a comparison in the filter: wrong rows survive.
            for i, step in enumerate(corrupted):
                if step.kind == "filter":
                    predicate = step.args["predicate"]
                    if isinstance(predicate, BinaryOp) and predicate.op in ("<", ">"):
                        flipped = BinaryOp(
                            op=">" if predicate.op == "<" else "<",
                            left=predicate.left,
                            right=predicate.right,
                        )
                        corrupted[i] = PlanStep(
                            kind="filter", args={"predicate": flipped}
                        )
                        break
            else:
                corrupted = corrupted[:-1] if len(corrupted) > 1 else corrupted
        return corrupted


#: instruction header shared by every ClientCodex prompt — the constant
#: prefix is what the serving layer's prefix cache amortizes across a
#: workload of queries.
CODEX_PROMPT_HEADER = (
    "task : translate sql queries into python programs over in-memory "
    "tables ; emit only code ;"
)


class ClientCodex:
    """Codex served over the completion-API channel.

    Drop-in for :class:`SimulatedCodex` in the :class:`CodexDB` loop,
    but the candidate programs come from a hub-registered LM through a
    :class:`~repro.api.CompletionClient`-shaped object. Every prompt is
    the fixed :data:`CODEX_PROMPT_HEADER` plus the query (and any
    analyzer feedback as comment lines), so across a workload the
    engine's prefix cache absorbs the header's prefill and a ``k``-wide
    speculative wave shares one prompt prefill (``n=k``).

    The tiny models in this repo do not actually emit runnable Python —
    candidates flow into the sandbox and are rejected statically, which
    exercises exactly the CodexDB failure path the paper describes for
    unvetted model output.
    """

    def __init__(self, client, engine: str, max_tokens: int = 48) -> None:
        self.client = client
        self.engine = engine
        self.max_tokens = max_tokens
        self.samples_served = 0

    def build_prompt(
        self, sql: str, feedback: Optional[Sequence[Finding]] = None
    ) -> str:
        """Header + query (+ feedback comments) — header first, so every
        prompt for the same engine shares the cacheable prefix."""
        parts = [CODEX_PROMPT_HEADER]
        if feedback:
            parts.extend(f"# fix : {f.message}" for f in feedback)
        parts.append(f"# sql : {sql}")
        return " ".join(parts)

    def sample_program(
        self,
        sql: str,
        options: CodeGenOptions,
        feedback: Optional[Sequence[Finding]] = None,
    ) -> str:
        """Return one candidate program from the serving channel."""
        return self.sample_programs(sql, options, 1, feedback=feedback)[0]

    def sample_programs(
        self,
        sql: str,
        options: CodeGenOptions,
        k: int,
        feedback: Optional[Sequence[Finding]] = None,
    ) -> List[str]:
        """Draw ``k`` candidates as one ``n=k`` batched request."""
        if k <= 0:
            raise CodexDBError("k must be positive")
        (response,) = self.client.complete_batch(
            self.engine,
            [self.build_prompt(sql, feedback)],
            max_tokens=self.max_tokens,
            n=k,
        )
        self.samples_served += k
        return [choice.text for choice in response.choices]

    def serving_stats(self) -> dict:
        """Prefix-cache / batching counters for this Codex's engine."""
        return engine_serving_stats(self.client, self.engine)


class CodexDB:
    """Synthesize, validate, and retry — CodexDB's outer loop.

    Validation compares candidate output against the native engine's
    result for the same query (CodexDB validates on examples with known
    results; our engine plays that role).
    """

    def __init__(
        self,
        db: Database,
        codex: SimulatedCodex,
        options: CodeGenOptions = CodeGenOptions(),
        retrier: Optional[Retrier] = None,
        speculative: int = 1,
    ) -> None:
        if speculative <= 0:
            raise CodexDBError("speculative must be positive")
        self.db = db
        self.codex = codex
        self.options = options
        #: when set, every sample_program call runs under retry/backoff
        #: (the resilient path for a fault-injected Codex channel)
        self.retrier = retrier
        #: candidates drawn per Codex request: > 1 samples a speculative
        #: wave up-front (one batched request covers several attempts)
        self.speculative = speculative

    def run(self, sql: str, max_attempts: int = 4) -> SynthesisResult:
        """Request programs until one validates (or attempts run out).

        Candidates that static analysis rejects never execute; their
        findings are fed back into the next :meth:`sample_program` call
        so the simulated model can regenerate a repaired candidate.
        With a retrier configured, transient serving failures (rate
        limits, server errors, timeouts) are retried with backoff; an
        attempt whose retries run out is recorded as a transient
        failure, not an unhandled exception.
        """
        query_findings = check_sql(sql, self.db.catalog)
        if query_findings:
            raise StaticAnalysisError(
                "input query rejected before synthesis:\n"
                + render_findings(query_findings),
                findings=query_findings,
            )
        reference = self._reference_rows(sql)
        tables = {name: self.db.table(name) for name in self.db.table_names()}
        last_code = ""
        static_rejections = 0
        runtime_failures = 0
        transient_failures = 0
        feedback: Optional[Sequence[Finding]] = None
        queue: List[str] = []
        for attempt in range(1, max_attempts + 1):
            try:
                code = self._next_candidate(
                    sql, feedback, queue, max_attempts - attempt + 1
                )
            except (TransientError, DeadlineExceededError):
                transient_failures += 1
                feedback = None
                continue
            last_code = code
            feedback = None
            try:
                outcome = run_generated_code(code, tables)
            except StaticAnalysisError as exc:
                static_rejections += 1
                feedback = exc.findings
                continue
            except CodexDBError as exc:
                if isinstance(exc.__cause__, StaticAnalysisError):
                    static_rejections += 1
                    feedback = exc.__cause__.findings
                else:
                    runtime_failures += 1
                continue
            if sorted(map(repr, outcome.rows)) == sorted(map(repr, reference)):
                return SynthesisResult(
                    code=code,
                    outcome=outcome,
                    attempts=attempt,
                    succeeded=True,
                    static_rejections=static_rejections,
                    runtime_failures=runtime_failures,
                    transient_failures=transient_failures,
                )
            runtime_failures += 1
        return SynthesisResult(
            code=last_code,
            outcome=None,
            attempts=max_attempts,
            succeeded=False,
            static_rejections=static_rejections,
            runtime_failures=runtime_failures,
            transient_failures=transient_failures,
        )

    def _next_candidate(
        self,
        sql: str,
        feedback: Optional[Sequence[Finding]],
        queue: List[str],
        remaining: int,
    ) -> str:
        """The next candidate to execute, refilling the speculative queue.

        Analyzer feedback invalidates any queued candidates — they were
        drawn without the error report in the prompt — so the repair
        path always regenerates sequentially.
        """
        if feedback is not None:
            queue.clear()
            return self._sample(sql, feedback)
        if not queue:
            wave = min(self.speculative, remaining)
            if wave <= 1:
                return self._sample(sql, None)
            queue.extend(self._sample_wave(sql, wave))
        return queue.pop(0)

    def _sample(self, sql: str, feedback: Optional[Sequence[Finding]]) -> str:
        """One Codex request, retried with backoff when configured."""
        def request() -> str:
            return self.codex.sample_program(sql, self.options, feedback=feedback)

        if self.retrier is None:
            return request()
        return self.retrier.call(request)

    def _sample_wave(self, sql: str, k: int) -> List[str]:
        """One batched Codex request for ``k`` speculative candidates."""
        def request() -> List[str]:
            return list(self.codex.sample_programs(sql, self.options, k))

        if self.retrier is None:
            return request()
        return self.retrier.call(request)

    def _reference_rows(self, sql: str) -> List[Tuple]:
        return self.db.execute(sql).rows
