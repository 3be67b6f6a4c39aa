"""Tests of the benchmark's own machinery; fast, no model training.

    python3 -m pytest e2ebench
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import run  # noqa: F401  (puts the program's sources on the path)
import compare
import hostspeed
import layers
import spec
import workloads
from spans import Tracer
from workloads import open_loop, percentile, supported


# -- open-loop timing ----------------------------------------------------------
def test_stall_neither_moves_due_times_nor_escapes_latency():
    """A 200 ms stall on the loop makes later requests late; their due
    times stay on schedule and their latency includes the wait."""
    offsets = [i * 0.010 for i in range(40)]
    dues = {}

    async def send(i, due):
        dues[i] = due
        if i == 5:
            # blocks the event loop on purpose, like a stalled caller
            time.sleep(0.200)  # repro: noqa[blocking-call-in-async, wall-clock]
        await asyncio.sleep(0)
        return time.perf_counter() - due

    lates, outcomes, _ = asyncio.run(open_loop(offsets, send))
    start = dues[0] - offsets[0]
    assert [dues[i] - start for i in range(40)] == pytest.approx(offsets, abs=1e-9)
    stall_end = dues[5] + 0.200
    for i in range(6, 40):
        waited = stall_end - dues[i]
        if waited > 0.02:
            assert lates[i] >= waited - 0.005
            assert outcomes[i] >= lates[i]
    assert outcomes[6] >= 0.18
    assert max(lates[30:]) < 0.05  # caught up: later sends are on time again


# -- percentiles ---------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_percentile_sample_count_rule():
    assert supported(100, 90) and not supported(99, 90)
    assert not supported(600, 99) and supported(600, 98)
    assert supported(1000, 99)
    # the open loop sends a fixed count, one latency sample per request
    count = round(workloads.T2SQLOnline.RATE * spec.load()["run_seconds"])
    assert supported(count, 90)


def test_reported_tail_comes_only_from_windows_that_support_it():
    """p90 is the median of per-window p90s, every window holds enough
    samples for ten beyond its p90, and fewer samples than one window
    give no p90 at all."""
    assert supported(workloads.WINDOW, 90)
    latencies = [k / 1000 for k in range(99)]
    with pytest.raises(ValueError, match="fewer than one window"):
        workloads.windowed_percentile(latencies, 90)
    assert workloads.windowed_percentile(latencies + [0.099], 90) == pytest.approx(0.089)

    # a slow spell over the middle window moves the pooled p90, not this
    spell = [k / 1000 for k in range(100)] + [0.5] * 100 + [k / 1000 for k in range(150)]
    assert percentile(spell, 90) == 0.5
    # the last window takes the 50 left over: its p90 is 134 ms
    assert workloads.windowed_percentile(spell, 90) == pytest.approx(0.134)


def test_e2e_throughput_counts_operations_and_median_counts_samples():
    phase = workloads.Phase(elapsed=2.0)
    phase.speed.samples = [(0.0, hostspeed.REFERENCE_S)]
    for k in range(10):
        phase.answer(k / 1000, operations=8)  # one batch call of 8 each
    values = run.e2e_metrics(1.0, phase, 50.0)
    assert values["ops_per_s"] == pytest.approx(40)
    assert values["p50_ms"] == pytest.approx(4.0)
    assert values["live_anon_mb"] == 50.0


def test_timings_read_at_the_reference_host_speed():
    """On a host that runs the kernel at half the reference speed, the
    phase's median halves and a closed loop's throughput doubles; an
    open loop's throughput is its send rate and stays."""
    closed, opened = workloads.Phase(elapsed=2.0), workloads.Phase(elapsed=2.0, open_loop=True)
    for phase in (closed, opened):
        phase.speed.samples = [(0.0, hostspeed.REFERENCE_S * 2)] * 3
        for k in range(10):
            phase.answer(k / 1000)
    for phase, ops in ((closed, 10), (opened, 5)):
        values = run.e2e_metrics(1.0, phase, 50.0)
        assert values["p50_ms"] == pytest.approx(2.0)
        assert values["ops_per_s"] == pytest.approx(ops)
        assert run.raw_timings(phase) == {"ops_per_s": 5, "p50_ms": pytest.approx(4.0)}


def test_setup_scales_each_build_by_the_samples_either_side_of_it():
    """Set-up samples come in bursts between steps. The first build runs
    at reference speed, the host drops to half speed during the second,
    and the third runs at half speed."""
    reference = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed()
    bursts = [(t, reference) for t in (0.0, 10.0)] + [
        (t, 2 * reference) for t in (13.0, 15.0)
    ]
    speed.samples = [
        sample for sample in bursts for _ in range(hostspeed.SETUP_SAMPLES)
    ]
    builds = [(2.0, 5.0), (3.0, 11.5), (4.0, 14.0)]
    assert run.setup_seconds(4.0, builds) == pytest.approx(4.0 + 3.0)
    # every build scales to 2.0 s (factors 1, 2/3 and 1/2); the fine-tune stays
    assert run.setup_seconds(4.0, builds, speed) == pytest.approx(4.0 + 2.0)


def test_live_memory_leaves_out_mapped_files_and_freed_heap():
    before = run.live_anon_mb()
    assert 0 < before < run.peak_rss_mb()
    blocks = [bytes(600 + k % 100) for k in range(100_000)]  # ~65 MB of malloc blocks
    pin = bytes(600)  # allocated above them, so the heap cannot shrink from its top
    assert run.live_anon_mb() > before + 40
    del blocks
    assert run.live_anon_mb() < before + 10
    del pin


def test_host_speed_samples_are_spaced_and_counted_as_spent():
    speed = hostspeed.HostSpeed()
    with pytest.raises(ValueError, match="no kernel samples"):
        speed.factors([0.0])
    speed.sample(3)
    assert len(speed.samples) == 3
    assert speed.spent > sum(k for _, k in speed.samples)  # the warm runs count too
    speed.tick()  # the last sample was just now: too soon for another
    assert len(speed.samples) == 3
    assert speed.factors([speed.samples[0][0]]) == pytest.approx(
        [hostspeed.REFERENCE_S / sorted(k for _, k in speed.samples)[1]]
    )


def test_each_time_is_scaled_by_the_samples_nearest_to_it():
    """The host runs at reference speed for 5 s, then at half of it."""
    reference = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed()
    speed.samples = [(float(t), reference if t < 5 else 2 * reference) for t in range(10)]
    assert speed.factors([-1.0, 1.0, 8.0, 20.0]) == pytest.approx([1.0, 1.0, 0.5, 0.5])
    # a window as wide as every sample takes their median, 1.5 references
    assert speed.factors([5.0], nearest=10) == pytest.approx([2 / 3])
    assert speed.overall_factor() == pytest.approx(2 / 3)


def test_fine_tune_samples_the_host_after_each_optimizer_step(monkeypatch):
    steps = []
    monkeypatch.setattr(workloads.AdamW, "step", lambda optimizer: steps.append(optimizer))
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)
    monkeypatch.setattr(
        workloads, "generate_workload",
        lambda *args, **kwargs: SimpleNamespace(split=lambda *a, **k: ([], [])),
    )
    original = workloads.AdamW.step

    def train(source, train, **kwargs):
        for k in range(3):
            workloads.AdamW.step(k)
        return "translator"

    monkeypatch.setattr(workloads, "train_translator", train)
    speed = hostspeed.HostSpeed()
    assert workloads.fit_translator(speed) == "translator"
    assert steps == [0, 1, 2] and len(speed.samples) == 3
    assert workloads.AdamW.step is original


# -- the question pool -----------------------------------------------------------
def _translator_stub(max_seq_len=48):
    """The fine-tune's tokenizer without the fine-tune."""
    from repro.text2sql.translator import linearize_example
    from repro.text2sql.workload import generate_workload
    from repro.tokenizers import WhitespaceTokenizer

    source = generate_workload(0, examples_per_template=100)
    train, _ = source.split(0.25, seed=0)
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train([linearize_example(e) for e in train], vocab_size=2048)
    model = SimpleNamespace(config=SimpleNamespace(max_seq_len=max_seq_len))
    return SimpleNamespace(tokenizer=tokenizer, model=model)


def test_pool_holds_distinct_prompt_ids():
    from repro.text2sql.translator import build_prompt

    stub = _translator_stub()
    _, pool = workloads.question_pool(0, stub, num_rows=30)
    assert len({ids for ids, _ in pool}) == len(pool) > 1000
    for ids, example in pool[:50]:
        encoded = stub.tokenizer.encode(build_prompt(example.question), add_bos=True)
        assert tuple(encoded.ids) == ids


def test_pool_refuses_prompts_without_room_to_decode():
    with pytest.raises(RuntimeError, match="no room"):
        workloads.question_pool(0, _translator_stub(max_seq_len=30), num_rows=30)


# -- BENCHMARK.json --------------------------------------------------------------
def test_benchmark_json_keeps_the_rules():
    raw = spec.SPEC_PATH.read_bytes()
    assert spec.problems(json.loads(raw), len(raw)) == []


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda s: s["workloads"][0].update(name="-lead"), "name rule"),
        (lambda s: s["per_layer"][0].update(name=s["per_layer"][1]["name"]), "used twice"),
        (lambda s: s["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda s: s["end_to_end"][1].update(unit="per second"), "unit rule"),
        (lambda s: s["end_to_end"][0].update(bound=0.01), "largest bound"),
        (lambda s: s["workloads"].extend(s["workloads"][:1] * 7), "2 to 8"),
        (lambda s: s.update(run_seconds=61), "run_seconds"),
        (lambda s: s.update(command=["python3", "/abs/run.py"]), "absolute"),
        (lambda s: s.update(paths=["../outside"]), "plain relative"),
        (lambda s: s["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda s: s.update(extra=1), "top-level keys"),
    ],
)
def test_benchmark_json_rules_catch_each_break(change, expected):
    broken = spec.load()
    change(broken)
    assert any(expected in problem for problem in spec.problems(broken))


def test_layer_metrics_match_the_declaration_and_name_real_targets():
    declared = spec.load()
    e2e = {m["name"] for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert [m["name"] for m in declared["per_layer"]] == list(layers.TARGETS)
    for metric, (moves, on) in layers.TARGETS.items():
        assert moves in e2e, metric
        assert on in names, metric


def test_benchmark_code_passes_the_repository_lint():
    from repro.analysis.findings import render_findings
    from repro.analysis.lint import lint_paths

    findings = lint_paths([spec.ROOT / "e2ebench"])
    assert findings == [], "\n" + render_findings(findings)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(spec.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        spec.ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sql-rw",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "{" not in child.stdout


# -- spans -----------------------------------------------------------------------
def test_self_time_subtracts_only_same_thread_children():
    class Layer:
        def outer(self):
            self.inner()
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()

        def inner(self):
            time.sleep(0.02)  # repro: noqa[wall-clock]

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    Layer().outer()
    tracer.restore()
    (outer,) = tracer.named("outer")
    first, second = tracer.named("inner")
    assert first.parent == 0 and second.parent == -1
    (own,) = tracer.self_times("outer")
    assert own == pytest.approx(outer.duration - first.duration)
    assert own >= second.duration * 0.9  # the other thread's child is not subtracted


def test_restore_puts_every_original_back():
    class Box:
        def get(self):
            return 1

    original = Box.get
    box = Box()
    tracer = Tracer()
    tracer.wrap(Box, "get", "box.get")
    tracer.wrap(box, "get", "instance.get")
    assert box.get() == 1 and len(tracer.spans) == 2
    tracer.restore()
    assert Box.get is original and "get" not in vars(box)


# -- the regression gate ---------------------------------------------------------
def _results(values_by_metric, failed=0, attempted=100, correct=True):
    metrics = {
        name: {"unit": "", "values": values} for name, values in values_by_metric.items()
    }
    return {
        "summary": {
            "w": {
                "correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics,
            }
        }
    }


DECLARED = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def _statuses(base, new):
    return {row[1]: row[-1] for row in compare.compare(base, new, DECLARED)}


def test_gate_passes_a_change_within_its_bound():
    base = _results({"p50_ms": [10, 10.1, 9.9, 10, 10], "ops_per_s": [100] * 5})
    new = _results({"p50_ms": [10.5, 10.6, 10.4, 10.5, 10.5], "ops_per_s": [95] * 5})
    assert set(_statuses(base, new).values()) == {"ok"}


def test_gate_flags_a_regression_in_either_direction():
    base = _results({"p50_ms": [10] * 5, "ops_per_s": [100] * 5})
    new = _results({"p50_ms": [12] * 5, "ops_per_s": [80] * 5})
    statuses = _statuses(base, new)
    assert statuses["p50_ms"] == statuses["ops_per_s"] == "regressed"


def test_gate_calls_a_noisy_metric_unresolved_unless_every_run_is_better():
    base = _results({"p50_ms": [8, 10, 12, 14, 9], "ops_per_s": [100] * 5})
    worse = _results({"p50_ms": [9, 11, 13, 15, 10], "ops_per_s": [100] * 5})
    assert _statuses(base, worse)["p50_ms"] == "unresolved"
    better = _results({"p50_ms": [4, 5, 6, 7, 5], "ops_per_s": [100] * 5})
    assert _statuses(base, better)["p50_ms"] == "ok"


def test_gate_flags_more_failures_and_wrong_outputs():
    base = _results({"p50_ms": [10] * 5, "ops_per_s": [100] * 5})
    new = _results({"p50_ms": [10] * 5, "ops_per_s": [100] * 5}, failed=1, correct=False)
    statuses = _statuses(base, new)
    assert statuses["failed_share"] == statuses["correct"] == "regressed"


def test_gate_exit_code(tmp_path):
    base = _results({"p50_ms": [10] * 5, "ops_per_s": [100] * 5})
    new = _results({"p50_ms": [20] * 5, "ops_per_s": [100] * 5})
    for name, document in (("base", base), ("new", new)):
        (tmp_path / f"{name}.json").write_text(  # repro: noqa[atomic-write]
            json.dumps(document)
        )
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "base.json")]) == 0
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "new.json")]) == 1
