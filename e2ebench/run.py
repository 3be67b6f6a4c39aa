"""The end-to-end benchmark: NL question -> gateway -> decode -> SQL -> answer.

Run one workload in this process (how each measurement is taken; this
is the benchmark's invocation interface, and ``--seconds`` is the
``run_seconds`` of ``BENCHMARK.json``)::

    python3 e2ebench/run.py --workload t2sql-online --seed 0 --seconds 15 --trace 0

or every workload, each in its own process, optionally repeated and
written to a results file that ``compare.py`` reads::

    python3 e2ebench/run.py [--seed N] [--trace] [--repeat N] [--out FILE]

Each run prints one ``workload metric value unit`` line per metric, the
sent/answered/failed counts of every timed phase, and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics and writes every span to
``.e2ebench/spans-<workload>-seed<N>.json``. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]
import spec  # noqa: E402  (after the path insert)
OUT_DIR = ROOT / ".e2ebench"
#: Set-up time is the fine-tune plus the median of this many builds. The
#: count is fixed, so every run does the same work whatever the host's
#: speed.
SETUP_BUILDS = 5

#: one set-up step: (seconds it took, its midpoint on the clock)
Step = Tuple[float, float]


def setup_seconds(fit_s: float, builds: List[Step], speed=None) -> float:
    """The fine-tune's seconds plus the median build.

    With ``speed``, the set-up's :class:`~hostspeed.HostSpeed`, each
    build is first scaled by the kernel samples taken just before and
    just after it; the caller scales the fine-tune.
    """
    factors = [1.0] * len(builds)
    if speed is not None:
        from hostspeed import SETUP_SAMPLES

        factors = speed.factors([mid for _, mid in builds], nearest=2 * SETUP_SAMPLES)
    return fit_s + statistics.median(
        seconds * f for (seconds, _), f in zip(builds, factors)
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_anon_mb() -> float:
    """Anonymous resident memory this process still uses, in MB.

    Garbage is collected and the C heap's free pages are handed back
    first, so the reading is what live objects hold. Untrimmed, it
    counted whatever freed memory the heap kept: the translator
    fine-tune left 54 to 62 MB resident for 27 MB in use, depending on
    nothing but the size of the environment, and t2sql runs read 53 MB
    in one hour and 69 MB in the next. Mapped files, such as numpy's
    and BLAS's shared libraries, are left out too; ``ru_maxrss`` counts
    them.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no RssAnon line")


def raw_timings(phase) -> Dict[str, float]:
    """Throughput and median latency as the phase's clock read them."""
    from workloads import percentile

    return {
        "ops_per_s": phase.answered / phase.elapsed,
        "p50_ms": percentile(phase.latencies, 50) * 1e3,
    }


def mean_factor(phase) -> float:
    """The phase's host-speed factor, weighted by latency: a closed
    loop's clock ran at this factor while it waited for answers."""
    return sum(phase.scaled_latencies()) / sum(phase.latencies)


def e2e_metrics(setup_s: float, phase, memory_mb: float) -> Dict[str, float]:
    """Set-up time, throughput, median latency and memory of the run.

    Times are read at the reference host speed (``hostspeed``): the
    caller scales ``setup_s``, each latency is scaled by the kernel
    samples nearest to it, and a closed loop's throughput by their
    latency-weighted mean. An open loop answers at the rate it sends,
    whatever the host's speed, so its throughput is not scaled.
    ``memory_mb`` is the largest :func:`live_anon_mb` the caller saw.
    """
    from workloads import percentile

    raw = raw_timings(phase)
    ops = raw["ops_per_s"] if phase.open_loop else raw["ops_per_s"] / mean_factor(phase)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops,
        "p50_ms": percentile(phase.scaled_latencies(), 50) * 1e3,
        "live_anon_mb": memory_mb,
    }


def trace_overhead(untraced, traced) -> float:
    """Share by which tracing worsened the phase's headline number.

    The open loop sends at a fixed rate, so its throughput cannot show
    the cost; there it is the median latency, elsewhere throughput.
    """
    base = e2e_metrics(0.0, untraced, 0.0)
    with_spans = e2e_metrics(0.0, traced, 0.0)
    if traced.open_loop:
        return with_spans["p50_ms"] / base["p50_ms"] - 1.0
    return 1.0 - with_spans["ops_per_s"] / base["ops_per_s"]


def warm(workload, state) -> None:
    """Fill the workload's caches, if it has a warm-up, then collect."""
    if hasattr(workload, "warm"):
        workload.warm(state)
    gc.collect()


def show(workload: str, metric: str, value: float, unit: str) -> None:
    print(f"{workload} {metric} {value:.6g} {unit}", flush=True)


def show_counts(workload: str, label: str, phase) -> None:
    print(
        f"{workload} phase={label} sent={phase.attempted} "
        f"answered={phase.answered} failed={phase.failed}",
        flush=True,
    )


def run_one(name: str, seed: int, seconds: float, traced: bool) -> Dict:
    """Run one workload in this process; returns the result object."""
    import layers
    from hostspeed import SETUP_SAMPLES, HostSpeed
    from spans import Tracer
    from workloads import WINDOW, WORKLOADS, windowed_percentile

    declared = spec.load()
    wanted = declared["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    workload = WORKLOADS[name]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    state = None
    # The host's speed during set-up, sampled before and after each step,
    # and the process's live anonymous memory after each step and the warm-up.
    setup_speed = HostSpeed()
    memory: List[float] = []

    def step(action) -> Tuple[object, Step]:
        began = time.perf_counter()
        result = action()
        ended = time.perf_counter()
        memory.append(live_anon_mb())
        setup_speed.sample(SETUP_SAMPLES)
        return result, (ended - began, (began + ended) / 2)

    try:
        setup_speed.sample(SETUP_SAMPLES)
        # The fine-tune runs once and for seconds, over which the host's
        # speed changes; it is scaled by the samples taken between its
        # steps, and their time is taken off it.
        fit_s, fit_factor = 0.0, 1.0
        if hasattr(workload, "prepare"):
            fit_speed = HostSpeed()
            _, (fit_s, _) = step(lambda: workload.prepare(fit_speed))
            fit_s -= fit_speed.spent
            fit_factor = fit_speed.overall_factor()
        # A traced run reports no set-up time, so it builds once.
        builds: List[Step] = []
        for _ in range(1 if traced else SETUP_BUILDS):
            if state is not None:
                workload.close(state)
                state = None  # so the old state is freed before the new one
            gc.collect()
            state, timing = step(lambda: workload.build(seed, seconds, workdir))
            builds.append(timing)
        warm(workload, state)
        # No reading follows the phase: after a timed phase the heap holds
        # as many freed-but-fragmented pages as operations the host's speed
        # allowed. On t2sql-batch the reading grew 1 MB per 100 jobs while
        # the live objects tracemalloc saw did not grow.
        memory.append(live_anon_mb())
        phase = workload.run(state, seconds)
        show_counts(name, "untraced", phase)
        phases = [phase]

        if traced:
            untraced = phase
            workload.close(state)
            gc.collect()
            state = workload.build(seed, seconds, workdir)
            warm(workload, state)
            tracer = Tracer()
            before = layers.snapshot(state)
            layers.instrument(tracer, state)
            try:
                phase = workload.run(state, seconds)
            finally:
                tracer.restore()
            after = layers.snapshot(state)
            show_counts(name, "traced", phase)
            phases.append(phase)

        problems = workload.check(state, phase)
        if traced:
            extra = dict(workload.layer_inputs(state, phase))
            extra["fit_s"] = fit_s
            extra["trace_overhead"] = trace_overhead(untraced, phase)
            values = layers.measure(tracer, before, after, phase, phase.elapsed, extra)
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
            tracer.write_json(spans_path)
            print(f"{name} spans {len(tracer.spans)} written to {spans_path}", flush=True)
        else:
            setup_s = setup_seconds(fit_s, builds)
            scaled_setup_s = setup_seconds(fit_s * fit_factor, builds, setup_speed)
            values = e2e_metrics(scaled_setup_s, phase, max(memory))
            show(name, "peak_rss_mb", peak_rss_mb(), "MB")
            # The timings as the clock read them, and the factors that
            # scale every other printed time to the reference host speed.
            factor = mean_factor(phase)
            show(name, "raw_setup_s", setup_s, "s")
            for raw_name, value in raw_timings(phase).items():
                show(name, f"raw_{raw_name}", value, units[raw_name])
            show(name, "setup_host_factor", scaled_setup_s / setup_s, "x")
            show(name, "host_factor", factor, "x")
            show(name, "host_samples", len(phase.speed.samples), "count")
            for extra_name, (value, unit) in workload.extras(state, phase).items():
                show(name, extra_name, value * factor if unit == "ms" else value, unit)
            # The tail is reported beside the median but carries no bound:
            # the open loop's phase holds only two windows of it, and its
            # run-to-run spread there is too wide for a bound to see past.
            samples = len(phase.latencies)
            p90 = windowed_percentile(phase.scaled_latencies(), 90)
            show(name, "p90_ms", p90 * 1e3, "ms")
            show(name, "latency_samples", samples, "count")
            show(name, "p90_windows", samples // WINDOW, "count")
            show(name, "builds", len(builds), "count")
        mismatch = set(units) ^ set(values)
        if mismatch:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
        for metric, value in values.items():
            show(name, metric, value, units[metric])
        for problem in problems[:20]:
            print(f"{name} CHECK FAILED: {problem}", flush=True)
        return {
            "correct": not problems,
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in values.items()
            },
        }
    finally:
        if state is not None:
            workload.close(state)
        shutil.rmtree(workdir, ignore_errors=True)


# -- several runs: provenance and the results file -----------------------------
def provenance(repetitions: int) -> Dict:
    import numpy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "repetitions": repetitions,
    }


def summarize(runs: Dict[str, List[Dict]]) -> Dict:
    """Per workload and metric: every value plus min/median/max."""
    out = {}
    for name, results in runs.items():
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "values": values,
                "min": min(values),
                "median": statistics.median(values),
                "max": max(values),
            }
        out[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    return out


def write_results(path: Path, runs: Dict[str, List[Dict]], repetitions: int) -> None:
    document = {
        "_provenance": provenance(repetitions),
        "runs": runs,
        "summary": summarize(runs),
    }
    # A results file is rewritten whole by each invocation; nothing
    # recovers from it after a crash.
    path.write_text(  # repro: noqa[atomic-write]
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def orchestrate(args, names: List[str]) -> int:
    """Run each workload ``--repeat`` times, one process per run."""
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    ok = True
    for _ in range(args.repeat):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} run failed with exit code {child.returncode}", flush=True)
                ok = False
                continue
            ok = ok and result["correct"] and child.returncode == 0
            runs[name].append(result)
    if args.out is not None:
        write_results(args.out, {n: r for n, r in runs.items() if r}, args.repeat)
        print(f"results written to {args.out}", flush=True)
    print(json.dumps({"correct": ok, "runs": sum(len(r) for r in runs.values())}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    declared = spec.load()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program's own threads are the gateway's decode worker and the
    # cluster's shard pool. A BLAS pool beside them would contend with
    # both on a 2-core host and made few-shot runs twice as variable.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    # numpy asks the kernel for 2 MB pages behind large arrays; whether it
    # gets them depends on how fragmented the host's memory is, and each
    # one it gets counts whole in the anonymous memory reported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if args.workload is None or args.repeat > 1:
        return orchestrate(args, [args.workload] if args.workload else names)

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        write_results(args.out, {args.workload: [result]}, 1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
