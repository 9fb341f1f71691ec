"""Closed loop, metric assembly and the result line.

Untraced run (``--trace 0``): set the workload up :data:`SETUP_REPEATS`
times (``setup_s`` is the median), run one warm-up cycle per caller, then
run whole cycles for ``--seconds`` and report the end-to-end metrics.

Traced run (``--trace 1``): set up once with the layer probes installed,
warm up, run an untraced phase for half of ``--seconds``, then replay the
same number of cycles with the probes installed and the program's own
observation attached.  The per-layer metrics come from that traced phase;
``trace.overhead_ratio`` compares its op time with the untraced phase's.

Time metrics are scaled to a nominal host speed: by
:class:`speed.SpeedProbe`, sampled between cycles, or, on workloads whose
speed the probe does not follow, by the CPU time the hypervisor gave
other guests (see README.md, "Host speed").
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import Observation, StorageKind, kernel_name, write_chrome_trace

from inputs import host_record
from speed import SpeedProbe, slowdown
from tracing import BENCH, LayerProbes, format_table, layer_table
from workloads import CONFIG, WORKLOADS, Workload

SETUP_REPEATS = 3
#: p90 is reported only for op kinds with at least this many samples.
P90_MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

KERNELS = sorted(kernel_name(a, b, c) for a in StorageKind for b in StorageKind
                 for c in StorageKind)

PER_LAYER = {
    "builder.build_ms": "ms",
    "plan.build_ms": "ms/op",
    "plan.estimate_ms": "ms/op",
    "plan.optimize_ms": "ms/op",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.lookups": "count",
    "execute.ms": "ms/op",
    "execute.calls": "count/op",
    "execute.overhead_ms": "ms/op",
    "execute.pairs": "count/op",
    "execute.conversions": "count/op",
    "threads.busy_ratio": "ratio",
    **{f"kernel.{name}.calls": "count/op" for name in KERNELS},
    **{f"kernel.{name}.ms": "ms/op" for name in KERNELS},
    "chain.replay_ms": "ms",
    "chain.perhop_cached_ms": "ms",
    "chain.cold_ms": "ms",
    "chain.peak_intermediate_bytes": "B",
    "solve.iterations": "count",
    "solve.iteration_ms": "ms",
    "client.submit_ms": "ms",
    "client.status_polls_per_job": "count",
    "client.result_ms": "ms",
    "client.result_bytes": "B",
    "server.exec_ms": "ms",
    "server.queue_wait_ms": "ms",
    "admission.rejected": "count",
    "admission.shed": "count",
    "server.rss_growth_mb": "MB",
    "checkpoint.flushes": "count",
    "checkpoint.overhead_ms": "ms",
    "jobstore.save_result_ms": "ms",
    "shard.worker_busy_ms": "ms/op",
    "shard.overhead_ms": "ms/op",
    "shard.threads_ms": "ms",
    "shard.operand_archive_bytes": "B/op",
    "shard.worker_deaths": "count",
    "shard.pairs_reassigned": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unexplained_ratio": "ratio",
}


class StealMeter:
    """CPU time the hypervisor gave other guests since construction.

    ``ratio()`` is steal over all CPU time, ``busy_ratio()`` steal over the
    time the CPUs were not idle (from ``/proc/stat``).
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int, int]:
        try:
            with open("/proc/stat") as handle:
                ticks = [int(x) for x in handle.readline().split()[1:]]
        except (OSError, ValueError):
            return 0, 0, 0
        # user nice system idle iowait irq softirq steal (guest time is
        # already inside user)
        total = sum(ticks[:8])
        steal = ticks[7] if len(ticks) > 7 else 0
        return steal, total, total - ticks[3] - ticks[4]

    def _delta(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in zip(self._start, self._read(), strict=True))

    def ratio(self) -> float:
        steal, total, _ = self._delta()
        return steal / total if total else 0.0

    def busy_ratio(self) -> float:
        steal, _, busy = self._delta()
        return steal / busy if busy else 0.0


@dataclass
class Sample:
    label: str  # kind:case
    seconds: float
    error: str | None

    @property
    def kind(self) -> str:
        return self.label.split(":")[0]


@dataclass
class Loop:
    """What one closed-loop phase did, per caller thread."""

    samples: list[Sample] = field(default_factory=list)
    cycles: int = 0
    walls: list[float] = field(default_factory=list)
    threads: set[int] = field(default_factory=set)
    #: Reference-routine times the speed probe took during this phase.
    probes: list[float] = field(default_factory=list)

    def latencies(self, kind: str | None = None) -> list[float]:
        return [s.seconds for s in self.samples if kind in (None, s.kind, s.label)]

    def medians(self) -> dict[str, float]:
        """Median latency of each ``kind:case`` label."""
        return {label: statistics.median(self.latencies(label))
                for label in sorted({s.label for s in self.samples})}

    @property
    def failed(self) -> list[Sample]:
        return [s for s in self.samples if s.error is not None]


def closed_loop(
    workload: Workload,
    probe: SpeedProbe | None,
    *,
    seconds: float | None = None,
    cycles: int | None = None,
    obs: Observation | None = None,
) -> Loop:
    """Every caller runs whole op cycles until ``seconds`` pass or it has
    run ``cycles`` cycles; one caller per thread.

    After each cycle the callers wait for each other; then, with no op
    running, the probe (if any) samples the host's speed, at most every
    ``speed.INTERVAL_SECONDS``, and the loop decides whether to go on.
    The waiting and probing are not in any op's latency nor in ``walls``.
    """
    loop = Loop(walls=[0.0] * workload.callers)
    lock = threading.Lock()
    first_probe = len(probe.samples) if probe else 0
    deadline = time.perf_counter() + (seconds or 0.0)
    stop = False

    def between_cycles() -> None:
        nonlocal stop
        loop.cycles += 1
        stop = (loop.cycles >= cycles) if cycles is not None else (
            time.perf_counter() >= deadline)
        if probe is not None:
            probe.maybe_sample()
            if stop and len(probe.samples) == first_probe:
                probe.sample()

    barrier = threading.Barrier(workload.callers, action=between_cycles)

    def caller(index: int) -> None:
        ops = workload.cycle(index)
        start = time.perf_counter()
        mine: list[Sample] = []
        paused = 0.0
        try:
            while not stop:
                for label, op in ops:
                    span = (obs.tracer.span(f"op.{label}", BENCH, {"layer": "bench"})
                            if obs else None)
                    try:
                        if span is not None:
                            with span:
                                latency, error = op()
                        else:
                            latency, error = op()
                    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                        latency, error = 0.0, f"{label}: {type(exc).__name__}: {exc}"
                        traceback.print_exc()
                    mine.append(Sample(label, latency, error))
                pause = time.perf_counter()
                barrier.wait()
                paused += time.perf_counter() - pause
        except BaseException:
            barrier.abort()  # release the other callers
            raise
        with lock:
            loop.samples.extend(mine)
            loop.walls[index] = time.perf_counter() - start - paused
            loop.threads.add(threading.get_ident())

    if workload.callers == 1:
        caller(0)
    else:
        threads = [threading.Thread(target=caller, args=(i,), name=f"caller-{i}")
                   for i in range(workload.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if probe is not None:
        loop.probes = probe.samples[first_probe:]
    return loop


def host_slowdown(loop: Loop, steal_busy: float) -> float:
    """How many times slower than nominal the host ran ``loop``: from the
    speed probe where the loop ran one, else from the share of busy CPU
    time the hypervisor gave other guests."""
    return slowdown(loop.probes) if loop.probes else 1.0 / (1.0 - steal_busy)


def kind_latencies(loop: Loop) -> dict[str, dict[str, float]]:
    """Per op kind and per case: count, p50 and (with enough samples) p90, in ms."""
    out: dict[str, dict[str, float]] = {}
    for kind in sorted({s.kind for s in loop.samples} | {s.label for s in loop.samples}):
        values = loop.latencies(kind)
        row = {"count": len(values), "p50_ms": statistics.median(values) * 1e3}
        if len(values) >= P90_MIN_SAMPLES:
            row["p90_ms"] = statistics.quantiles(values, n=10)[-1] * 1e3
        out[kind] = row
    return out


def end_to_end(
    workload: Workload, loop: Loop, setups: list[float], slow: float
) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and their wall-clock values before they
    are scaled to the nominal host speed."""
    medians = loop.medians()
    ok = len(loop.samples) - len(loop.failed)
    # Each op costed at its case's median latency, so one stalled op
    # cannot swing a run.
    cost = sum(medians[s.label] for s in loop.samples)
    wall = {
        # Closed-loop throughput of the fixed op mix at `callers` callers,
        # without the benchmark's own output checks.
        "ops_per_s": workload.callers * ok / cost,
        # Each case weighs the same, whatever the mix: the geometric mean
        # of the per-case medians.
        "latency_p50_ms": statistics.geometric_mean(medians.values()) * 1e3,
    }
    # The host's speed drifts between runs by more than the bounds; the
    # time metrics read as on a host running at its nominal speed.
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": wall["ops_per_s"] * slow,
        "latency_p50_ms": wall["latency_p50_ms"] / slow,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_ratio": ok / len(loop.samples),
    }
    return metrics, wall


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(
    loop: Loop,
    obs: Observation,
    build_s: float,
    before: dict[str, float],
    after: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of the traced phase (0 where no layer work ran)."""
    spans = obs.tracer.spans()
    n = len(loop.samples)
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}

    def named(name: str) -> list[Any]:
        return [s for s in spans if s.category == BENCH and s.name == name]

    builds, execs = named("plan.build"), named("execute")
    threaded = [s for s in execs if s.attrs.get("execution") == "threads"]
    sharded = [s for s in execs if s.attrs.get("execution") == "processes"]
    kernel_ms = {k: 1e3 * sum(s.duration for s in spans
                              if s.category == "kernel" and s.name == k) for k in KERNELS}
    workers = max((s.attrs["workers"] for s in threaded), default=1)
    m: dict[str, float] = {"builder.build_ms": build_s * 1e3}
    m["plan.build_ms"] = 1e3 * sum(s.duration for s in builds) / n
    m["plan.estimate_ms"] = 1e3 * sum(s.attrs["estimate_s"] for s in builds) / n
    m["plan.optimize_ms"] = 1e3 * sum(s.attrs["optimize_s"] for s in builds) / n
    lookups = delta.get("plan_cache.hits", 0) + delta.get("plan_cache.misses", 0)
    m["plan_cache.hit_ratio"] = delta.get("plan_cache.hits", 0) / lookups if lookups else 0.0
    m["plan_cache.lookups"] = lookups
    exec_ms = 1e3 * sum(s.duration for s in execs)
    m["execute.ms"] = exec_ms / n
    m["execute.calls"] = len(execs) / n
    m["execute.overhead_ms"] = (exec_ms - sum(kernel_ms.values()) / workers) / n
    m["execute.pairs"] = sum(s.attrs["pairs"] for s in execs) / n
    m["execute.conversions"] = sum(s.attrs["conversions"] for s in execs) / n
    capacity = sum(s.attrs["workers"] * s.attrs["pair_loop_s"] for s in threaded)
    busy = sum(sum(s.attrs["busy_s"].values()) for s in threaded)
    m["threads.busy_ratio"] = busy / capacity if capacity else 0.0
    for k in KERNELS:
        calls = sum(s.attrs["kernels"].get(k, 0) for s in execs)
        calls += delta.get(f"kernel.dispatch.{k}", 0)  # kernels run in the server
        m[f"kernel.{k}.calls"] = calls / n
        m[f"kernel.{k}.ms"] = kernel_ms[k] / n
    replays = [s for s in named("Session.multiply_chain") if s.attrs["replay"]]
    m["chain.replay_ms"] = 1e3 * _mean([s.duration for s in replays])
    solves = named("Session.solve")
    iterations = sum(s.attrs["iterations"] for s in solves)
    m["solve.iterations"] = iterations / len(solves) if solves else 0.0
    m["solve.iteration_ms"] = (
        1e3 * sum(s.duration for s in solves) / iterations if iterations else 0.0)
    submits, waits = named("client.submit"), named("client.wait")
    results = named("client.result")
    result_ids = {s.span_id for s in results}
    jobs = len(submits)
    m["client.submit_ms"] = 1e3 * _mean([s.duration for s in submits])
    m["client.status_polls_per_job"] = len(named("client.status")) / jobs if jobs else 0.0
    m["client.result_ms"] = 1e3 * _mean([s.duration for s in results])
    m["client.result_bytes"] = _mean([s.attrs["bytes"] for s in named("client.read_frame")
                                      if s.parent_id in result_ids])
    server_jobs = delta.get("server.jobs", 0)
    m["server.exec_ms"] = 1e3 * delta.get("server.exec_s", 0.0) / server_jobs if server_jobs else 0.0
    job_ms = 1e3 * _mean([a.duration + b.duration for a, b in zip(submits, waits)])
    m["server.queue_wait_ms"] = job_ms - m["server.exec_ms"] if jobs else 0.0
    m["admission.rejected"] = delta.get("admission.rejected", 0)
    m["admission.shed"] = delta.get("admission.shed", 0)
    multiplies = sum(1 for s in loop.samples if s.kind == "multiply")
    m["checkpoint.flushes"] = (
        delta.get("checkpoint.flushes", 0) / multiplies if jobs and multiplies else 0.0)
    m["shard.worker_busy_ms"] = 1e3 * sum(sum(s.attrs["busy_s"].values()) for s in sharded) / n
    m["shard.overhead_ms"] = 1e3 * sum(
        s.duration - max(s.attrs["busy_s"].values(), default=0.0) for s in sharded) / n
    m["shard.operand_archive_bytes"] = sum(
        s.attrs["bytes"] for s in named("shard.archive_write")) / n
    m["shard.worker_deaths"] = sum(s.attrs["worker_deaths"] for s in sharded)
    m["shard.pairs_reassigned"] = sum(s.attrs["pairs_reassigned"] for s in sharded)
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; returns the full report (``result`` is the last line)."""
    cls = WORKLOADS[workload_name]
    run_dir = out_dir / f"run-{workload_name}-{seed}-{trace:d}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # Temporary files (shard run directories, the server's) stay in the checkout.
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None
    report: dict[str, Any] = {"workload": workload_name, "seed": seed,
                              "seconds": seconds, "trace": trace,
                              "host": host_record(CONFIG)}
    try:
        if trace:
            body = _traced(cls, seed, seconds, run_dir, out_dir, report)
        else:
            body = _untraced(cls, seed, seconds, run_dir, report)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report.update(body)
    stem = f"{workload_name}-seed{seed}-trace{trace:d}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    return report


def _correctness(loops: list[Loop]) -> dict[str, Any]:
    samples = [s for loop in loops for s in loop.samples]
    failed = [s for s in samples if s.error is not None]
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(samples),
        "failures": [s.error for s in failed[:20]],
    }


def _untraced(cls: type[Workload], seed: int, seconds: float, run_dir: Path,
              report: dict[str, Any]) -> dict[str, Any]:
    setups = []
    workload = None
    for index in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, run_dir / f"setup{index}")
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    assert workload is not None
    report.update(workload.record())
    try:
        probe = SpeedProbe() if workload.probe_speed else None
        warm = closed_loop(workload, probe, cycles=1)
        steal = StealMeter()
        loop = closed_loop(workload, probe, seconds=seconds)
        steal_ratio, steal_busy = steal.ratio(), steal.busy_ratio()
        slow = host_slowdown(loop, steal_busy)
        metrics, wall = end_to_end(workload, loop, setups, slow)
    finally:
        workload.close()
    return {
        "setup_seconds": setups,
        "cpu_steal_ratio": steal_ratio,
        "cpu_steal_busy_ratio": steal_busy,
        "probe_seconds": loop.probes,
        "host_slowdown": slow,
        "wall_clock": {
            **wall,
            "ops_per_s_mean": workload.callers * (len(loop.samples) - len(loop.failed))
            / sum(loop.latencies()),
        },
        "latency_by_kind": kind_latencies(loop),
        **_correctness([warm, loop]),
        "metrics": metrics,
        "units": END_TO_END,
    }


def _traced(cls: type[Workload], seed: int, seconds: float, run_dir: Path,
            out_dir: Path, report: dict[str, Any]) -> dict[str, Any]:
    setup_obs = Observation()
    workload = cls(seed, run_dir)
    try:
        with LayerProbes(setup_obs):
            workload.setup()
        report.update(workload.record())
        build_s = sum(s.duration for s in setup_obs.tracer.spans() if s.name == "builder.build")
        probe = SpeedProbe() if workload.probe_speed else None
        warm = closed_loop(workload, probe, cycles=1)
        rss_warm = workload.server_rss_mb()
        steal = StealMeter()
        untraced = closed_loop(workload, probe, seconds=seconds / 2)
        untraced_s = sum(untraced.latencies()) / host_slowdown(untraced, steal.busy_ratio())
        obs = Observation()
        workload.observe(obs)
        before = workload.counters()
        steal = StealMeter()
        with LayerProbes(obs):
            traced = closed_loop(workload, probe, cycles=untraced.cycles, obs=obs)
        steal_busy = steal.busy_ratio()
        slow = host_slowdown(traced, steal_busy)
        traced_s = sum(traced.latencies()) / slow
        after = workload.counters()
        rss_end = workload.server_rss_mb()
        workload.observe(None)
        metrics = per_layer(traced, obs, build_s, before, after)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        metrics["server.rss_growth_mb"] = rss_end - rss_warm
        side = workload.side_metrics()
    finally:
        workload.close()
    metrics.update({name: 0.0 for name in PER_LAYER if name not in metrics})
    metrics.update(side)
    table = layer_table(obs.tracer.spans(), traced.threads, sum(traced.walls))
    metrics["trace.unexplained_ratio"] = table["unexplained_ms"] / table["caller_wall_ms"]
    stem = f"{cls.name}-seed{seed}-trace1"
    write_chrome_trace(obs, str(out_dir / f"{stem}.chrome.json"))
    (out_dir / f"{stem}.layers.txt").write_text(format_table(table) + "\n")
    return {
        "cpu_steal_busy_ratio": steal_busy,
        "host_slowdown": slow,
        "latency_by_kind_untraced": kind_latencies(untraced),
        "latency_by_kind_traced": kind_latencies(traced),
        **_correctness([warm, untraced, traced]),
        "layer_table": table,
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "units": PER_LAYER,
    }


def result_line(report: dict[str, Any]) -> str:
    """The last output line: correctness plus every metric with its unit."""
    metrics = {
        name: {"value": float(value), "unit": report["units"][name]}
        for name, value in report["metrics"].items()
    }
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })
