"""The traced run's spans: recorded from the benchmark, around layer calls.

:class:`LayerProbes` wraps the public entry points of each layer — and the
module-level names through which the layers above reach them — with spans
recorded into one :class:`repro.observe.Observation`.  The program's own
spans (kernels, pairs, phases) land in the same tracer when that
observation is also passed to the program as ``observer=``, so both nest
into one tree per thread.  Nothing in the program is changed: the wrappers
are installed on entry and the original attributes restored on exit.

:func:`layer_table` turns the finished spans into per-layer self time (a
span's duration minus the part its child spans cover), which together
with the unexplained remainder accounts for the callers' wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import Any

from repro.observe import Observation, Span

#: Category of every span the benchmark itself records.
BENCH = "bench"


def _plan_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"estimate_s": out.estimate_seconds, "optimize_s": out.optimize_seconds}


def _execute_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    report = out[1]
    attrs: dict[str, Any] = {
        "pairs": report.pairs_executed,
        "conversions": report.conversions,
        "kernels": dict(report.kernel_counts),
    }
    execution = kwargs.get("execution") or (
        "threads" if kwargs.get("parallel") else "sequential"
    )
    attrs["execution"] = execution
    if execution != "sequential":
        attrs["workers"] = report.workers
        attrs["busy_s"] = dict(report.worker_busy_seconds)
        attrs["pair_loop_s"] = report.phase_seconds.get("multiply", 0.0)
        attrs["worker_deaths"] = report.failure.worker_deaths
        attrs["pairs_reassigned"] = report.failure.pairs_reassigned
    return attrs


def _fused_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    steps = out[1].steps
    kernels: dict[str, int] = defaultdict(int)
    for step in steps:
        for name, count in step.kernel_counts.items():
            kernels[name] += count
    return {
        "execution": "sequential",
        "pairs": sum(step.pairs_executed for step in steps),
        "conversions": sum(step.conversions for step in steps),
        "kernels": dict(kernels),
    }


def _chain_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    report = out[1]
    return {
        "replay": bool(report.fused and report.plan_cache_hit),
        "peak_intermediate_bytes": report.peak_intermediate_bytes,
    }


def _solve_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"iterations": out.iterations}


def _frame_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    return {"bytes": len(out)}


def _archive_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    target = str(args[1])
    path = target if target.endswith(".npz") else target + ".npz"
    return {"bytes": os.path.getsize(path)}


#: (module, attribute path, span name, layer, attrs from (out, args, kwargs)).
#: Functions are wrapped under every module-level name their callers use.
PROBES: tuple[tuple[str, str, str, str, Callable[..., dict] | None], ...] = (
    ("repro.core.builder", "ATMatrixBuilder.build", "builder.build", "core.builder", None),
    ("repro.engine.session", "Session.parallel_multiply",
     "Session.parallel_multiply", "engine.session", None),
    ("repro.engine.session", "Session.multiply", "Session.multiply", "engine.session", None),
    ("repro.engine.session", "Session.multiply_chain",
     "Session.multiply_chain", "core.chain", _chain_attrs),
    ("repro.engine.session", "Session.solve", "Session.solve", "solve", _solve_attrs),
    ("repro.engine.session", "Session.matvec", "Session.matvec", "engine.session", None),
    ("repro.core.parallel", "resolve_plan", "plan.resolve", "engine.cache", None),
    ("repro.core.atmult", "resolve_plan", "plan.resolve", "engine.cache", None),
    ("repro.engine.api", "resolve_plan", "plan.resolve", "engine.cache", None),
    ("repro.engine.api", "build_plan", "plan.build", "engine.plan", _plan_attrs),
    ("repro.core.parallel", "execute_plan", "execute", "engine.executor", _execute_attrs),
    ("repro.core.atmult", "execute_plan", "execute", "engine.executor", _execute_attrs),
    ("repro.engine.api", "execute_plan", "execute", "engine.executor", _execute_attrs),
    ("repro.engine.api", "execute_fused_chain", "execute", "engine.executor", _fused_attrs),
    ("repro.engine.executor", "execute_fused_chain",
     "execute", "engine.executor", _fused_attrs),
    ("repro.formats.serialize", "save_at_matrix",
     "shard.archive_write", "engine.shard", _archive_attrs),
    ("repro.resilience.checkpoint", "CheckpointStore.flush",
     "checkpoint.flush", "resilience.checkpoint", None),
    ("repro.service.jobs", "JobStore.save_result",
     "jobstore.save_result", "service.jobs", None),
    ("repro.service.client", "ServiceClient.submit", "client.submit", "service.client", None),
    ("repro.service.client", "ServiceClient.status", "client.status", "service.client", None),
    ("repro.service.client", "ServiceClient.wait", "client.wait", "service.client", None),
    ("repro.service.client", "ServiceClient.result", "client.result", "service.client", None),
    # The one non-public hook: the client's frame boundary, for wire bytes.
    ("repro.service.client", "ServiceClient._read_frame",
     "client.read_frame", "service.protocol", _frame_attrs),
)


class LayerProbes:
    """Context manager installing the :data:`PROBES` wrappers."""

    def __init__(self, obs: Observation) -> None:
        self.obs = obs
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> LayerProbes:
        for module_name, path, span_name, layer, attrs in PROBES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, layer, attrs))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        attrs: Callable[..., dict] | None,
    ) -> Callable[..., Any]:
        tracer = self.obs.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, BENCH, {"layer": layer}) as span:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(out, args, kwargs))
            return out

        return wrapper


def layer_of(span: Span, by_id: dict[int, Span]) -> str:
    """A span's layer: its own, a kernel's, or its nearest ancestor's."""
    node: Span | None = span
    while node is not None:
        if node.category == BENCH:
            return str(node.attrs.get("layer", node.name))
        if node.category == "kernel":
            return "kernels"
        node = by_id.get(node.parent_id) if node.parent_id is not None else None
    return "engine.executor"  # worker-thread roots: pair tasks


def self_seconds(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None and span.end is not None:
            children[span.parent_id].append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end or start)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def layer_table(
    spans: list[Span], caller_threads: set[int], caller_wall_s: float
) -> dict[str, Any]:
    """Per-layer self time on the caller threads, plus worker-thread time.

    The caller rows plus ``unexplained`` sum to ``caller_wall_s`` (the
    traced phase's wall time summed over the caller threads); the
    remainder is the closed loop's time outside any span.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_seconds(spans)
    caller: dict[str, float] = defaultdict(float)
    worker: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        layer = layer_of(span, by_id)
        if span.category == BENCH:
            calls[layer] += 1
        side = caller if span.thread_id in caller_threads else worker
        side[layer] += own[span.span_id]
    explained = sum(caller.values())
    return {
        "caller_wall_ms": caller_wall_s * 1e3,
        "caller_self_ms": {k: v * 1e3 for k, v in sorted(caller.items())},
        "unexplained_ms": (caller_wall_s - explained) * 1e3,
        "worker_self_ms": {k: v * 1e3 for k, v in sorted(worker.items())},
        "bench_span_calls": dict(sorted(calls.items())),
    }


def format_table(table: dict[str, Any]) -> str:
    wall = table["caller_wall_ms"] or 1.0
    lines = [f"{'layer (caller threads)':32} {'self ms':>12} {'share':>8}"]
    for layer, ms in table["caller_self_ms"].items():
        lines.append(f"{layer:32} {ms:12.1f} {ms / wall:8.1%}")
    lines.append(f"{'unexplained':32} {table['unexplained_ms']:12.1f} "
                 f"{table['unexplained_ms'] / wall:8.1%}")
    lines.append(f"{'= caller wall':32} {wall:12.1f}")
    if table["worker_self_ms"]:
        lines.append(f"{'layer (worker threads)':32} {'self ms':>12}")
        for layer, ms in table["worker_self_ms"].items():
            lines.append(f"{layer:32} {ms:12.1f}")
    return "\n".join(lines)
