"""The four workloads: seeded inputs, one op cycle each, output checks.

Each workload owns its inputs and references (built in :meth:`setup`),
hands the closed loop one cycle of ops per caller (:meth:`cycle`), and
checks every op's output against a reference computed during set-up.  An
op returns its latency — the time spent in the program's calls, with the
benchmark's own checking outside it — and an error string or ``None``.

Why each workload exists, and the sizing numbers behind it, are in
README.md next to this file.
"""

from __future__ import annotations

import itertools
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import (
    CheckpointStore,
    MultiplyOptions,
    Observation,
    Session,
    SystemConfig,
    SystemTopology,
    atmult,
    build_at_matrix,
    save_at_matrix,
)
from repro.service import ServiceClient
from repro.service.jobs import JobStore

from inputs import InputSpec, derive_seed, random_sparse, suite_spec, to_scipy

#: One configuration for every workload: the library default (scaled LLC).
CONFIG = SystemConfig()
TOPOLOGY = SystemTopology(sockets=2, cores_per_socket=1)
WORKERS = 2
#: Relative residual every CG solve must reach (and is checked against).
TOLERANCE = 1e-8

#: (``kind:case`` label, op); the kind is multiply, solve, chain or matvec,
#: the case names the input, so each case gets its own latency median.
Op = tuple[str, Callable[[], tuple[float, str | None]]]


def rss_mb(pid: int | str = "self", field: str = "VmHWM") -> float:
    """A ``/proc/<pid>/status`` memory field in MiB (0.0 when unreadable)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) / 1024 if match else 0.0


def max_rel_error(result: sp.spmatrix, reference: sp.spmatrix) -> float:
    """Max-norm difference relative to the reference's largest entry."""
    diff = abs(result - reference)
    scale = max(abs(reference).max(), 1e-300)
    return float(diff.max()) / scale if diff.nnz else 0.0


def at_to_scipy(at: Any) -> sp.csr_matrix:
    return to_scipy(at.to_coo())


def timed(call: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def median_seconds(call: Callable[[], Any], repeats: int) -> float:
    return float(np.median([timed(call)[1] for _ in range(repeats)]))


class Workload:
    """Base: one seeded workload of the closed loop."""

    name = ""
    callers = 1
    #: Scale the time metrics by the host-speed probe (speed.py); False:
    #: by CPU steal, where the probe was measured not to follow the
    #: workload's speed (README.md, "Host speed").
    probe_speed = True

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.specs: list[InputSpec] = []
        self.params: dict[str, Any] = {}
        self.session: Session | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, caller: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started (default: nothing)."""

    def observe(self, obs: Observation | None) -> None:
        """Route the program's own spans into ``obs`` (``None``: stop)."""
        if self.session is not None:
            self.session = Session(options=self.session.options.replace(observer=obs))

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def server_rss_mb(self) -> float:
        """Current RSS of the server process (0.0 without a server)."""
        return 0.0

    def counters(self) -> dict[str, float]:
        """Program counters read through public surfaces, for deltas."""
        if self.session is None:
            return {}
        stats = self.session.cache_stats()
        return {"plan_cache.hits": stats.hits, "plan_cache.misses": stats.misses}

    def side_metrics(self) -> dict[str, float]:
        """Extra traced-run measurements of this workload's layers."""
        return {}

    def record(self) -> dict[str, Any]:
        return {
            "inputs": [spec.record(self.seed) for spec in self.specs],
            "params": self.params,
        }


class AtmultCold(Workload):
    """Cold ``Session.parallel_multiply(a, a)`` over five topology classes."""

    name = "atmult-cold"
    probe_speed = False
    CLASSES = ("R1", "R3", "R4", "R8", "G5")

    def setup(self) -> None:
        self.specs = [suite_spec(key) for key in self.CLASSES]
        self.params = {"execution": "threads", "workers": WORKERS, "plan_cache": "empty per op"}
        self.cases = []
        for spec in self.specs:
            coo = spec.generate(self.seed)
            at = build_at_matrix(coo, CONFIG)
            reference = to_scipy(coo)
            self.cases.append((spec.name, at, (reference @ reference).tocsr()))
        self.session = Session(options=MultiplyOptions(config=CONFIG, workers=WORKERS))

    def cycle(self, caller: int) -> list[Op]:
        return [(f"multiply:{case[0]}", lambda case=case: self._multiply(*case))
                for case in self.cases]

    def _multiply(self, key: str, at: Any, reference: sp.csr_matrix) -> tuple[float, str | None]:
        session = self.session
        assert session is not None
        session.clear_cache()
        (result, _), seconds = timed(
            lambda: session.parallel_multiply(at, at, topology=TOPOLOGY)
        )
        error = max_rel_error(at_to_scipy(result), reference)
        if error > 1e-9:
            return seconds, f"{key}: max relative error {error:.3e} vs scipy"
        return seconds, None


class PlanReplay(Workload):
    """Cached CG solves and fused chain replays on one sequential Session."""

    name = "plan-replay"
    #: The BENCH_chain shapes: four rectangular factors.
    CHAIN_DIMS = (1024, 512, 1280, 384, 768)
    CHAIN_DENSITY = 0.002

    def setup(self) -> None:
        self.specs = [
            InputSpec("banded_system", "banded_matrix", (2048, 24_000),
                      dict(bandwidth=32), system=True),
            InputSpec("power_system", "power_network_matrix", (1024,),
                      dict(block_size=64, num_blocks=12, block_fill=0.85,
                           background_density=0.002), system=True),
        ]
        self.params = {
            "execution": "sequential",
            "tolerance": TOLERANCE,
            "chain_dims": list(self.CHAIN_DIMS),
            "chain_density": self.CHAIN_DENSITY,
            "chain_seed": self._chain_seed(),
        }
        self.session = Session(options=MultiplyOptions(config=CONFIG))
        self.systems = []
        for spec in self.specs:
            coo = spec.generate(self.seed)
            self.systems.append((spec.name, build_at_matrix(coo, CONFIG), to_scipy(coo)))
        coos = [
            random_sparse(rows, cols, self.CHAIN_DENSITY, self._chain_seed() + index)
            for index, (rows, cols) in enumerate(
                zip(self.CHAIN_DIMS[:-1], self.CHAIN_DIMS[1:], strict=True)
            )
        ]
        self.factors = [build_at_matrix(coo, CONFIG) for coo in coos]
        reference = to_scipy(coos[0])
        for coo in coos[1:]:
            reference = reference @ to_scipy(coo)
        first, _ = self.session.multiply_chain(self.factors)
        error = max_rel_error(at_to_scipy(first), reference.tocsr())
        if error > 1e-9:
            raise AssertionError(f"chain: max relative error {error:.3e} vs scipy")
        self.first_chain = first.to_dense()
        self.rng = np.random.default_rng(self._chain_seed() + 99)

    def _chain_seed(self) -> int:
        return derive_seed(self.seed, "chain")

    def cycle(self, caller: int) -> list[Op]:
        banded, power = self.systems
        return [
            ("solve:banded", lambda: self._solve(*banded)),
            ("chain:bench_chain", self._chain),
            ("solve:power", lambda: self._solve(*power)),
        ]

    def _solve(self, key: str, at: Any, matrix: sp.csr_matrix) -> tuple[float, str | None]:
        session = self.session
        assert session is not None
        rhs = self.rng.uniform(-1.0, 1.0, size=matrix.shape[0])
        outcome, seconds = timed(
            lambda: session.solve(at, rhs, method="cg", tolerance=TOLERANCE)
        )
        residual = np.linalg.norm(matrix @ outcome.solution - rhs) / np.linalg.norm(rhs)
        if not outcome.converged or residual > TOLERANCE:
            return seconds, (f"{key}: converged={outcome.converged}, "
                             f"residual {residual:.3e} > {TOLERANCE:g}")
        return seconds, None

    def _chain(self) -> tuple[float, str | None]:
        session = self.session
        assert session is not None
        (result, _), seconds = timed(lambda: session.multiply_chain(self.factors))
        if not np.array_equal(result.to_dense(), self.first_chain):
            return seconds, "chain: replay not bit-identical to the first evaluation"
        return seconds, None

    def side_metrics(self) -> dict[str, float]:
        """Chain baselines that isolate fusion from plan caching."""
        session = self.session
        assert session is not None
        _, report = session.multiply_chain(self.factors)
        order = report.plan.order

        def per_hop() -> None:
            results = {(i, i): at for i, at in enumerate(self.factors)}
            for i, k, j in order:
                results[(i, j)], _ = session.multiply(results[(i, k)], results[(k + 1, j)])

        per_hop()  # fills the per-hop plan keys
        cold = median_seconds(
            lambda: Session(options=MultiplyOptions(config=CONFIG)).multiply_chain(self.factors),
            3,
        )
        return {
            "chain.perhop_cached_ms": median_seconds(per_hop, 5) * 1e3,
            "chain.cold_ms": cold * 1e3,
            "chain.peak_intermediate_bytes": float(report.peak_intermediate_bytes),
        }


class ServiceMixed(Workload):
    """Two tenants' closed loops against a ``repro serve`` subprocess."""

    name = "service-mixed"
    callers = 2
    #: Distinct right-hand sides per job kind (references computed in set-up).
    RHS_POOL = 4

    def setup(self) -> None:
        self.specs = [
            InputSpec("power_384", "power_network_matrix", (384,),
                      dict(block_size=48, num_blocks=8, block_fill=0.85,
                           background_density=0.002)),
            InputSpec("banded_system", "banded_matrix", (2048, 24_000),
                      dict(bandwidth=32), system=True),
        ]
        self.params = {"serve_workers": WORKERS, "clients": self.callers,
                       "tenants": ["t0", "t1"], "tolerance": TOLERANCE,
                       "rhs_pool": self.RHS_POOL}
        power_coo, banded_coo = (spec.generate(self.seed) for spec in self.specs)
        self.power = build_at_matrix(power_coo, CONFIG)
        banded = build_at_matrix(banded_coo, CONFIG)
        power_sp = to_scipy(power_coo)
        self.product = (power_sp @ power_sp).toarray()
        rng = np.random.default_rng(self.seed)
        local = Session(options=MultiplyOptions(config=CONFIG))
        self.matvecs = []
        self.solves = []
        for _ in range(self.RHS_POOL):
            x = rng.uniform(-1.0, 1.0, size=self.power.rows)
            self.matvecs.append((x, power_sp @ x))
            b = rng.uniform(-1.0, 1.0, size=banded.rows)
            outcome = local.solve(banded, b, method="cg", tolerance=TOLERANCE)
            self.solves.append((b, outcome.solution))
        self.run_dir.mkdir(parents=True, exist_ok=True)
        save_at_matrix(self.power, self.run_dir / "P.npz")
        save_at_matrix(banded, self.run_dir / "B.npz")
        self._start_server()

    def _start_server(self) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        job_dir = self.run_dir / "jobs"
        shutil.rmtree(job_dir, ignore_errors=True)
        self.server_log = open(self.run_dir / "server.log", "w")  # noqa: SIM115
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--matrix", f"P={self.run_dir / 'P.npz'}",
             "--matrix", f"B={self.run_dir / 'B.npz'}",
             "--job-dir", str(job_dir), "--serve-workers", str(WORKERS),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.server_log, text=True, env=env,
        )
        try:
            assert self.server.stdout is not None
            line = self.server.stdout.readline()
            match = re.match(r"serving on ([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            address = (match.group(1), int(match.group(2)))
            self.clients = [ServiceClient(*address) for _ in range(self.callers)]
            deadline = time.monotonic() + 30.0
            while not self.clients[0].ready()["ready"]:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never became ready")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if server is not None and server.stdout is not None:
            server.stdout.close()
        if getattr(self, "server_log", None) is not None:
            self.server_log.close()

    def observe(self, obs: Observation | None) -> None:
        """The server always records into its own observation."""

    def peak_rss_mb(self) -> float:
        return rss_mb(self.server.pid)

    def server_rss_mb(self) -> float:
        return rss_mb(self.server.pid, "VmRSS")

    def counters(self) -> dict[str, float]:
        metrics = self.clients[0].metrics()
        flat = {
            "plan_cache.hits": metrics["plan_cache"]["hits"],
            "plan_cache.misses": metrics["plan_cache"]["misses"],
            "admission.rejected": metrics["admission"]["rejected"],
            "admission.shed": metrics["admission"]["shed"],
        }
        for name, value in metrics["metrics"].items():
            if name.startswith("service.latency_seconds."):
                flat["server.exec_s"] = flat.get("server.exec_s", 0.0) + value["sum"]
                flat["server.jobs"] = flat.get("server.jobs", 0) + value["count"]
            elif value["type"] == "counter":
                flat[name] = value["value"]
        return flat

    def cycle(self, caller: int) -> list[Op]:
        client = self.clients[caller]
        tenant = f"t{caller}"
        picks = itertools.cycle(range(self.RHS_POOL))

        def solve() -> tuple[float, str | None]:
            b, x = self.solves[next(picks)]
            return self._job(client, tenant, x, op="solve", a="B", rhs=b.tolist(),
                             params={"method": "cg", "tolerance": TOLERANCE})

        def matvec() -> tuple[float, str | None]:
            vector, expected = self.matvecs[next(picks)]
            return self._job(client, tenant, expected, op="matvec", a="P",
                             rhs=vector.tolist())

        return [
            ("multiply:power", lambda: self._job(
                client, tenant, self.product, op="multiply", a="P", b="P")),
            ("solve:banded", solve),
            ("matvec:power", matvec),
            ("solve:banded", solve),
            ("matvec:power", matvec),
        ]

    def _job(
        self, client: ServiceClient, tenant: str, expected: np.ndarray, **job: Any
    ) -> tuple[float, str | None]:
        start = time.perf_counter()
        job_id = client.submit(tenant=tenant, **job)
        status = client.wait(job_id, timeout=60.0)
        if status.get("state") != "done":
            return time.perf_counter() - start, (
                f"{job['op']}: job {status.get('state')}: {status.get('error')}")
        values = client.result(job_id)  # verifies the CRC-32C
        seconds = time.perf_counter() - start
        if not np.allclose(values.reshape(expected.shape), expected, rtol=1e-7, atol=1e-9):
            return seconds, f"{job['op']}: result differs from the in-process reference"
        return seconds, None

    def side_metrics(self) -> dict[str, float]:
        """The service's per-job disk work, measured on the same product."""
        scratch = self.run_dir / "side"
        runs = itertools.count()

        def multiply(checkpoint: bool) -> None:
            store = CheckpointStore(scratch / f"ckpt{next(runs)}") if checkpoint else None
            atmult(self.power, self.power,
                   options=MultiplyOptions(config=CONFIG, checkpoint=store))

        multiply(False)
        plain = median_seconds(lambda: multiply(False), 3)
        journaled = median_seconds(lambda: multiply(True), 3)
        store = JobStore(scratch / "jobs")
        store.job_dir("side-job").mkdir(parents=True)
        save = median_seconds(lambda: store.save_result("side-job", self.product), 3)
        shutil.rmtree(scratch, ignore_errors=True)
        return {
            "checkpoint.overhead_ms": (journaled - plain) * 1e3,
            "jobstore.save_result_ms": save * 1e3,
        }


class ShardProcesses(Workload):
    """``parallel_multiply`` on the supervised process backend."""

    name = "shard-processes"

    def setup(self) -> None:
        self.specs = [
            InputSpec("hamiltonian_384", "block_diagonal_matrix", (384,),
                      dict(num_blocks=4, block_fill=0.95, background_density=0.01,
                           size_decay=0.8)),
        ]
        self.params = {"execution": "processes", "workers": WORKERS}
        self.at = build_at_matrix(self.specs[0].generate(self.seed), CONFIG)
        options = MultiplyOptions(config=CONFIG, workers=WORKERS)
        reference, _ = Session(options=options).multiply(self.at, self.at)
        self.reference = reference.to_dense()
        self.session = Session(options=options.replace(execution="processes"))

    def cycle(self, caller: int) -> list[Op]:
        return [("multiply:hamiltonian", self._multiply)]

    def _multiply(self) -> tuple[float, str | None]:
        session = self.session
        assert session is not None
        (result, _), seconds = timed(
            lambda: session.parallel_multiply(self.at, self.at, topology=TOPOLOGY)
        )
        if not np.array_equal(result.to_dense(), self.reference):
            return seconds, "multiply: processes result not bit-identical to sequential"
        return seconds, None

    def peak_rss_mb(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return max(rss_mb(), children)

    def side_metrics(self) -> dict[str, float]:
        session = self.session
        assert session is not None
        threads = Session(options=session.options.replace(execution="threads", observer=None))
        return {
            "shard.threads_ms": median_seconds(
                lambda: threads.parallel_multiply(self.at, self.at, topology=TOPOLOGY), 3
            ) * 1e3,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AtmultCold, PlanReplay, ServiceMixed, ShardProcesses)
}
