"""Analytic cost functions for the 8 multiplication kernels.

The model predicts the runtime of one tile product ``C += A x B`` with
``A: m x k`` at density ``rho_a``, ``B: k x n`` at ``rho_b`` and estimated
result density ``rho_c``.  Work terms follow the implemented algorithms:

* sparse expansion flops ``F = m * k * n * rho_a * rho_b`` — the expected
  scalar product count of Gustavson's algorithm;
* sort/merge work ``F * log2(F)`` for compressing sparse expansions into
  a sparse target (a dense target's kernel scatters them unsorted);
* dense flops ``m * k * n`` for BLAS;
* write costs asymmetric between dense targets (cheap accumulation into an
  array) and sparse targets (buffered triples merged by a global sort) —
  the asymmetry behind the paper's two thresholds ``rho0_R >> rho0_W``.

Coefficients are machine-dependent, and the optimizer's plans follow
their ratios, so an error of one term against another changes kernel
choices.  :data:`DEFAULT_COEFFICIENTS` ships a
:func:`~repro.cost.calibrate.refine_from_observation` fit chosen by plan
regret in ``benchmarks/bench_regret.py`` on a 2-core Xeon with one BLAS
thread per worker (``BENCH_regret.json``); :mod:`repro.cost.calibrate`
fits a set for another host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..kinds import StorageKind


@dataclass(frozen=True)
class CostCoefficients:
    """Machine-dependent weights of the cost model (seconds per unit work).

    Decisions depend on the ratios between terms, not on the absolute
    scale; values are kept in "seconds per element operation" units so
    predicted costs can be compared with measured kernel times.
    """

    #: per expanded scalar product in sparse-sparse expansion
    sparse_expand: float = 3.5e-8
    #: per element-log-element of sort/merge work in sparse compression
    sparse_sort: float = 1.2e-8
    #: per scalar product of the CSR x dense row-accumulation kernel
    spd_flop: float = 8.4e-9
    #: per scalar product of the dense x CSR column-accumulation kernel
    dsp_flop: float = 1.3e-8
    #: per scalar product of the BLAS dense kernel
    dense_flop: float = 8.5e-11
    #: per cell written into a dense accumulator
    dense_write: float = 2.0e-9
    #: per triple appended to / merged into a sparse accumulator
    sparse_write: float = 4.0e-8
    #: per cell scanned when extracting non-zeros from a dense block
    dense_scan: float = 1.5e-9
    #: per element moved in a representation conversion
    convert_element: float = 2.0e-8
    #: fixed overhead per kernel invocation
    task_overhead: float = 3.0e-5

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"coefficient {name} must be >= 0, got {value}")


DEFAULT_COEFFICIENTS = CostCoefficients()


def _nlogn(n: float) -> float:
    return n * math.log2(n) if n > 2.0 else n


class CostModel:
    """Cost oracle for kernel selection, conversions and thresholds.

    Parameters
    ----------
    coefficients:
        Machine coefficients (see :class:`CostCoefficients`).
    read_threshold:
        The paper's ``rho0_R`` — density at which an *input* tile should
        be dense.  The paper's configuration uses 0.25.
    write_threshold:
        The paper's ``rho0_W`` — density at which an *output* tile should
        be dense; "usually a much lower value" due to the read/write
        asymmetry.
    """

    def __init__(
        self,
        coefficients: CostCoefficients = DEFAULT_COEFFICIENTS,
        *,
        read_threshold: float = 0.25,
        write_threshold: float = 0.04,
    ) -> None:
        if not 0.0 < read_threshold <= 1.0:
            raise ConfigError(f"read_threshold must be in (0, 1], got {read_threshold}")
        if not 0.0 < write_threshold <= 1.0:
            raise ConfigError(
                f"write_threshold must be in (0, 1], got {write_threshold}"
            )
        self.coefficients = coefficients
        self.read_threshold = read_threshold
        self.write_threshold = write_threshold

    # -- kernel costs -----------------------------------------------------
    def product_cost(
        self,
        a_kind: StorageKind,
        b_kind: StorageKind,
        c_kind: StorageKind,
        m: int,
        k: int,
        n: int,
        rho_a: float,
        rho_b: float,
        rho_c: float,
    ) -> float:
        """Predicted seconds for one ``C += A x B`` tile product."""
        c = self.coefficients
        volume = float(m) * float(k) * float(n)
        nnz_c = rho_c * m * n

        if a_kind is StorageKind.SPARSE and b_kind is StorageKind.SPARSE:
            flops = volume * rho_a * rho_b
            compute = c.sparse_expand * flops
            if c_kind is StorageKind.SPARSE:
                # Compressed before buffering; a dense target's kernel
                # scatters the expansion without sorting.
                compute += c.sparse_sort * _nlogn(flops)
            produced = min(flops, float(m) * n)  # triples after compression
        elif a_kind is StorageKind.SPARSE:  # sparse x dense
            flops = volume * rho_a
            compute = c.spd_flop * flops
            produced = float(m) * n
        elif b_kind is StorageKind.SPARSE:  # dense x sparse
            flops = volume * rho_b
            compute = c.dsp_flop * flops
            produced = float(m) * n
        else:  # dense x dense
            flops = volume
            compute = c.dense_flop * flops
            produced = float(m) * n

        if c_kind is StorageKind.DENSE:
            write = c.dense_write * produced
        else:
            if a_kind is StorageKind.SPARSE and b_kind is StorageKind.SPARSE:
                # Compressed triples append + later global merge.
                write = c.sparse_write * produced + c.sparse_sort * _nlogn(nnz_c)
            else:
                # Dense product block scanned for non-zeros, then merged.
                write = (
                    c.dense_scan * produced
                    + c.sparse_write * nnz_c
                    + c.sparse_sort * _nlogn(nnz_c)
                )
        return c.task_overhead + compute + write

    def conversion_cost(
        self, source: StorageKind, target: StorageKind, m: int, n: int, rho: float
    ) -> float:
        """Predicted seconds for converting an ``m x n`` tile of density
        ``rho`` between representations (0 when kinds match)."""
        if source is target:
            return 0.0
        c = self.coefficients
        cells = float(m) * n
        nnz = rho * cells
        if target is StorageKind.DENSE:
            # Allocate/zero the array, scatter the non-zeros.
            return c.dense_write * cells + c.convert_element * nnz
        # Dense -> sparse: scan all cells, build CSR from the non-zeros.
        return c.dense_scan * cells + c.convert_element * nnz + c.sparse_sort * _nlogn(nnz)

    # -- threshold derivation ------------------------------------------------
    def solve_read_turnaround(
        self, m: int, k: int, n: int, rho_b: float, rho_c: float, *, steps: int = 256
    ) -> float:
        """Density of A at which a dense A starts to beat a sparse A.

        Numerically locates the cost-crossover of ``spspsp`` vs ``dspsp``
        (holding B sparse and the target fixed) — the paper's "density
        turnaround point" that ``rho0_R`` approximates.
        """
        c_kind = StorageKind.SPARSE
        for i in range(1, steps + 1):
            rho = i / steps
            sparse_cost = self.product_cost(
                StorageKind.SPARSE, StorageKind.SPARSE, c_kind, m, k, n, rho, rho_b, rho_c
            )
            dense_cost = self.product_cost(
                StorageKind.DENSE, StorageKind.SPARSE, c_kind, m, k, n, rho, rho_b, rho_c
            )
            if dense_cost <= sparse_cost:
                return rho
        return 1.0

    def solve_write_turnaround(
        self, m: int, k: int, n: int, rho_a: float, rho_b: float, *, steps: int = 4096
    ) -> float:
        """Result density at which a dense target starts to beat sparse.

        Locates the crossover of ``spspd`` vs ``spspsp`` in the result
        density — the basis of the paper's much lower ``rho0_W``.
        """
        for i in range(1, steps + 1):
            rho_c = i / steps
            sparse_cost = self.product_cost(
                StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE,
                m, k, n, rho_a, rho_b, rho_c,
            )
            dense_cost = self.product_cost(
                StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.DENSE,
                m, k, n, rho_a, rho_b, rho_c,
            )
            if dense_cost <= sparse_cost:
                return rho_c
        return 1.0

    def cheapest_input_kinds(
        self,
        a_kind: StorageKind,
        b_kind: StorageKind,
        c_kind: StorageKind,
        m: int,
        k: int,
        n: int,
        rho_a: float,
        rho_b: float,
        rho_c: float,
        *,
        convertible_a: bool = True,
        convertible_b: bool = True,
    ) -> tuple[StorageKind, StorageKind, float]:
        """Input-kind pair minimizing product + conversion cost.

        This is the decision of the dynamic optimizer (paper Alg. 2 line
        9): conversions of A/B are charged their one-off cost.
        """
        candidates_a = list(StorageKind) if convertible_a else [a_kind]
        candidates_b = list(StorageKind) if convertible_b else [b_kind]
        best: tuple[StorageKind, StorageKind, float] | None = None
        for ka in candidates_a:
            for kb in candidates_b:
                cost = self.product_cost(ka, kb, c_kind, m, k, n, rho_a, rho_b, rho_c)
                cost += self.conversion_cost(a_kind, ka, m, k, rho_a)
                cost += self.conversion_cost(b_kind, kb, k, n, rho_b)
                if best is None or cost < best[2]:
                    best = (ka, kb, cost)
        assert best is not None
        return best
