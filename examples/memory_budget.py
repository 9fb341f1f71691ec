"""Memory-bounded multiplication with the water-level method.

A resource-managed system (e.g. a DBMS with memory SLAs, paper section
III-E) caps the memory of the result matrix.  ATMULT adapts the write
density threshold with the water-level method: tighter budgets push more
result tiles into the sparse representation, trading performance for
footprint — without changing the numerical result.

Run:  python examples/memory_budget.py
"""

import time

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.errors import MemoryLimitError


def main() -> None:
    rng = np.random.default_rng(5)
    n = 1024
    raw = np.where(rng.random((n, n)) < 0.01, rng.random((n, n)), 0.0)
    raw[:256, :256] = np.where(
        rng.random((256, 256)) < 0.6, rng.random((256, 256)), 0.0
    )
    staged = COOMatrix.from_dense(raw)
    config = SystemConfig()
    matrix = build_at_matrix(staged, config)
    print(f"input: {matrix}")

    # Reference run without a budget.
    unlimited, report = atmult(matrix, matrix, config=config)
    reference = unlimited.to_dense()
    full_bytes = unlimited.memory_bytes()
    sparse_floor = unlimited.to_csr().memory_bytes()
    print(f"\nunbounded result:   {full_bytes / 1e6:7.2f} MB "
          f"(write threshold {report.write_threshold:.3f})")
    print(f"all-sparse footprint would be {sparse_floor / 1e6:.2f} MB")

    print(f"\n{'budget':>12} {'actual':>10} {'threshold':>10} "
          f"{'dense tiles':>12} {'time':>9}")
    for fraction in (2.0, 1.0, 0.75, 0.5, 0.25):
        budget = full_bytes * fraction
        start = time.perf_counter()
        try:
            result, rep = atmult(
                matrix,
                matrix,
                options=MultiplyOptions(config=config, memory_limit_bytes=budget),
            )
        except MemoryLimitError as error:
            print(f"{budget / 1e6:10.2f} MB  unsatisfiable: {error}")
            continue
        elapsed = time.perf_counter() - start
        from repro import StorageKind

        dense_tiles = result.num_tiles(StorageKind.DENSE)
        print(f"{budget / 1e6:10.2f} MB {result.memory_bytes() / 1e6:8.2f} MB "
              f"{rep.write_threshold:10.3f} {dense_tiles:12d} "
              f"{elapsed * 1e3:7.1f} ms")
        assert result.memory_bytes() <= budget
        assert np.allclose(result.to_dense(), reference)

    print("\nall bounded results verified identical to the unbounded run")


if __name__ == "__main__":
    main()
