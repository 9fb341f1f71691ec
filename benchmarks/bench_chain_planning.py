"""Matrix chain planning bench (the SpMachO-style expression gain).

The paper motivates adaptive storage partly through "sparse matrix chain
multiplications [9]" where fixed representations and naive evaluation
orders hurt.  This bench builds a three-factor chain with a bottleneck
inner dimension — the classic case where parenthesization dominates —
and compares:

* naive left-to-right evaluation ((A B) C);
* the cost-based plan of :func:`repro.core.chain.multiply_chain`.

Expected shape: the planner picks A (B C) and avoids materializing the
large intermediate, winning by a factor that grows with the bottleneck
ratio.
"""

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, atmult, build_at_matrix, multiply_chain
from repro.bench import format_table
from repro.generate import uniform_random_matrix

from .conftest import register_report, BENCH_CONFIG, bench_once

WIDE = 2048
NARROW = 64

_RESULTS = {}


@pytest.fixture(scope="module")
def chain(matrices):
    """A (wide x narrow) @ (narrow x wide) @ (wide x narrow) chain."""
    rng = np.random.default_rng(11)
    a = COOMatrix.from_dense(
        np.where(rng.random((WIDE, NARROW)) < 0.3, rng.random((WIDE, NARROW)), 0)
    )
    b = uniform_random_matrix(WIDE, 60_000, seed=12).extract_window(
        0, NARROW, 0, WIDE
    )
    b = COOMatrix(NARROW, WIDE, b.row_ids, b.col_ids, b.values)
    c = COOMatrix.from_dense(
        np.where(rng.random((WIDE, NARROW)) < 0.3, rng.random((WIDE, NARROW)), 0)
    )
    return [
        build_at_matrix(a, BENCH_CONFIG),
        build_at_matrix(b, BENCH_CONFIG),
        build_at_matrix(c, BENCH_CONFIG),
    ]


def test_naive_left_to_right(benchmark, chain, collector):
    def run():
        ab, _ = atmult(chain[0], chain[1], config=BENCH_CONFIG)
        result, _ = atmult(ab, chain[2], config=BENCH_CONFIG)
        return result

    result, seconds = bench_once(benchmark, run)
    _RESULTS["naive (A B) C"] = seconds
    collector.record("chain", "naive", "bottleneck", seconds)
    assert result.shape == (WIDE, NARROW)


def test_planned_chain(benchmark, chain, collector):
    def run():
        return multiply_chain(chain, options=MultiplyOptions(config=BENCH_CONFIG))

    (result, report), seconds = bench_once(benchmark, run)
    parenthesization = report.plan.parenthesization()
    _RESULTS["planned " + parenthesization] = seconds
    collector.record("chain", "planned", "bottleneck", seconds)
    assert parenthesization == "(A1 (A2 A3))"
    assert result.shape == (WIDE, NARROW)


def test_zz_chain_report(benchmark, capsys):
    register_report(benchmark)
    rows = [[label, f"{seconds * 1e3:.1f}"] for label, seconds in _RESULTS.items()]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["evaluation order", "total ms"],
                rows,
                title=(
                    f"chain multiplication: ({WIDE}x{NARROW}) @ "
                    f"({NARROW}x{WIDE}) @ ({WIDE}x{NARROW})"
                ),
            )
        )
        print("expected shape: the planner avoids the large (A B) intermediate")
