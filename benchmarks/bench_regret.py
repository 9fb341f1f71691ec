#!/usr/bin/env python
"""Plan regret: the cost model's kernel choices against the measured fastest.

The dynamic optimizer (paper section III-C, Alg. 2 line 9) picks each
tile product's input representations by predicted cost, so its plans are
only as good as the cost coefficients.  This bench measures how much time
those choices leave on the table.

For each suite class (R1, R3, R4, R8, G5, generated through
:mod:`repro.generate`, built under ``SystemConfig()`` as perfbench builds
them) the self-product ``A x A`` is planned with :func:`repro.plan` under
each coefficient set.  Then, for every planned tile product, each of the
four input-kind pairs is timed into the planned target kind on the
planned windows (best of several rounds; a pair more than ``PRUNE`` times
slower than the product's fastest after the first round is not repeated).
Converting a tile to the other representation is timed per tile and
charged once per tile, on first use in plan order, as the executor's
conversion cache does.  A plan's cost is the sum of its chosen products
and conversions; the oracle takes the per-product minimum under the same
once-per-tile conversion charge.  Regret is ``sum chosen / sum oracle``
per class, and over all classes for the total.  Kernel times only: pair
finalization and scheduling are the same for every choice.

Coefficient sets compared:

* ``pre-refit`` — the model as shipped before the refit, kept literally
  below as the recorded baseline: its coefficients, and a ``sparse_sort``
  charge on sparse x sparse into a dense target, whose kernel scatters
  the expansion without sorting;
* ``calibrate`` — a :func:`repro.cost.calibrate` fit on this host;
* ``refine`` — :func:`repro.cost.refine_from_observation` of the
  pre-refit set after one traced ATMULT per class under the pre-refit
  model;
* ``shipped`` — :data:`repro.cost.DEFAULT_COEFFICIENTS`;
* ``shipped+spsp-dense-sort`` — the shipped set with the pre-refit
  ``sparse_sort`` charge put back, kept as the losing alternative.

Timings run with one BLAS thread, as perfbench runs its workers.

Gate (exit 1 on failure): the shipped set's total regret is at most the
pre-refit set's; a full run also needs it at most the pre-refit regret on
every class.  Results land in ``BENCH_regret.json`` with a host record;
``passed`` is null when no product was timed.

Usage::

    PYTHONPATH=src python benchmarks/bench_regret.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread per worker, as perfbench runs the executor; this
    # must happen before numpy loads the BLAS library.
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    CostCoefficients,
    CostModel,
    MultiplyOptions,
    Observation,
    SystemConfig,
    atmult,
    build_at_matrix,
    calibrate,
    plan,
    refine_from_observation,
)
from repro.bench import host_record  # noqa: E402
from repro.formats.convert import csr_to_dense, dense_to_csr  # noqa: E402
from repro.generate.suite import load_matrix  # noqa: E402
from repro.kernels import get_kernel, make_accumulator  # noqa: E402
from repro.kinds import StorageKind, kernel_name  # noqa: E402

CLASSES = ("R1", "R3", "R4", "R8", "G5")
CONFIG = SystemConfig()
FULL_ROUNDS, SMOKE_ROUNDS = 3, 2
#: Smoke runs time an evenly spaced sample of each class's tile pairs.
SMOKE_PAIRS = 12
#: A candidate this many times slower than a product's fastest after the
#: first round is not timed again: it cannot be that product's minimum.
PRUNE = 8.0
CANDIDATES = [(a, b) for a in StorageKind for b in StorageKind]

#: ``DEFAULT_COEFFICIENTS`` before the refit: dense flops at 1 ns, an
#: order of magnitude slower than the BLAS kernel runs them.
PRE_REFIT = CostCoefficients(
    sparse_expand=3.0e-8,
    sparse_sort=1.0e-8,
    spd_flop=1.2e-8,
    dsp_flop=1.4e-8,
    dense_flop=1.0e-9,
    dense_write=2.0e-9,
    sparse_write=4.0e-8,
    dense_scan=1.5e-9,
    convert_element=2.0e-8,
    task_overhead=3.0e-5,
)


class SpspDenseSortModel(CostModel):
    """The cost model with the pre-refit ``sparse_sort`` charge on sp x sp -> dense."""

    def product_cost(self, a_kind, b_kind, c_kind, m, k, n, rho_a, rho_b, rho_c):
        cost = super().product_cost(a_kind, b_kind, c_kind, m, k, n, rho_a, rho_b, rho_c)
        if a_kind is b_kind is StorageKind.SPARSE and c_kind is StorageKind.DENSE:
            flops = float(m) * k * n * rho_a * rho_b
            cost += self.coefficients.sparse_sort * (
                flops * np.log2(flops) if flops > 2.0 else flops
            )
        return cost


# ---------------------------------------------------------------------------
# coefficient sets
# ---------------------------------------------------------------------------
def refined(ats: dict[str, Any]) -> CostCoefficients:
    """The pre-refit set refined from one traced ATMULT per class."""
    obs = Observation()
    options = MultiplyOptions(
        config=CONFIG, cost_model=SpspDenseSortModel(PRE_REFIT), observer=obs
    )
    for at in ats.values():
        atmult(at, at, options=options)
    return refine_from_observation(obs, PRE_REFIT)


def models(ats: dict[str, Any]) -> dict[str, CostModel]:
    return {
        "pre-refit": SpspDenseSortModel(PRE_REFIT),
        "calibrate": CostModel(calibrate()),
        "refine": CostModel(refined(ats)),
        "shipped": CostModel(),
        "shipped+spsp-dense-sort": SpspDenseSortModel(),
    }


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def sample(pairs: list, limit: int) -> list:
    """An evenly spaced subset of at most ``limit`` pairs."""
    if len(pairs) <= limit:
        return pairs
    return [pairs[i] for i in np.linspace(0, len(pairs) - 1, limit).astype(int)]


def _best(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def time_conversions(at, rounds: int) -> tuple[dict[int, Any], dict[int, float]]:
    """Each tile converted to its other kind, and the seconds that took."""
    converted, seconds = {}, {}
    for index, tile in enumerate(at.tiles):
        convert = csr_to_dense if tile.kind is StorageKind.SPARSE else dense_to_csr
        seconds[index] = _best(lambda tile=tile, convert=convert: convert(tile.data), rounds)
        converted[index] = convert(tile.data)
    return converted, seconds


def time_products(at, pairs, converted, rounds: int) -> list[dict[tuple, float]]:
    """Per planned product (in plan order): input-kind pair -> seconds.

    Each candidate runs the pair's products into one fresh accumulator
    of the planned target kind per round, as the executor does.
    """
    def payload(index, kind):
        tile = at.tiles[index]
        return tile.data if kind is tile.kind else converted[index]

    table: list[dict[tuple, float]] = []
    for pair in pairs:
        times = [dict.fromkeys(CANDIDATES, float("inf")) for _ in pair.products]
        for round_ in range(rounds):
            for kinds in CANDIDATES:
                kernel = get_kernel(*kinds, pair.c_kind)
                out = make_accumulator(pair.c_kind, pair.r1 - pair.r0, pair.c1 - pair.c0)
                for product, row in zip(pair.products, times, strict=True):
                    if round_ and row[kinds] > PRUNE * min(row.values()):
                        continue
                    a = payload(product.a_index, kinds[0])
                    b = payload(product.b_index, kinds[1])
                    start = time.perf_counter()
                    kernel(a, product.wa, b, product.wb, out,
                           product.target_row, product.target_col)
                    row[kinds] = min(row[kinds], time.perf_counter() - start)
        table.extend(times)
    return table


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------
def plan_cost(at, products, table, conversion_seconds, choose) -> tuple[float, int, dict]:
    """Seconds of the products' chosen kernels plus once-per-tile conversions.

    ``choose(product, row, charge)`` returns the input-kind pair for one
    product, given its timing row and ``charge(tile, kind)``, the
    conversion seconds that using the tile as ``kind`` would still cost.
    """
    converted: set[int] = set()
    total = 0.0
    kernels: dict[str, int] = {}

    def charge(index, kind):
        if kind is at.tiles[index].kind or index in converted:
            return 0.0
        return conversion_seconds[index]

    for (product, c_kind), row in zip(products, table, strict=True):
        kinds = choose(product, row, charge)
        total += row[kinds]
        for index, kind in ((product.a_index, kinds[0]), (product.b_index, kinds[1])):
            total += charge(index, kind)
            if kind is not at.tiles[index].kind:
                converted.add(index)
        name = kernel_name(*kinds, c_kind)
        kernels[name] = kernels.get(name, 0) + 1
    return total, len(converted), kernels


def planned_choice(product, row, charge):
    return product.kind_a, product.kind_b


def oracle_choice(product, row, charge):
    return min(
        CANDIDATES,
        key=lambda kinds: row[kinds]
        + charge(product.a_index, kinds[0])
        + charge(product.b_index, kinds[1]),
    )


def measure_class(key: str, at, cost_models: dict[str, CostModel], *, smoke: bool, rounds: int):
    plans = {name: plan(at, at, options=MultiplyOptions(config=CONFIG, cost_model=model))
             for name, model in cost_models.items()}
    geometry = {
        name: [(p.r0, p.r1, p.c0, p.c1, p.c_kind, len(p.products)) for p in built.pairs]
        for name, built in plans.items()
    }
    first = next(iter(geometry.values()))
    assert all(g == first for g in geometry.values()), f"{key}: plans differ in pair geometry"

    # Pair indices are shared by every plan; timing runs on the first's.
    indices = sample(list(range(len(first))), SMOKE_PAIRS) if smoke else range(len(first))
    reference = next(iter(plans.values()))
    pairs = [reference.pairs[i] for i in indices]
    converted, conversion_seconds = time_conversions(at, rounds)
    table = time_products(at, pairs, converted, rounds)
    del converted

    def products_of(built):
        return [(product, built.pairs[i].c_kind)
                for i in indices for product in built.pairs[i].products]

    oracle, oracle_conversions, oracle_kernels = plan_cost(
        at, products_of(reference), table, conversion_seconds, oracle_choice
    )
    rows: dict[str, dict[str, Any]] = {}
    for name, built in plans.items():
        chosen, conversions, kernels = plan_cost(
            at, products_of(built), table, conversion_seconds, planned_choice
        )
        rows[name] = {
            "chosen_ms": chosen * 1e3,
            "conversions": conversions,
            "kernels": dict(sorted(kernels.items())),
            "regret": chosen / oracle if oracle else 1.0,
        }
    oracle_row = {
        "ms": oracle * 1e3,
        "conversions": oracle_conversions,
        "kernels": dict(sorted(oracle_kernels.items())),
    }
    return rows, oracle_row, len(table)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_regret.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"time at most {SMOKE_PAIRS} tile pairs per class, {SMOKE_ROUNDS} rounds",
    )
    args = parser.parse_args(argv)
    rounds = SMOKE_ROUNDS if args.smoke else FULL_ROUNDS

    host = host_record()
    print(f"host: {host['cpu_cores']} cores, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}")
    ats = {key: build_at_matrix(load_matrix(key), CONFIG) for key in CLASSES}
    cost_models = models(ats)

    regret: dict[str, dict[str, dict[str, Any]]] = {name: {} for name in cost_models}
    oracle: dict[str, dict[str, Any]] = {}
    products = 0
    for key, at in ats.items():
        rows, oracle[key], timed = measure_class(
            key, at, cost_models, smoke=args.smoke, rounds=rounds
        )
        products += timed
        for name, row in rows.items():
            regret[name][key] = row

    totals = {
        name: sum(row["chosen_ms"] for row in per_class.values())
        / sum(row["ms"] for row in oracle.values())
        for name, per_class in regret.items()
    } if products else {}

    names = list(cost_models)
    print(f"{products} tile products timed, {rounds} rounds; regret (chosen / oracle):")
    print(f"{'class':>5} {'oracle ms':>10} " + " ".join(f"{name:>24}" for name in names))
    for key in CLASSES:
        cells = " ".join(
            f"{regret[name][key]['regret']:>10.3f} ({regret[name][key]['chosen_ms']:>8.1f} ms)"
            .rjust(24) for name in names
        )
        print(f"{key:>5} {oracle[key]['ms']:>10.1f} {cells}")
    if totals:
        print(f"{'total':>5} {'':>10} " + " ".join(f"{totals[name]:>24.3f}" for name in names))

    passed: bool | None = None
    worse: list[str] = []
    if totals:
        worse = [key for key in CLASSES
                 if regret["shipped"][key]["regret"] > regret["pre-refit"][key]["regret"]]
        passed = totals["shipped"] <= totals["pre-refit"] and (args.smoke or not worse)
        gate = (f"shipped total regret {totals['shipped']:.3f} vs pre-refit "
                f"{totals['pre-refit']:.3f} (need <=)")
        if not args.smoke:
            gate += f"; classes worse than pre-refit: {', '.join(worse) or 'none'}"
    else:
        gate = "skipped (no tile product timed)"
    print(("gate passed: " if passed else "FAIL: " if passed is False else "") + gate)

    payload = {
        "blas_threads": 1,
        "classes": list(CLASSES),
        "classes_worse": worse,
        "coefficients": {name: asdict(model.coefficients) for name, model in cost_models.items()},
        "gate": gate,
        "host": host,
        "oracle": oracle,
        "passed": passed,
        "products_timed": products,
        "prune": PRUNE,
        "regret": regret,
        "rounds": rounds,
        "smoke": args.smoke,
        "total_regret": totals,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 1 if passed is False else 0


if __name__ == "__main__":
    raise SystemExit(main())
