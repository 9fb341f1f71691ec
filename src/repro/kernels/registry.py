"""Registry of the 8 tile multiplication kernels.

Paper section III-A: "In total, there are 2**3 = 8 different kernels for
the basic matrix types that are either sparse or dense."  A kernel is
addressed by the storage kinds of (A, B, C); it reads windowed operands
and adds its product into an accumulator at a target offset.

New kernel implementations (the paper's "plug in" extension point) can be
registered with :func:`register_kernel`, replacing the built-in routine
for a given type combination — the optimizer only needs the cost model to
stay in sync.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kinds import StorageKind, kernel_name
from ..observe import session as observe_session
from ..resilience.faults import fire_corruption, fire_hooks
from . import products
from .accumulator import Accumulator, DenseAccumulator
from .window import Window

Operand = CSRMatrix | DenseMatrix


class Kernel(Protocol):
    """Callable signature of a tile multiplication kernel."""

    def __call__(
        self,
        a: Operand,
        wa: Window,
        b: Operand,
        wb: Window,
        out: Accumulator,
        row0: int,
        col0: int,
    ) -> None: ...


def kind_of(operand: Operand) -> StorageKind:
    """Storage kind of a plain operand object."""
    if isinstance(operand, CSRMatrix):
        return StorageKind.SPARSE
    if isinstance(operand, DenseMatrix):
        return StorageKind.DENSE
    raise TypeError(f"not a kernel operand: {type(operand).__name__}")


def _kernel_sp_sp(
    a: Operand, wa: Window, b: Operand, wb: Window,
    out: Accumulator, row0: int, col0: int,
) -> None:
    # A dense target sums duplicates as it scatters, so the expansion goes
    # in unsorted; a sparse target buffers runs, so each product is
    # compressed first to bound them.
    if isinstance(out, DenseAccumulator):
        for chunk in products.spsp_expansion(a, wa, b, wb):
            out.add_triples(row0, col0, *chunk)
    else:
        out.add_triples(row0, col0, *products.spsp_triples(a, wa, b, wb))


def _kernel_sp_d(
    a: Operand, wa: Window, b: Operand, wb: Window,
    out: Accumulator, row0: int, col0: int,
) -> None:
    if isinstance(out, DenseAccumulator):
        out.add_dense(row0, col0, products.spd_dense(a, wa, b, wb))
    else:
        out.add_triples(row0, col0, *products.spd_triples(a, wa, b, wb))


def _kernel_d_sp(
    a: Operand, wa: Window, b: Operand, wb: Window,
    out: Accumulator, row0: int, col0: int,
) -> None:
    if isinstance(out, DenseAccumulator):
        out.add_dense(row0, col0, products.dsp_dense(a, wa, b, wb))
    else:
        out.add_triples(row0, col0, *products.dsp_triples(a, wa, b, wb))


def _kernel_d_d(
    a: Operand, wa: Window, b: Operand, wb: Window,
    out: Accumulator, row0: int, col0: int,
) -> None:
    if isinstance(out, DenseAccumulator):
        out.add_dense(row0, col0, products.dd_dense(a, wa, b, wb))
    else:
        out.add_triples(row0, col0, *products.dd_triples(a, wa, b, wb))


_KERNELS: dict[tuple[StorageKind, StorageKind, StorageKind], Kernel] = {}


def register_kernel(
    a_kind: StorageKind, b_kind: StorageKind, c_kind: StorageKind, kernel: Kernel
) -> None:
    """Install (or replace) the kernel for one (A, B, C) type combination."""
    _KERNELS[(a_kind, b_kind, c_kind)] = kernel


def get_kernel(
    a_kind: StorageKind, b_kind: StorageKind, c_kind: StorageKind
) -> Kernel:
    """Look up the kernel for an (A, B, C) type combination."""
    return _KERNELS[(a_kind, b_kind, c_kind)]


def available_kernels() -> list[str]:
    """Paper-style names of all registered kernels (e.g. ``spspd_gemm``)."""
    return sorted(kernel_name(*key) for key in _KERNELS)


def _install_builtins() -> None:
    for c_kind in StorageKind:
        register_kernel(StorageKind.SPARSE, StorageKind.SPARSE, c_kind, _kernel_sp_sp)
        register_kernel(StorageKind.SPARSE, StorageKind.DENSE, c_kind, _kernel_sp_d)
        register_kernel(StorageKind.DENSE, StorageKind.SPARSE, c_kind, _kernel_d_sp)
        register_kernel(StorageKind.DENSE, StorageKind.DENSE, c_kind, _kernel_d_d)


_install_builtins()


def run_tile_product(
    a: Operand,
    wa: Window,
    b: Operand,
    wb: Window,
    out: Accumulator,
    row0: int = 0,
    col0: int = 0,
) -> None:
    """Dispatch one windowed tile product to the registered kernel.

    ``(row0, col0)`` locate the product inside the target accumulator,
    which realizes the accumulative write of paper Fig. 4.
    """
    if wa.cols != wb.rows:
        raise ShapeError(
            f"inner dimensions differ: {wa.rows}x{wa.cols} vs {wb.rows}x{wb.cols}"
        )
    if wa.is_empty() or wb.is_empty():
        return
    hook_extra = (row0, col0, wa.row0, wa.col0, wb.row0, wb.col0)
    fire_hooks("kernel", hook_extra)
    a_kind, b_kind = kind_of(a), kind_of(b)
    kernel = get_kernel(a_kind, b_kind, out.kind)
    obs = observe_session.current()
    if obs is None:
        # Disabled path: one global read and a None check, nothing else.
        kernel(a, wa, b, wb, out, row0, col0)
    else:
        name = kernel_name(a_kind, b_kind, out.kind)
        with obs.tracer.span(name, "kernel"):
            kernel(a, wa, b, wb, out, row0, col0)
        obs.metrics.counter(f"kernel.dispatch.{name}").inc()
    fire_corruption("kernel", out, hook_extra)
