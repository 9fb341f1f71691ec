"""Structure fingerprints and configuration hashes for plan reuse.

An :class:`~repro.engine.plan.ExecutionPlan` is replayable against
operands whose *topology* matches the one it was built from — values may
change freely, but the tile geometry and the sparsity pattern that drove
the density estimate, the water level and the kernel decisions must be
identical.  This module defines what "identical topology" means:

* a :class:`~repro.formats.csr.CSRMatrix` is fingerprinted over its
  shape and its structural arrays (``indptr`` + ``indices``) — changing
  any stored value keeps the fingerprint, inserting or removing a
  non-zero changes it;
* a :class:`~repro.formats.dense.DenseMatrix` is fingerprinted over its
  shape plus its population density quantized to two decimals — a dense
  block stores every cell, so there is no pattern to digest, but the
  planner's cost decisions consume the density, and whatever enters a
  plan must enter its key.  The quantization matches the decision
  memo's buckets (finer than any cost crossover): repeated products
  against fully-populated dense operands all key to the same plan,
  while a degenerate operand (say, an all-zero start vector) gets its
  own — correctly all-sparse — plan instead of poisoning the shared one;
* an :class:`~repro.core.atmatrix.ATMatrix` digests its dimensions,
  atomic block size and the ordered tile directory (geometry, storage
  kind and payload fingerprint per tile).

Fingerprints are cached on the fingerprinted object (``_structure_fp``)
and invalidated together with the other derived state, so repeated plans
against the same operand cost one digest, not one per call.

The second half of the key is :func:`config_fingerprint`: every input of
the planning pipeline that is *not* operand topology — the
:class:`~repro.config.SystemConfig`, the cost model's coefficients and
thresholds, the memory limit and the ablation flags.  Two calls agree on
a cached plan only when both halves match.
"""

from __future__ import annotations

import hashlib
import struct

from ..config import SystemConfig
from ..cost.model import CostModel
from ..core.atmatrix import ATMatrix
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix


def _digest(*chunks: bytes) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def payload_fingerprint(payload: CSRMatrix | DenseMatrix) -> str:
    """Topology fingerprint of one tile payload (cached on the payload)."""
    cached = getattr(payload, "_structure_fp", None)
    if cached is not None:
        return cached
    if isinstance(payload, DenseMatrix):
        fp = _digest(
            b"dense",
            struct.pack(
                "<qqd", payload.rows, payload.cols, round(payload.density, 2)
            ),
        )
    else:
        fp = _digest(
            b"csr",
            struct.pack("<qq", payload.rows, payload.cols),
            payload.indptr.tobytes(),
            payload.indices.tobytes(),
        )
    payload._structure_fp = fp
    return fp


def structure_fingerprint(operand: ATMatrix | CSRMatrix | DenseMatrix) -> str:
    """Topology fingerprint of any multiply operand.

    For AT Matrices the value is cached on the instance and dropped by
    :meth:`~repro.core.atmatrix.ATMatrix.invalidate_index` alongside the
    other derived state.
    """
    if not isinstance(operand, ATMatrix):
        return payload_fingerprint(operand)
    cached = getattr(operand, "_structure_fp", None)
    if cached is not None:
        return cached
    chunks: list[bytes] = [
        b"at",
        struct.pack("<qqq", operand.rows, operand.cols, operand.config.b_atomic),
    ]
    for tile in operand.tiles:
        chunks.append(
            struct.pack("<qqqq", tile.row0, tile.col0, tile.rows, tile.cols)
        )
        chunks.append(tile.kind.value.encode())
        chunks.append(payload_fingerprint(tile.data).encode())
    fp = _digest(*chunks)
    operand._structure_fp = fp
    return fp


def chain_fingerprint(
    operand_fingerprints: tuple[str, ...], setup_key: str
) -> str:
    """Stable identity of a fused chain across processes.

    Digest of every leaf operand's structure fingerprint, in chain
    order, plus the setup key — the same inputs a
    :class:`~repro.engine.cache.ChainKey` carries, so the fingerprint
    identifies a :class:`~repro.engine.plan.FusedChainPlan` exactly as
    :attr:`~repro.engine.plan.ExecutionPlan.fingerprint` identifies a
    single-product plan.
    """
    chunks: list[bytes] = [b"chain", struct.pack("<q", len(operand_fingerprints))]
    for fingerprint in operand_fingerprints:
        chunks.append(fingerprint.encode("utf-8"))
        chunks.append(b"\x00")
    chunks.append(setup_key.encode("utf-8"))
    return _digest(*chunks)


def config_fingerprint(
    config: SystemConfig,
    cost_model: CostModel,
    *,
    memory_limit_bytes: float | None,
    dynamic_conversion: bool,
    use_estimation: bool,
) -> str:
    """Hash of every non-operand input of the planning pipeline."""
    parts = [
        f"llc={config.llc_bytes}",
        f"alpha={config.alpha}",
        f"beta={config.beta}",
        f"b={config.b_atomic}",
        f"sd={config.dense_element_bytes}",
        f"ssp={config.sparse_element_bytes}",
        f"rt={cost_model.read_threshold!r}",
        f"wt={cost_model.write_threshold!r}",
        f"mem={memory_limit_bytes!r}",
        f"conv={dynamic_conversion}",
        f"est={use_estimation}",
    ]
    coefficients = cost_model.coefficients
    parts.extend(
        f"{name}={value!r}" for name, value in sorted(vars(coefficients).items())
    )
    return _digest("|".join(parts).encode())
