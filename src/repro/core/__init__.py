"""The paper's primary contribution: AT MATRIX and the ATMULT operator."""

from .tile import Tile
from .atmatrix import ATMatrix
from .partition import QuadtreePartitioner, TileSpec
from .builder import ATMatrixBuilder, BuildReport, build_at_matrix
from .fixed import fixed_grid_at_matrix
from .report import BaseReport, MultiplyReport, ParallelReport
from .atmult import atmult
from .chain import ChainPlan, ChainReport, multiply_chain, plan_chain
from .operands import MatrixOperand, as_at_matrix, operand_density_map
from .retile import align_to_operand, retile, split_tiles_at_cols
from .arith import add, scale
from .atmv import PowerIterationResult, atmv, atmv_transposed, power_iteration
from .parallel import parallel_atmult
from ..engine.executor import enforce_memory_limit

__all__ = [
    "BaseReport",
    "Tile",
    "ATMatrix",
    "QuadtreePartitioner",
    "TileSpec",
    "ATMatrixBuilder",
    "BuildReport",
    "build_at_matrix",
    "fixed_grid_at_matrix",
    "MultiplyReport",
    "atmult",
    "enforce_memory_limit",
    "MatrixOperand",
    "as_at_matrix",
    "operand_density_map",
    "ChainPlan",
    "ChainReport",
    "plan_chain",
    "multiply_chain",
    "align_to_operand",
    "retile",
    "split_tiles_at_cols",
    "add",
    "scale",
    "atmv",
    "atmv_transposed",
    "power_iteration",
    "PowerIterationResult",
    "parallel_atmult",
    "ParallelReport",
]
