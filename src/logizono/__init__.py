"""Logical and polynomial logical zonotopes with reachability analysis."""

from .binvec import BinaryMatrix, BinaryVector, Gate, bv_not, bv_op
from .errors import CapacityError, DimensionError, ModelError, SearchFailure
from .explicit import ExplicitSet, set_minkowski, set_not
from .logical import (
    LogicalZonotope, lz_and, lz_compact, lz_contains, lz_enclose_points,
    lz_evaluate, lz_nand, lz_nor, lz_not, lz_or, lz_reduce, lz_xnor, lz_xor,
)
from .poly import (
    PolyLogicalZonotope, eval_at, merge_id, pz_compact, pz_contains,
    pz_enclose_points, pz_encode_points, pz_evaluate, pz_exact_and,
    pz_exact_nand, pz_exact_nor, pz_exact_or, pz_exact_xnor, pz_exact_xor,
    pz_mink_and, pz_mink_nand, pz_mink_nor, pz_mink_or, pz_mink_xnor,
    pz_mink_xor, pz_not, pz_simplify, unique_id,
)
from .model import Model, eval_expr, load_model, parse_expr, parse_model
from .reach import ReachResult, joint_size, poly_joint_set, reach, reach_report
from .cases import (
    LfsrSpec, boolean10_model, intersection_model, lfsr_encrypt,
    lfsr_keystream, lfsr_recover_key,
)

__version__ = "0.1.0"
