"""Computational workbench for the rational gl(N+1) Gaudin model.

Exact (rational / Gaussian-rational) and floating-point arithmetic
throughout: evaluation-module tensor products with their invariant form, the
commuting coefficient family of the row-determinant operator, critical points
of the master function with Bethe eigenvectors, and the polynomial-kernel /
Wronskian / incidence certificates tying the two sides together.
"""

from .errors import (AmbientTooSmall, DimensionMismatch, DistinctnessError,
                     GaudinError, ImproperRational, KernelDimensionMismatch,
                     NotAPartition, NotInvariant, PointNotInU, PoleEvaluation,
                     RepeatedSites, SchemaError, ShapeNormalizationFailure,
                     TermLimitExceeded, ZeroVector)
from .scalars import QI, format_scalar, parse_rational
from .diffop_ring import OperatorPencil, Poly, RFMatrix, row_determinant
from .repr_core import (GlModule, SymmetricForm, build_irreducible,
                        tensor_module, tensor_shapovalov,
                        weight_and_singular_subspace)
from .bethe_algebra import (BetheOperatorFamily, algebra_selfcheck,
                            current_matrix, first_coefficient_identity,
                            restrict_family, universal_operator)
from .master import (CriticalOrbit, GaudinProblem, PointConfig, SolverConfig,
                     find_critical_orbits, gradient_log_master,
                     hessian_determinant, hessian_log_master,
                     master_coefficients, master_operator_at,
                     try_rationalize_orbit)
from .weight_function import (bethe_vector, enumerate_sequences,
                              enumerate_terms, sequence_count, term_count,
                              weight_function)
from .wronski_schubert import (ExponentData, PolynomialTuple, exponent_data,
                               schubert_incidence, solve_h_tuple,
                               verify_wronskian_identities, wronskian)
from .harness_cli import load_problem, run_pipeline, emit_report, main

__version__ = "0.1.0"

__all__ = [
    "AmbientTooSmall", "BetheOperatorFamily", "CriticalOrbit",
    "DimensionMismatch", "DistinctnessError",
    "ExponentData", "GaudinError", "GaudinProblem", "GlModule",
    "ImproperRational", "KernelDimensionMismatch", "NotAPartition",
    "NotInvariant", "OperatorPencil", "PointConfig", "PointNotInU",
    "PoleEvaluation", "Poly", "PolynomialTuple", "QI", "RFMatrix",
    "RepeatedSites", "SchemaError", "ShapeNormalizationFailure",
    "SolverConfig", "SymmetricForm", "TermLimitExceeded", "ZeroVector",
    "algebra_selfcheck", "bethe_vector", "build_irreducible", "current_matrix",
    "emit_report", "enumerate_sequences", "enumerate_terms", "exponent_data",
    "find_critical_orbits", "first_coefficient_identity", "format_scalar",
    "gradient_log_master", "hessian_determinant", "hessian_log_master",
    "load_problem", "main", "master_coefficients", "master_operator_at",
    "parse_rational", "restrict_family", "row_determinant", "run_pipeline",
    "schubert_incidence", "sequence_count", "solve_h_tuple", "tensor_module",
    "tensor_shapovalov", "term_count", "try_rationalize_orbit",
    "universal_operator", "verify_wronskian_identities",
    "weight_and_singular_subspace", "weight_function", "wronskian",
]
