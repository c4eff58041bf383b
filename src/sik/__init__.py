"""Certified instability index for fourth-order periodic differential operators.

The package computes kappa(A), the number of right-half-plane eigenvalues
(with multiplicity) of A[h] = -h'''' - (a h)'' + (b h)' - c h on periodic
functions, and certifies via a truncated Lyapunov equation that the finite
answer equals the infinite-dimensional one.

Reference and oracle routines, the error types and the matrix and kernel
classes are imported from their modules (sik.oracle, sik.lyapunov, ...).
"""

from .fourier_core import TrigPoly, tp_derivative
from .operator_assembly import (
    OperatorSpec,
    assemble_A,
    benilov_coefficients,
    constant_M,
)
from .lyapunov import kernel_operator_convert, solve_finite_lyapunov
from .norms_estimates import estimate_triple_U, tail_bound, triple_norm
from .index import (
    addition_rule_check,
    count_half_plane,
    inertia_hermitian,
    instability_index_general,
)
from .certify import (
    Certificate,
    CertifyOptions,
    certified_index,
    cross_validate,
)
from .oracle import dispersion_index

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertifyOptions",
    "OperatorSpec",
    "TrigPoly",
    "addition_rule_check",
    "assemble_A",
    "benilov_coefficients",
    "certified_index",
    "constant_M",
    "count_half_plane",
    "cross_validate",
    "dispersion_index",
    "estimate_triple_U",
    "inertia_hermitian",
    "instability_index_general",
    "kernel_operator_convert",
    "solve_finite_lyapunov",
    "tail_bound",
    "tp_derivative",
    "triple_norm",
]
