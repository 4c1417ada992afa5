"""Frobenius numbers and representability via lattice ideal bases.

The pipeline: an LLL-reduced kernel basis of the weight vector
generates a homogeneous lattice ideal; a reduced Groebner basis under a
degree-revlex order turns membership questions into exponent arithmetic.
The largest non-representable integer falls out of the irreducible
decomposition of the head ideal, and an independent shortest-path oracle
double-checks everything on moderate inputs.
"""

from __future__ import annotations

from .arith import (
    CoprimeViolation,
    Weights,
    as_weights,
    gcd_chain,
    kernel_basis,
    lll_reduce,
    pdegree,
    solve_degree,
)
from .frobenius import (
    RepresentabilityResult,
    Solution,
    frobenius_number,
    is_representable,
)
from .grobner import (
    Binomial,
    GroebnerBasis,
    format_binomial,
    format_monomial,
    lattice_groebner,
    normal_form,
    reduce_binomial,
    validate_basis,
)
from .hilbert import EnumerationTooLarge, hilbert_value, index_of_regularity
from .monideal import (
    MonomialIdeal,
    contains_monomial,
    component_ideal,
    format_component,
    initial_ideal,
    intersect,
    irreducible_decomposition,
    irreducible_decomposition_general,
)
from .oracle import AperyTable, OracleScaleExceeded, apery_frobenius, dp_representable
from .order import OrderConfig, compare

__version__ = "0.1.0"

__all__ = [
    "AperyTable",
    "Binomial",
    "CoprimeViolation",
    "EnumerationTooLarge",
    "GroebnerBasis",
    "MonomialIdeal",
    "OracleScaleExceeded",
    "OrderConfig",
    "RepresentabilityResult",
    "Solution",
    "Weights",
    "apery_frobenius",
    "as_weights",
    "compare",
    "component_ideal",
    "contains_monomial",
    "dp_representable",
    "format_binomial",
    "format_component",
    "format_monomial",
    "frobenius_number",
    "gcd_chain",
    "hilbert_value",
    "index_of_regularity",
    "initial_ideal",
    "intersect",
    "irreducible_decomposition",
    "irreducible_decomposition_general",
    "is_representable",
    "kernel_basis",
    "lattice_groebner",
    "lll_reduce",
    "normal_form",
    "pdegree",
    "reduce_binomial",
    "solve_degree",
    "validate_basis",
]
