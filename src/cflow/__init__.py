"""Flows ``A^z`` of invertible complex matrices over the negative-power basis.

Given a relation ``A^p = c_{p-1} A^{p-1} + ... + c_0 I``, this package builds
analytic coefficient functions ``mu_i(z)`` with
``A^z = sum_i mu_i(z) A^{-i}`` from a generalized Vandermonde system (the
companion-matrix power ``C^z c`` gives the same table), plus a Jordan-block
oracle for verification.
"""

from .annihilator import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    characteristic_polynomial,
    cluster_roots,
    companion_matrix,
    find_roots,
    group_roots,
    minimal_polynomial,
    validate_relation,
)
from .basis import (
    CoefficientTable,
    basis_values,
    branch_log,
    generalized_binomial,
    invert_vandermonde,
    scalar_flow,
    vandermonde_matrix,
)
from .errors import (
    AmbiguousRank,
    CFlowError,
    ConditioningWarning,
    DimensionMismatch,
    MatrixParseError,
    NonConvergence,
    NonFiniteEntry,
    RelationInvalid,
    SingularMatrix,
    UnknownCluster,
    ZeroEigenvalue,
)
from .flow import (
    CompanionFlow,
    FlowAxiomReport,
    FlowRepresentation,
    build_flow,
    check_flow_axioms,
    check_relation,
    evaluate_companion_flow,
    evaluate_flow,
    jordan_block_flow,
    jordan_oracle,
    schur_covariants,
    spectral_table,
)
from .numeric import as_matrix, extended_inverse, inverse, max_norm, power_int

__version__ = "0.1.0"
