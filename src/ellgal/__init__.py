"""Arithmetic of elliptic curves over Q: reduction data, Frobenius traces,
mod-ell image diagnostics, symmetric-power coefficients, and family statistics."""

from .arith import (
    Factorization,
    IncompleteFactorization,
    InvariantViolation,
    class_number,
    class_number_one_discriminants,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    primes_up_to,
    valuation,
)
from .curve import (
    BadReduction,
    SingularModel,
    TraceTable,
    WeierstrassModel,
    count_points,
    invariants,
    quadratic_twist,
    quartic_twist_model,
    sextic_twist_model,
    trace_table,
    trace_tables,
)
from .family import (
    CM_BASES,
    build_family,
    cm_census,
    ingest,
    pair_statistics,
    report_emit,
    report_parse_csv,
    validate_cm_bases,
)
from .galois import (
    EpsilonCandidateSet,
    ImageReport,
    InsufficientSamples,
    NoCommonWitness,
    NoWitnessBelow,
    comparison_bound,
    epsilon_candidates,
    image_test,
    joint_surjectivity_test,
    pair_witness,
    prune_epsilon,
    script_l_scan,
)
from .localdata import (
    GlobalReduction,
    LocalReduction,
    NotAdditivePotGood,
    PreconditionFailed,
    global_reduce,
    inertial_type,
    phi_order,
    potential_goodness,
    tate,
)
from .symprime import (
    CoefficientGap,
    NormalizedEigenvalue,
    RamanujanViolation,
    SmoothTestFunction,
    bump_phi,
    bump_psi,
    c_delta,
    linnik_scan,
    rankin_coeff,
    smooth_sum_H,
    smooth_sum_S,
    sym_coeffs,
    von_mangoldt,
)

__version__ = "0.1.0"
