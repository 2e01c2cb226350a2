"""Exact computation of Cartan-type invariant factors for Hecke algebras of
symmetric groups: partitions, q-series, exact linear algebra, and the
verification suites tying them together."""

from .partitions import (
    class_regular_partitions,
    factorial_valuation,
    multipartitions,
    regular_partitions,
    valuation,
)
from .series import (
    Series,
    check_identity,
    core_count,
    count_multipartitions,
    multiplicity_m,
    named_series,
)
from .linalg import (
    Matrix,
    SnfResult,
    direct_sum,
    smith_normal_form,
    symmetric_power,
)
from .symfunc import TransitionMatrix, transition_p_to_m, transition_tensor
from .invariants import (
    GradedInvariant,
    InvariantMultiset,
    SizeGuardError,
    VerificationReport,
    block_invariants,
    full_invariants,
    graded_invariant,
    graded_invariant_prime_power,
    graded_invariants,
    graded_to_snf,
    gram_matrix,
    gram_matrix_oracle,
    kor_invariants,
    kor_number,
    length_power_diagonal,
    lie_cartan_matrix,
    tensor_gram_matrix,
    verify_determinants,
    verify_kor_multiset,
    verify_reduction,
    verify_snf_conjecture,
    verify_splitting,
)

__version__ = "0.1.0"
