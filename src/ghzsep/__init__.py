"""Exact separability analysis of N-qubit GHZ states in white noise.

The package computes, constructs, and independently verifies separability
thresholds for noisy GHZ states: exact closed forms where a partition
class admits one, phase-averaged separable constructions for arbitrary
partitions, an exact-rational linear program for mixed-partition bounds,
and brute-force oracles that re-derive everything from dense matrices.
"""

from .exactmath import (
    binomial,
    elem_sym,
    verify_appendix_inequality,
    verify_lemma1_inequality,
    verify_w_identities,
    w_coeff,
)
from .lpsolve import LpProblem, LpSolution, build_problem, solve, table1, verify_solution
from .partitions import (
    PartitionType,
    Profile,
    appendix_recursion_check,
    enumerate_partitions,
    format_partition,
    parse_partition,
    profile,
)
from .symstate import (
    PadResult,
    SymState,
    mix,
    noisy_ghz,
    pad_to_isotropic,
    partition_average_state,
    to_dense,
)
from .thresholds import (
    SeparabilityVerdict,
    bisep_threshold,
    classify,
    figure1_data,
    full_sep_threshold,
    nj_threshold,
)
from .witness import (
    MMatrixParams,
    WitnessSpec,
    canonical_witness,
    gamma_diagonal,
    ghz_witness_value,
    necessary_threshold,
    sep_max,
    witness_sum,
)

__version__ = "1.0.0"
