"""Exact separability analysis of N-qubit GHZ states in white noise.

The package computes, constructs, and independently verifies separability
thresholds for noisy GHZ states: exact closed forms where a partition
class admits one, phase-averaged separable constructions for arbitrary
partitions, an exact-rational linear program for mixed-partition bounds,
and brute-force oracles that re-derive everything from dense matrices.

Public names resolve on first use (PEP 562): a process loads only the
submodules it touches.

Every number a caller passes is read by one rule, which ``exactmath``
owns: whatever has ``as_integer_ratio()`` (an int, a finite float, a
Decimal or a Fraction) is that exact ratio, and a sequence is read once.
Bad input, a string or NaN for a number included, raises ``ValueError``;
a rejected certificate or an internal fault raises ``ArithmeticError``.
The command line maps the first to a usage error (exit 2) and the
second to one error line (exit 1).
"""

import importlib

#: Public names by the submodule that defines them.
_EXPORTS = {
    "exactmath": ("elem_sym", "verify_appendix_inequality", "verify_lemma1_inequality",
                  "verify_w_identities", "w_coeff"),
    "lpsolve": ("LpProblem", "LpSolution", "build_problem", "solve", "table1",
                "verify_solution"),
    "partitions": ("PartitionType", "appendix_recursion_check", "enumerate_partitions",
                   "format_partition", "parse_partition", "profile"),
    "symstate": ("PadResult", "SymState", "mix", "noisy_ghz", "pad_to_isotropic",
                 "partition_average_state", "to_dense"),
    "thresholds": ("classify", "figure1_data", "threshold"),
    "witness": ("MMatrixParams", "WitnessSpec", "canonical_witness", "gamma_diagonal",
                "ghz_witness_value", "necessary_threshold", "sep_max", "witness_sum"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name):
    """Import a public name's submodule and cache the name.  Any other name
    is an AttributeError, so ``from ghzsep import lpsolve`` imports the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
