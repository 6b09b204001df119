"""Acceptance suite: one test per criterion, one console line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Each criterion is implemented at its stated tolerance.  Four cells of the
sixteen-row threshold table quoted in the literature are internally
inconsistent (their quoted optimal mixtures violate their own quoted
objective values, or the quoted p_s contradicts the quoted tau through
the defining formula p_s = tau/(tau + 2^(n-1))); those comparisons are
kept in the suite as strict expected failures, and a companion test
proves the inconsistency with exact certificates.  See the AC-1 tests.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from ghzsep.exactmath import (
    random_unit_rationals,
    verify_appendix_inequality,
    verify_lemma1_inequality,
    verify_w_identities,
)
from ghzsep.lpsolve import (
    REFERENCE_TAU,
    build_problem,
    solve,
    verify_solution,
)
from ghzsep.oracle import (
    attained_product_value,
    characteristic_check,
    max_sampled_product_value,
    phase_average_oracle,
)
from ghzsep.partitions import PartitionType, enumerate_partitions, parse_partition
from ghzsep.symstate import noisy_ghz, pad_to_isotropic, partition_average_state, to_dense
from ghzsep.thresholds import threshold
from ghzsep.witness import sep_max


def report(line):
    print(f"\n[acceptance] {line}")


# --- AC-1: sixteen-row threshold table reproduction -----------------------

# The sixteen (tau, p_s) pairs as quoted in the literature.  Two tau
# cells, (11,5) and
# (12,4), are refuted by exact dual certificates (see the proof test
# below); two p_s cells, (9,3) and (11,4), contradict their own tau
# through p_s = tau/(tau + 2^(n-1)).
QUOTED_TABLE = {
    (6, 3): (Fraction(9), Fraction(9, 41)),
    (7, 3): (Fraction(35, 2), Fraction(35, 163)),
    (8, 3): (Fraction(34), Fraction(17, 81)),
    (8, 4): (Fraction(11), Fraction(11, 139)),
    (9, 3): (Fraction(61), Fraction(61, 327)),
    (9, 4): (Fraction(18), Fraction(9, 137)),
    (10, 3): (Fraction(115), Fraction(115, 627)),
    (10, 4): (Fraction(65, 2), Fraction(65, 1089)),
    (10, 5): (Fraction(13), Fraction(13, 525)),
    (11, 3): (Fraction(869, 4), Fraction(869, 4965)),
    (11, 4): (Fraction(308, 5), Fraction(77, 1375)),
    (11, 5): (Fraction(22), Fraction(11, 523)),
    (12, 3): (Fraction(1169, 3), Fraction(1169, 7313)),
    (12, 4): (Fraction(100), Fraction(25, 537)),
    (12, 5): (Fraction(30), Fraction(15, 1039)),
    (12, 6): (Fraction(15), Fraction(15, 2063)),
}

_DEFECT_REASONS = {
    (9, 3): "quoted p_s 61/327 contradicts quoted tau 61: 61/(61+256) = 61/317",
    (11, 4): "quoted p_s 77/1375 contradicts quoted tau 308/5: equals 77/1357",
    (11, 5): "quoted tau 22 is not attainable; certified optimum is 77/4",
    (12, 4): "quoted tau 100 is not attainable; certified optimum is 97",
}


def _quoted_row_params():
    for key in sorted(QUOTED_TABLE):
        if key in _DEFECT_REASONS:
            yield pytest.param(
                key,
                marks=pytest.mark.xfail(reason=_DEFECT_REASONS[key], strict=True),
                id=f"n{key[0]}k{key[1]}",
            )
        else:
            yield pytest.param(key, id=f"n{key[0]}k{key[1]}")


@pytest.mark.parametrize("cell", list(_quoted_row_params()))
def test_ac1_quoted_rows(cell):
    sol = solve(build_problem(*cell))
    assert (sol.tau, sol.p_s) == QUOTED_TABLE[cell]


def test_ac1_defective_quoted_cells_are_impossible():
    # (11,5): the quoted support {2^4|3, 1^2|3^3} with equal weights has
    # T_1 ratio (1/2)*2/11 = 1/11, so its own tau is 11, not 22; and the
    # exact dual certificate at 77/4 bounds every same-k mixture.
    prob = build_problem(11, 5)
    sol = solve(prob)
    assert sol.tau == Fraction(77, 4) and verify_solution(prob, sol)
    quoted = [parse_partition("2^4|3"), parse_partition("1^2|3^3")]
    cols = {
        p: [Fraction(f, math.comb(11, i + 1)) for i, f in enumerate(c)]
        for p, c in zip(prob.partitions, prob.columns)
    }
    mix_rows = [
        Fraction(1, 2) * cols[quoted[0]][i] + Fraction(1, 2) * cols[quoted[1]][i]
        for i in range(10)
    ]
    assert 1 / max(mix_rows) == 11  # not the quoted 22
    assert all(
        sum(sol.dual[i] * c[i] for i in range(10)) >= Fraction(4, 77)
        for c in cols.values()
    )  # dual certificate: no mixture beats tau = 77/4

    # (12,4): the quoted mixture 0.55*3^4 + 0.33*2^2|4^2 + 0.12*1|3|4^2
    # violates its own claimed value on the weight-3 row.
    prob = build_problem(12, 4)
    sol = solve(prob)
    assert sol.tau == 97 and verify_solution(prob, sol)
    cols = {
        p: [Fraction(f, math.comb(12, i + 1)) for i, f in enumerate(c)]
        for p, c in zip(prob.partitions, prob.columns)
    }
    ws = {
        parse_partition("3^4"): Fraction(55, 100),
        parse_partition("2^2|4^2"): Fraction(33, 100),
        parse_partition("1|3|4^2"): Fraction(12, 100),
    }
    mix_rows = [sum(w * cols[p][i] for p, w in ws.items()) for i in range(11)]
    assert max(mix_rows) > Fraction(1, 100)  # the quoted mixture misses 100
    assert 1 / max(mix_rows) == Fraction(2750, 29)


def test_ac1_certified_table_within_time_budget():
    start = time.time()
    mismatches = []
    for (n, k), tau in REFERENCE_TAU.items():
        prob = build_problem(n, k)
        sol = solve(prob)
        if sol.tau != tau or sol.p_s != tau / (tau + 2 ** (n - 1)):
            mismatches.append((n, k))
        assert verify_solution(prob, sol), (n, k)
    elapsed = time.time() - start
    assert not mismatches
    assert elapsed < 30
    good = [cell for cell in QUOTED_TABLE if cell not in _DEFECT_REASONS]
    report(
        f"AC-1 PASS: {len(good)}/16 quoted rows reproduced exactly; "
        f"4 defective quoted cells corrected with exact certificates "
        f"(see README); all 16 certified rows solved in {elapsed:.1f}s"
    )


# --- AC-2: closed-form pair-ladder thresholds -----------------------------

def test_ac2_pair_ladder_closed_form():
    assert threshold(3, 2)[0] == Fraction(3, 7)
    cases = 0
    for n in range(3, 15):
        for j in range(1, (n - 1) // 2 + 1):
            part = PartitionType((2,) * j + (1,) * (n - 2 * j))
            res = pad_to_isotropic(partition_average_state(part))
            expected = Fraction(1, 1 + Fraction(n - 2 * j, n) * 2 ** (n - 1))
            assert res.p_s == expected == threshold(n, n - j)[0], (n, j)
            cases += 1
    report(f"AC-2 PASS: pair-ladder threshold exact for {cases} (n, j) cases, n <= 14")


# --- AC-3: LP vs closed forms ----------------------------------------------

def test_ac3_lp_consistency():
    checked = 0
    for n in range(3, 13):
        for j in range(1, (n - 1) // 2 + 1):
            sol = solve(build_problem(n, n - j))
            assert sol.p_s == threshold(n, n - j)[0], (n, j)
            checked += 1
    for n in range(2, 13):
        assert solve(build_problem(n, n)).p_s == Fraction(1, 1 + 2 ** (n - 1))
    gaps = []
    for n in range(2, 13):
        ps, bisep = solve(build_problem(n, 2)).p_s, threshold(n, 2)[0]
        assert ps <= bisep
        if ps < bisep:
            gaps.append(n)
    report(
        f"AC-3 PASS: LP equals the exact criterion on {checked} cells, "
        f"full separability exact for n <= 12, biseparability equality "
        f"held everywhere (strict gaps: {gaps or 'none'})"
    )


# --- AC-4: phase-average oracle equality -----------------------------------

def test_ac4_phase_oracle_equality():
    start = time.time()
    cases = 0
    for n in range(2, 9):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                assert phase_average_oracle(part) == partition_average_state(part), part
                cases += 1
    elapsed = time.time() - start
    assert elapsed < 300
    report(f"AC-4 PASS: oracle equality exact for all {cases} partitions of n <= 8 in {elapsed:.1f}s")


# --- AC-5: witness soundness and tightness ----------------------------------

AC5_CASES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4))


def test_ac5_witness_soundness_and_tightness():
    start = time.time()
    for n, L in AC5_CASES:
        bound = sep_max(n, L)
        assert attained_product_value(n, L) == bound, (n, L)
        sampled = max_sampled_product_value(n, L, samples=10**4, seed=42)
        assert sampled <= bound + 1e-9, (n, L, sampled)
    report(
        f"AC-5 PASS: a product state attains n/(n-L) exactly and no sampled one "
        f"exceeds it (7 cases, 1e4 samples each, {time.time()-start:.1f}s)"
    )


# --- AC-6: block eigenvalue bound sweep --------------------------------------

def test_ac6_block_bound_sweep():
    start = time.time()
    rng = random.Random(42)
    equalities = 0
    for n in range(4, 9):
        for _ in range(10**4):
            z = random_unit_rationals(rng, n - 2)
            res = verify_lemma1_inequality(z, n)
            assert res.passed, (n, z)
            equalities += res.tight
        zero = verify_lemma1_inequality((Fraction(0),) * (n - 2), n)
        assert zero.passed and zero.tight
    report(
        f"AC-6 PASS: 5x10^4 exact random checks, zero-input equality detected "
        f"({equalities} tight cases seen, {time.time()-start:.1f}s)"
    )


# --- AC-7: identity suites ----------------------------------------------------

def test_ac7_identity_suites():
    start = time.time()
    for L in range(2, 21):
        records = verify_w_identities(L)
        assert all(r.passed for r in records), L
    sweep = verify_appendix_inequality(100, 100)
    assert sweep.passed and not sweep.violations
    report(
        f"AC-7 PASS: sector identities exact for L <= 20; padding binomial bound "
        f"exact on {sweep.checked} cases up to n = l = 100 ({time.time()-start:.1f}s)"
    )


# --- AC-8: padded-state reconstruction ----------------------------------------

def test_ac8_padding_reconstruction():
    start = time.time()
    cases = 0
    for n in range(2, 9):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                res = pad_to_isotropic(partition_average_state(part))
                assert res.padded == noisy_ghz(n, res.p_s), part
                assert res.padded.is_psd(), part
                assert to_dense(res.padded) == to_dense(noisy_ghz(n, res.p_s)), part
                cases += 1
    report(
        f"AC-8 PASS: padded state equals the noisy GHZ state entry for entry "
        f"and is PSD for all {cases} partitions of n <= 8 ({time.time()-start:.1f}s)"
    )


# --- AC-9: characteristic function ---------------------------------------------

def test_ac9_characteristic_function():
    start = time.time()
    for n in range(2, 7):
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            pattern, count = characteristic_check(n, p)
            assert pattern.passed and count.passed, (n, p)
            if p != 0:
                assert count.detail == f"nonzero={2**n}, expected={2**n}", (n, p)
    report(
        f"AC-9 PASS: characteristic function matches the stabilizer pattern with "
        f"exactly 2^n nonzero correlations for n <= 6 ({time.time()-start:.1f}s)"
    )
