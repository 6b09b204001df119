"""The verification suites that ``verify`` runs: each checks one
ingredient of the paper's proofs and yields ``CheckRecord``s.

``SUITES`` maps a suite's name to its generator and its limit keys, each
with its default, smallest and largest value.  A generator takes the
seed and the suite's limits, as ``read_limits`` returns them.  Each
generator imports what it runs in its body, so a suite loads only the
library modules it uses.  A bad limit is a ValueError, which the command
line reports as a usage error.
"""

#: The (n, L) block cases whose product-state maxima ``witness_max`` probes.
WITNESS_MAX_CASES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4))


def read_limits(name, text):
    """Suite ``name``'s limits: the ``key=value`` overrides in ``text`` on
    top of its defaults, validated.

    A malformed or repeated entry, a key the suite does not declare, or a
    value outside its range is a ValueError raised before the suite runs.
    """
    overrides = {}
    for piece in text.split(",") if text else ():
        key, _, value = piece.partition("=")
        key = key.strip()
        if not key or not value:
            raise ValueError(f"bad --limits entry {piece!r}; expected key=value")
        if key in overrides:
            raise ValueError(f"duplicate --limits key {key!r}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ValueError(f"bad --limits value in {piece!r}") from None
    declared = SUITES[name][1]
    unknown = sorted(set(overrides) - set(declared))
    if unknown:
        raise ValueError(
            f"unknown --limits key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(declared))}"
        )
    values = {}
    for key, (default, lo, hi) in declared.items():
        value = overrides.get(key, default)
        if not lo <= value <= hi:
            raise ValueError(f"suite {name} needs {lo} <= {key} <= {hi}, got {key}={value}")
        values[key] = value
    return values


def wident(seed, limits):
    """The parity-sum and first-moment identities of the sector
    coefficients, for every block size 2 <= L <= ``limits["L"]``."""
    from .exactmath import verify_w_identities

    for L in range(2, limits["L"] + 1):
        yield from verify_w_identities(L)


def appendix(seed, limits):
    """Each violation of the padding binomial bound up to ``n`` and ``l``,
    then one record that counts the cases checked."""
    from .exactmath import CheckRecord, verify_appendix_inequality

    n_max, l_max = limits["n"], limits["l"]
    report = verify_appendix_inequality(n_max, l_max)
    yield from report.violations
    yield CheckRecord("padding-binomial-bound", {"n_max": n_max, "l_max": l_max},
                      report.passed,
                      f"checked={report.checked}, violations={len(report.violations)}")


def lemma1(seed, limits):
    """Lemma 1's block bound on ``samples`` seeded random exact rationals
    and on the zero input, one record per 4 <= n <= ``limits["n"]``."""
    import random
    from fractions import Fraction

    from .exactmath import CheckRecord, random_unit_rationals, verify_lemma1_inequality

    samples = limits["samples"]
    rng = random.Random(seed)
    for n in range(4, limits["n"] + 1):
        ok = True
        ties = 0
        for _ in range(samples):
            z = random_unit_rationals(rng, n - 2)
            res = verify_lemma1_inequality(z, n)
            ok = ok and res.passed
            ties += res.tight
        zero = verify_lemma1_inequality((Fraction(0),) * (n - 2), n)
        yield CheckRecord("block-eigenvalue-bound", {"n": n, "samples": samples},
                          ok and zero.passed and zero.tight,
                          f"tight_cases={ties}, zero_input_tight={zero.tight}")


def phase_oracle(seed, limits):
    """The explicit phase average of every partition with
    2 <= k <= n <= ``limits["n"]`` against the closed form."""
    from . import oracle
    from .exactmath import CheckRecord
    from .partitions import enumerate_partitions, format_partition
    from .symstate import partition_average_state

    for n in range(2, limits["n"] + 1):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                same = oracle.phase_average_oracle(part) == partition_average_state(part)
                yield CheckRecord("phase-average-equality",
                                  {"n": n, "partition": format_partition(part)}, same, "")


def witness_max(seed, limits):
    """Each of ``WITNESS_MAX_CASES`` against the exact bound n/(n-L): one
    product state attains it exactly, and the float maximum over
    ``limits["samples"]`` seeded random product states stays below it;
    the sampler needs numpy.  The ``restarts`` limit is read by no
    check."""
    from . import oracle
    from .exactmath import CheckRecord
    from .witness import sep_max

    for n, L in WITNESS_MAX_CASES:
        bound = sep_max(n, L)
        reached = oracle.attained_product_value(n, L)
        sampled = oracle.max_sampled_product_value(n, L, samples=limits["samples"], seed=seed)
        ok = reached == bound and sampled <= bound + 1e-9
        yield CheckRecord("witness-product-max", {"n": n, "L": L}, ok,
                          f"bound={float(bound)}, reached={float(reached):.12f}, "
                          f"sampled_max={sampled:.12f}")


def charfn(seed, limits):
    """Every Pauli expectation of the dense noisy GHZ state at p = 0, 1/2
    and 1, for 2 <= n <= ``limits["n"]``."""
    from fractions import Fraction

    from . import oracle

    for n in range(2, limits["n"] + 1):
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            yield from oracle.characteristic_check(n, p)


#: Each suite's generator and limit keys: key -> (default, smallest, largest).
#: Every key is capped so that no suite runs for long inside its limits.  On a
#: shared 2-core Xeon each suite takes under 10 s at its caps: the appendix
#: sweep's Pascal table grows with (n + l)^2 entries, the wident sweep's time
#: steeply with L, lemma 1's like samples * n^3 and witness-max's linearly in
#: samples.  witness-max's ``restarts`` is validated and read by no check; it
#: stays because bench/run.py's smoke scale passes ``restarts=4``.
SUITES = {
    "wident": (wident, {"L": (20, 2, 100)}),
    "appendix": (appendix, {"n": (100, 4, 500), "l": (100, 2, 500)}),
    "lemma1": (lemma1, {"n": (8, 4, 12), "samples": (10000, 1, 20000)}),
    "phase-oracle": (phase_oracle, {"n": (8, 2, 10)}),
    "witness-max": (witness_max, {"restarts": (64, 1, 1024), "samples": (10000, 1, 100000)}),
    "charfn": (charfn, {"n": (6, 2, 8)}),
}
