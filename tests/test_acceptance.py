"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import math
from fractions import Fraction

import pytest

from coset_ewens.cli import main as cli_main
from coset_ewens.partitions import Partition, enumerate_partitions, partition_count
from coset_ewens.cosets import (
    canonical_rep,
    double_coset_size,
    enumerate_double_cosets,
    intersection_subgroup,
    predicted_intersection_order,
)
from coset_ewens.ewens import (
    coset_probability,
    esf_density,
    f_of,
    good_probability_exact,
    good_probability_mc,
)
from coset_ewens.series import (
    W_at_one,
    W_direct,
    W_series_coeffs,
    asymptotic_diagnostic,
    jensen_check,
    left_tail_bound,
    log_W_one_closed,
    right_tail_bound,
)

HALF = Fraction(1, 2)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_acceptance_01_intersection_orders():
    """Brute-force |H ^ xHx^-1| equals prod (2i)^{r_i} r_i! for every
    class at m in {2,3,4,5}, reproducing the verification tables."""
    ok = True
    observed = {}
    for m in (2, 3, 4, 5):
        for lam in enumerate_partitions(m):
            sub = intersection_subgroup(canonical_rep(lam, m), m)
            predicted = predicted_intersection_order(lam)
            observed[(m, str(lam))] = len(sub)
            ok = ok and len(sub) == predicted
    # the published m=4 table: orders 32/32/12/8 plus the full group 384
    ok = ok and observed[(4, "1^2 2^1")] == 32
    ok = ok and observed[(4, "2^2")] == 32
    ok = ok and observed[(4, "1^1 3^1")] == 12
    ok = ok and observed[(4, "4^1")] == 8
    ok = ok and observed[(4, "1^4")] == 384
    # the m=5 verification table, keyed by its representative list:
    # orders 192/48/64/16/24/10 plus the full group 3840
    ok = ok and observed[(5, "1^3 2^1")] == 192
    ok = ok and observed[(5, "1^2 3^1")] == 48
    ok = ok and observed[(5, "1^1 2^2")] == 64
    ok = ok and observed[(5, "1^1 4^1")] == 16
    ok = ok and observed[(5, "2^1 3^1")] == 24
    ok = ok and observed[(5, "5^1")] == 10
    ok = ok and observed[(5, "1^5")] == 3840
    report(1, "intersection orders match the product formula (m=2..5)", ok)


def test_acceptance_02_double_coset_counts():
    """Orbit sweep yields p(m) orbits with sizes (2^m m!)^2 / f(lam)."""
    ok = True
    for m in (2, 3, 4):
        orbits = enumerate_double_cosets(m)
        ok = ok and len(orbits) == partition_count(m)
        expected = sorted(double_coset_size(lam, m) for lam in enumerate_partitions(m))
        ok = ok and sorted(o.size for o in orbits) == expected
    ok = ok and len(enumerate_double_cosets(2)) == 2
    ok = ok and len(enumerate_double_cosets(3)) == 3
    ok = ok and sorted(o.size for o in enumerate_double_cosets(4)) == \
        [384, 4608, 4608, 12288, 18432]
    report(2, "orbit counts are p(m) with exact sizes (m=2..4)", ok)


def test_acceptance_03_ewens_identity():
    """coset_probability == esf_density at bias 1/2 for all classes, m <= 40,
    zero tolerance."""
    ok = True
    for m in range(1, 41):
        total = Fraction(0)
        for lam in enumerate_partitions(m):
            p = coset_probability(lam, m)
            total += p
            if p != esf_density(lam, HALF):
                ok = False
        ok = ok and total == 1
    report(3, "class measure equals the bias-1/2 distribution (m<=40, exact)", ok)


def test_acceptance_04_mass_identities():
    """Sum of coset sizes is (2m)! and sum of 1/f is the central-binomial
    ratio, exactly, m <= 30."""
    ok = True
    for m in range(1, 31):
        lams = enumerate_partitions(m)
        ok = ok and sum(double_coset_size(lam, m) for lam in lams) == math.factorial(2 * m)
        inv_sum = sum(Fraction(1, f_of(lam)) for lam in lams)
        ok = ok and inv_sum == Fraction(math.factorial(2 * m),
                                        2 ** (2 * m) * math.factorial(m) ** 2)
    report(4, "mass identities hold exactly (m<=30)", ok)


def test_acceptance_05_series_oracle():
    """Generating-function coefficients match direct partition sums for
    m <= 40, beta in {0, 1/2, 1, 3/2, 2, 3}; beta=0 reproduces p(m)."""
    ok = True
    for beta in (0, 1, 2, 3):
        ts = W_series_coeffs(beta, 40)
        for m in range(41):
            if ts.coefficient(m) != W_direct(beta, m):
                ok = False
    for beta in (0.5, 1.5):
        ts = W_series_coeffs(beta, 40)
        for m in range(41):
            d = W_direct(beta, m)
            if abs(ts.coefficient(m) - d) > 1e-9 * d:
                ok = False
    ts0 = W_series_coeffs(0, 40)
    ok = ok and all(ts0.coefficient(m) == partition_count(m) for m in range(41))
    report(5, "series coefficients match direct sums (m<=40, six betas)", ok)


def test_acceptance_06_stirling():
    """W(1,m) * sqrt(pi m) within 0.1% of 1 at m = 10^4 (log-space path)."""
    val = math.exp(log_W_one_closed(10**4)) * math.sqrt(math.pi * 10**4)
    ok = abs(val - 1.0) < 1e-3
    report(6, f"Stirling check at m=10^4 (value {val:.8f})", ok)


def test_acceptance_07_beta_above_one_convergence():
    """For beta in {2,3}: scaled deviation below 5% at m=2000 and strictly
    below its m=200 value; product at 1 certified to better than 1e-10."""
    ok = True
    for beta in (2.0, 3.0):
        w1 = W_at_one(beta)
        ok = ok and w1.error_bound < 1e-10
        rows = asymptotic_diagnostic(beta, [200, 2000])
        dev200, dev2000 = rows[0].relative_deviation, rows[1].relative_deviation
        ok = ok and dev2000 < 0.05 and dev2000 < dev200
    report(7, "scaled coefficients converge to the product value (beta=2,3)", ok)


def test_acceptance_08_moment_bound_validity():
    """Left and right moment bounds dominate the exact probabilities on the
    grid m in {10,20,40,60}, c in {0.5,1,2,3}."""
    ok = True
    for m in (10, 20, 40, 60):
        for c in (0.5, 1.0, 2.0, 3.0):
            exact_left = float(good_probability_exact(m, c))
            lb = left_tail_bound(m, c)
            ok = ok and lb.bound >= exact_left - 1e-12
            ok = ok and all(b >= exact_left - 1e-12 for _, b in lb.grid)
            exact_right = float(1 - good_probability_exact(m, c))
            for beta in (0.3, 0.5, 0.7, 0.9):
                rb = right_tail_bound(m, c, beta)
                ok = ok and rb.bound >= exact_right - 1e-12
    report(8, "moment bounds dominate exact tail probabilities on the grid", ok)


def test_acceptance_09a_exact_trend_c2():
    """Exact P(f <= m^2) strictly decreasing along m in {20, 40, 60}."""
    vals = [good_probability_exact(m, 2) for m in (20, 40, 60)]
    ok = vals[0] > vals[1] > vals[2]
    report("9a", "exact small-threshold trend at c=2 strictly decreasing", ok)


def test_acceptance_09b_exact_trend_c1():
    """Exact P(f <= m^1) strictly decreasing along m in {20, 40, 60}.

    Unattainable as stated: the minimum of f over partitions of m is 2m
    (attained by the single-part class), so f <= m^1 is empty and all
    three probabilities are exactly 0; a constant-zero sequence cannot
    be strictly decreasing.  Kept faithful rather than weakened.
    """
    vals = [good_probability_exact(m, 1) for m in (20, 40, 60)]
    ok = vals[0] > vals[1] > vals[2]
    report("9b", "exact small-threshold trend at c=1 strictly decreasing "
                 f"(values {[float(v) for v in vals]})", ok)


def test_acceptance_09c_mc_trend():
    """Monte Carlo frequencies at c=3 strictly decreasing along
    m in {10^3, 10^4, 10^5}, gaps exceeding twice the Wilson radii."""
    reports = [good_probability_mc(m, 3.0, 10**5, 2024) for m in (10**3, 10**4, 10**5)]
    freqs = [r.frequency for r in reports]
    radii = [r.wilson_radius_95 for r in reports]
    ok = freqs[0] > freqs[1] > freqs[2]
    for i in (0, 1):
        gap = freqs[i] - freqs[i + 1]
        ok = ok and gap > 2 * max(radii[i], radii[i + 1])
    report("9c", f"Monte Carlo trend at c=3 (freqs {[f'{f:.4f}' for f in freqs]})", ok)


def test_acceptance_10_jensen_sweep():
    """200 random (alpha, beta, gamma, m <= 30) instances of the
    log-convexity inequality, 1e-12 relative slack."""
    import random
    rng = random.Random(777)
    ok = True
    for _ in range(200):
        alpha = rng.uniform(0.0, 4.0)
        beta = rng.uniform(0.0, 4.0)
        gamma = rng.uniform(0.02, 0.98)
        m = rng.randrange(1, 31)
        res = jensen_check(alpha, beta, gamma, m)
        ok = ok and res.ok
    report(10, "log-convexity inequality holds across the random sweep", ok)


def test_acceptance_11_determinism(capsys, tmp_path):
    """The sample command yields byte-identical reports across two runs
    (elapsed time lives outside the payload)."""
    def payload_bytes(run):
        path = tmp_path / f"out_{run}.json"
        code = cli_main(["sample", "1000", "3", "10000", "--seed", "7",
                         "--out", str(path)])
        assert code == 0
        env = json.loads(path.read_text())
        return json.dumps(env["payload"], sort_keys=True).encode()

    ok = payload_bytes(1) == payload_bytes(2)
    capsys.disabled()
    report(11, "sample reports byte-identical across runs", ok)
