import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symprime_reference
from ellgal import symprime
from ellgal.curve import WeierstrassModel, quadratic_twist, trace_table, trace_tables
from ellgal.localdata import global_reduce
from ellgal.symprime import (
    PRINTED_CONSTANT,
    WORKING_CONSTANT,
    CoefficientGap,
    NormalizedEigenvalue,
    RamanujanViolation,
    SmoothTestFunction,
    _sym2_numerators,
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

E37 = WeierstrassModel(0, 0, 1, -1, 0)
E389 = WeierstrassModel(0, 1, 1, -2, 0)
E11 = WeierstrassModel(0, -1, 1, -10, -20)


def test_normalized_eigenvalue_exact():
    ev = NormalizedEigenvalue(7, -1)
    assert ev.t_squared == Fraction(1, 7)
    assert abs(ev.to_float() + 1 / math.sqrt(7)) < 1e-15


def test_ramanujan_violation():
    with pytest.raises(RamanujanViolation):
        NormalizedEigenvalue(5, 5)
    NormalizedEigenvalue(5, 4)  # 16 <= 20 fine


def test_sym_coefficients_special_values():
    ev = NormalizedEigenvalue(7, 0)  # t = 0
    sc = sym_coeffs(ev)
    assert (sc.sym2, sc.sym4) == (-1, 1)
    ev2 = NormalizedEigenvalue(4, 4)  # t = 2 (not a prime trace, but algebra only)
    sc2 = sym_coeffs(ev2)
    assert (sc2.sym2, sc2.sym4) == (3, 5)


@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=2, max_value=4000))
@settings(max_examples=300)
def test_symmetric_power_identity(ap, p):
    if ap * ap > 4 * p:
        return
    sc = sym_coeffs(NormalizedEigenvalue(p, ap))
    t2 = Fraction(ap * ap, p)
    assert (t2 - 1) ** 2 == 1 + sc.sym2 + sc.sym4


def test_rankin_coeff():
    ev1 = NormalizedEigenvalue(11, 4)
    ev2 = NormalizedEigenvalue(11, -4)
    r = rankin_coeff(ev1, ev2)
    assert r == (Fraction(16, 11) - 1) ** 2
    # equal |t| pairs collapse to the diagonal value 1 + sym2 + sym4
    sc = sym_coeffs(ev1)
    assert r == 1 + sc.sym2 + sc.sym4
    with pytest.raises(ValueError):
        rankin_coeff(ev1, NormalizedEigenvalue(13, 1))


def test_von_mangoldt_series():
    t1 = trace_table(E37, 100)
    vm = von_mangoldt(t1, t1, 100)
    assert vm.ramified == (37,)
    # p = 2, k = 1: log 2 * t^2 with t = -2/sqrt(2) -> 2 log 2
    assert abs(vm.entries[(2, 1)] - 2 * math.log(2)) < 1e-12
    # prime powers present exactly while p^k <= X
    assert (2, 6) in vm.entries and (2, 7) not in vm.entries
    assert (3, 4) in vm.entries and (3, 5) not in vm.entries


def test_von_mangoldt_supersingular_square():
    # at a_p = 0 the power sums alternate: P_2 = -2, so the p^2 entry is 4 log p
    m = WeierstrassModel(0, 0, 1, 0, 0)
    t = trace_table(m, 200)
    vm = von_mangoldt(t, t, 200)
    p = next(q for q in t.good_primes() if t.good[q] == 0 and q * q <= 200)
    assert abs(vm.entries[(p, 2)] - 4 * math.log(p)) < 1e-12


def test_c_delta_values():
    assert c_delta(Fraction(5, 6)) == 5558
    assert c_delta(1) == 3708
    assert c_delta("5/6") == 5558
    # the working constant gives the sharper (non-integral) value
    assert c_delta(1, constant=WORKING_CONSTANT) == Fraction(2 * (4 + Fraction(1845, 2)), Fraction(1, 2))
    assert WORKING_CONSTANT == Fraction(1845, 2)
    assert PRINTED_CONSTANT == 923


def test_c_delta_pole_and_monotone():
    with pytest.raises(ValueError):
        c_delta(Fraction(1, 2))
    with pytest.raises(ValueError):
        c_delta(Fraction(1, 4))
    values = [c_delta(Fraction(k, 10)) for k in range(6, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in delta


def test_bump_functions():
    psi = bump_psi()
    phi = bump_phi()
    assert psi(1.0) == 0.0 and psi(2.0) == 0.0 and psi(1.5) > 0
    assert phi(0.5) == 0.0 and phi(0.75) > 0
    # normalized to unit mass, with scipy's adaptive quadrature as the oracle
    from scipy.integrate import quad

    for a, b in ((0.5, 1), (1, 2), (0, 3), (2, 5), (0, 10)):
        mass, _ = quad(SmoothTestFunction(a, b), a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(mass - 1) < 1e-12, (a, b)
    # the float the symsum goldens were recorded with
    assert psi.norm == 142.25037577709585
    # the bump underflows to zero at every point of (1, 1.05)
    with pytest.raises(RuntimeError, match="did not converge"):
        SmoothTestFunction(1.0, 1.05)


def test_import_loads_no_scipy():
    code = "import sys, ellgal, ellgal.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_sym2_prime_power_recursion_vs_power_series():
    # coefficients of 1 / ((1 - a^2 x)(1 - x)(1 - b^2 x)) with ab = 1, a + b = t,
    # expanded in exact rationals: the integer recursion gives H_k = p^k h_k
    for ap, p, kmax in ((-3, 11, 8), (0, 7, 6), (2, 2, 12), (-16, 67, 5)):
        H = _sym2_numerators(ap, p, kmax)
        t2 = Fraction(ap * ap, p)
        # e1 = a^2 + 1 + b^2 = t^2 - 1, e2 = a^2 + b^2 + a^2 b^2 = t^2 - 1, e3 = 1
        series = [Fraction(1)]
        e1 = e2 = t2 - 1
        for k in range(1, kmax + 1):
            val = e1 * series[k - 1] - e2 * series[k - 2] if k >= 2 else e1 * series[0]
            if k >= 3:
                val += series[k - 3]
            series.append(val)
        assert H == [p**k * h for k, h in enumerate(series)]
    # degenerate checks: t = 0 gives lambda(p) = -1; t^2 = 4 gives lambda(p) = 3
    assert _sym2_numerators(0, 5, 1)[1] == -1 * 5
    assert _sym2_numerators(4, 4, 1)[1] == 3 * 4


def test_von_mangoldt_matches_complex_satake_parameters():
    # Lambda(p^k) = log p (alpha1^k + beta1^k)(alpha2^k + beta2^k), with alpha the
    # complex root of x^2 - t x + 1 and beta its conjugate
    X = 2003
    t1 = trace_table(E37, X)
    t2 = trace_table(WeierstrassModel(0, 1, 1, -2, 0), X)
    vm = von_mangoldt(t1, t2, X)
    assert vm.ramified == (37, 389)

    def power_sum(ap, p, k):
        t = ap / math.sqrt(p)
        alpha = complex(t, math.sqrt(4 - t * t)) / 2
        return 2 * (alpha**k).real

    expected = {}
    for p in t1.good_primes():
        if p in t2.good:
            k = 1
            while p**k <= X:
                expected[(p, k)] = (
                    math.log(p) * power_sum(t1.good[p], p, k) * power_sum(t2.good[p], p, k)
                )
                k += 1
    assert set(vm.entries) == set(expected)
    for key, value in vm.entries.items():
        # the absolute floor only matters where P_k vanishes and the float route rounds to ~1e-16
        assert math.isclose(value, expected[key], rel_tol=1e-9, abs_tol=1e-9), key


def test_smallest_prime_factors_oracle():
    spf = symprime_reference.smallest_prime_factors(5000)
    assert spf[:2] == [0, 1]
    for n in range(2, 5001):
        assert spf[n] == next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n), n
    for bound in range(5):
        assert symprime_reference.smallest_prime_factors(bound) == [0, 1, 2, 3, 2][: bound + 1]


def test_smooth_sum_S_equals_H_on_twists():
    red = global_reduce(E37)
    tw = quadratic_twist(E37, 5)
    rtw = global_reduce(tw)
    cop = red.conductor * rtw.conductor * 5
    t1 = trace_table(E37, 2001)
    t2 = trace_table(tw, 2001)
    psi = bump_psi()
    s = smooth_sum_S(t1, 1000.0, psi, cop)
    h = smooth_sum_H(t1, t2, 1000.0, psi, cop)
    assert s == h  # identical admissible terms, identical summation order
    assert s > 0


def test_smooth_sum_zero_cases():
    t1 = trace_table(E37, 50)
    psi = bump_psi()
    assert smooth_sum_S(t1, 0.4, psi, 37) == 0.0  # [X, 2X] misses every n >= 1


def test_smooth_sum_coefficient_gap():
    t1 = trace_table(E37, 10)
    psi = bump_psi()
    # n = 50 = 2 5^2 has its traces; n = 51 = 3 17 is the first that lacks one
    with pytest.raises(CoefficientGap, match=r"p=17$"):
        smooth_sum_S(t1, 50.0, psi, 37)


@pytest.mark.parametrize("X", [1, 2, 17.3, 777.25, 1000, 1000.0, 3333.5])
def test_smooth_sums_match_the_per_n_loop(X):
    t11, t37, t389 = trace_tables([E11, E37, E389], int(2 * X) + 1)
    psi = bump_psi()
    for t1, t2, cop in ((t37, t389, 37 * 389), (t389, t11, 6 * 11 * 389), (t37, t37, 37)):
        want = symprime_reference.smooth_sum(t1, t2, X, psi, cop)
        assert smooth_sum_H(t1, t2, X, psi, cop) == want, (X, cop)  # bit for bit
    assert smooth_sum_S(t11, X, psi, 11) == symprime_reference.smooth_sum(t11, t11, X, psi, 11)


@pytest.mark.parametrize(
    "bound, X, cop, prime",
    [
        (700, 300, 37, 389),  # 389a is bad at 389, which cop lets through
        (700, 300, 389, 37),  # 333 = 3^2 37: 3 has its trace, 37 is bad for 37a
        (700, 351, 37 * 389, 701),  # the tables stop below 2X = 702
    ],
)
def test_smooth_sum_gap_names_the_first_missing_prime(bound, X, cop, prime):
    t37, t389 = trace_tables([E37, E389], bound)
    pair = (t37, t389) if cop != 389 else (t389, t37)
    psi = bump_psi()
    for sum_ in (smooth_sum_H, symprime_reference.smooth_sum):
        with pytest.raises(CoefficientGap, match=rf"p={prime}$"):
            sum_(*pair, X, psi, cop)


def test_smooth_sum_refuses_numerators_past_float_precision(monkeypatch):
    # the sieve bounds |N| by n tau_3(n), which must stay below 2^53; with the
    # limit lowered to 6000, n = 1008 = 2^4 3^2 7 (tau_3 = 15 6 3) passes it
    t37 = trace_table(E37, 2001)
    monkeypatch.setattr(symprime, "_EXACT", 6000.0)
    with pytest.raises(OverflowError, match="2\\^53"):
        smooth_sum_S(t37, 1000, bump_psi(), 37)


def test_smooth_sum_memory_is_bounded_by_the_block():
    # at X = 5 10^4 the per-n loop peaked at 6.6 MB (its factor table and its
    # list of terms); the sieve holds one block and the tables' columns
    t37, t389 = trace_tables([E37, E389], 100001)
    psi = bump_psi()
    tracemalloc.start()
    try:
        smooth_sum_H(t37, t389, 50000, psi, 37 * 389)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_linnik_scan_pair_and_character():
    t37 = trace_table(E37, 500)
    t389 = trace_table(WeierstrassModel(0, 1, 1, -2, 0), 500)
    assert linnik_scan(t37, t389) == 3
    tw = trace_table(quadratic_twist(E37, 5), 500)
    assert linnik_scan(t37, tw) is None  # twists agree in absolute value
    # character form: chi = (12/.) finds a small violation on a generic curve
    p = linnik_scan(t37, chi=12)
    assert p is not None and p <= 50
    assert linnik_scan(t37, chi=1) is None  # trivial character
    with pytest.raises(ValueError):
        linnik_scan(t37)


def test_smooth_test_function_tails():
    f = SmoothTestFunction(1.0, 2.0)
    assert f(0.99) == 0.0 and f(2.01) == 0.0
    assert f(1.1) > 0.0
