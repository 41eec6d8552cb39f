"""Tests for exact moment recursions, limits, and the enumeration oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cascadekit.core import CapacityError, CascadeParams
from cascadekit.moments import (
    brute_force_moments,
    closed_form_second_moment,
    epsilon_moment,
    gaussian_even_moments,
    limit_z_moments,
    normalized_moment_recursion,
    sigma,
    z_moment_recursion,
)

# frozen reference constants (independently machine-checked digits)
SIGMA_H07 = 1.4369782462039343      # sqrt(1 / (2 - 2^0.6)),  b = 2
ELL_H07 = 2.0649064800633348        # limit E(Z^2) = sigma^2 at H = 0.7
SIGMA_CRIT_B2 = 0.7071067811865476  # sqrt(1/2)
SIGMA_CRIT_B3 = 0.8164965809277260  # sqrt(2/3)
SIGMA_HM2_B2 = 1.0080322575483707   # sqrt(63/62), divergent H = -2


def test_sigma_frozen_values():
    assert math.isclose(sigma(CascadeParams(base=2, hurst=0.7)),
                        SIGMA_H07, rel_tol=1e-14)
    assert math.isclose(sigma(CascadeParams(base=2, hurst=0.5)),
                        SIGMA_CRIT_B2, rel_tol=1e-15)
    assert math.isclose(sigma(CascadeParams(base=3, hurst=0.5)),
                        SIGMA_CRIT_B3, rel_tol=1e-15)
    assert math.isclose(sigma(CascadeParams(base=2, hurst=-2.0)),
                        SIGMA_HM2_B2, rel_tol=1e-14)
    assert sigma(CascadeParams(base=2, hurst=1.0)) == 1.0
    assert sigma(CascadeParams.symmetric()) == 1.0


def test_epsilon_moment():
    params = CascadeParams(base=2, hurst=0.7)
    assert epsilon_moment(2, params) == 1.0
    assert epsilon_moment(4, params) == 1.0
    assert math.isclose(epsilon_moment(3, params), 2 ** (-0.3), rel_tol=1e-15)
    assert epsilon_moment(1, CascadeParams.symmetric()) == 0.0
    with pytest.raises(ValueError):
        epsilon_moment(0, params)


@pytest.mark.parametrize("h", [0.7, 1.0, 0.5, 0.3, -1.0, None])
def test_recursion_matches_closed_form_second_moment(h):
    """The multinomial recursion reproduces E(Z_n^2) in closed form."""
    params = CascadeParams(base=2, hurst=h)
    table = z_moment_recursion(params, 12, 2)
    for n in range(13):
        want = closed_form_second_moment(params, n)
        assert math.isclose(table.value(n, 2), want, rel_tol=1e-12)


def test_recursion_base_three():
    params = CascadeParams(base=3, hurst=0.8)
    table = z_moment_recursion(params, 8, 2)
    for n in range(9):
        want = closed_form_second_moment(params, n)
        assert math.isclose(table.value(n, 2), want, rel_tol=1e-12)


def test_martingale_column_is_exact():
    table = z_moment_recursion(CascadeParams(base=2, hurst=0.6), 20, 4)
    assert np.all(table.values[:, 1] == 1.0)


def test_symmetric_raw_moments():
    """Fair signs: odd moments vanish, E(S_n^2) = b^n exactly."""
    params = CascadeParams.symmetric(base=2)
    table = z_moment_recursion(params, 10, 4)
    assert np.all(table.values[1:, 1] == 0.0)
    assert np.all(table.values[1:, 3] == 0.0)
    for n in range(11):
        assert math.isclose(table.value(n, 2), 2.0**n, rel_tol=1e-12)


def test_h_equal_one_moments_trivial():
    """H = 1 gives Z_n = 1 a.s., so every moment is 1."""
    table = z_moment_recursion(CascadeParams(base=2, hurst=1.0), 8, 6)
    assert np.allclose(table.values[:, 1:], 1.0, rtol=1e-12)
    lims = limit_z_moments(CascadeParams(base=2, hurst=1.0), 6)
    assert np.allclose(lims, 1.0, rtol=1e-12)


def test_qmax_guards():
    with pytest.raises(ValueError):
        z_moment_recursion(CascadeParams(base=2, hurst=0.7), 4, 17)
    with pytest.raises(ValueError):
        z_moment_recursion(CascadeParams(base=3, hurst=0.7), 4, 11)
    with pytest.raises(ValueError):
        limit_z_moments(CascadeParams(base=2, hurst=0.7), 0)


def test_divergent_overflow_flagging():
    """Fast-growing divergent moments overflow float64 but keep logs.

    At H = -3 the q = 8 column grows by ~19.6 in log per level, so the
    float64 ceiling (log ~ 709.8) falls around n = 37.
    """
    params = CascadeParams(base=2, hurst=-3.0)
    with pytest.warns(RuntimeWarning):
        table = z_moment_recursion(params, 40, 8)
    assert table.overflowed.any()
    n, q = 40, 8
    assert table.entry_flag(n, q) == "overflow"
    assert math.isinf(table.value(n, q))
    assert np.isfinite(table.log_values[n, q])
    # the log magnitude still matches the growth law q*n*(1/2 - H)*log b
    # to leading order
    rate = table.log_values[n, q] / n
    assert rate > 8 * (0.5 - (-3.0)) * math.log(2) * 0.9


def test_limit_moments_frozen_and_reached():
    """Limits match frozen digits and the recursion converges to them."""
    params = CascadeParams(base=2, hurst=0.7)
    lims = limit_z_moments(params, 6)
    assert lims[0] == 1.0
    assert math.isclose(lims[1], ELL_H07, rel_tol=1e-13)
    table = z_moment_recursion(params, 80, 6)
    # geometric approach at rate b^(n(1-2H)) = 2^(-0.4 n)
    assert np.allclose(table.values[80, 1:], lims, rtol=1e-8)


def test_limit_moments_regime_guard():
    with pytest.raises(ValueError):
        limit_z_moments(CascadeParams(base=2, hurst=0.5), 4)
    with pytest.raises(ValueError):
        limit_z_moments(CascadeParams.symmetric(), 4)


def test_gaussian_even_moments_double_factorial():
    """The even-moment induction lands on (2p-1)!! exactly."""
    want = [1, 3, 15, 105, 945, 10395, 135135, 2027025]
    assert gaussian_even_moments(8) == [Fraction(w) for w in want]
    with pytest.raises(ValueError):
        gaussian_even_moments(0)


def test_normalized_critical_second_moment():
    """Critical M2 equals 1 + b/((b-1) n): above 1, decreasing to 1."""
    params = CascadeParams(base=2, hurst=0.5)
    table = normalized_moment_recursion(params, 200, 4)
    for n in range(1, 201):
        want = 1.0 + 2.0 / n
        assert math.isclose(table.value(n, 2), want, rel_tol=1e-10)
    col = table.values[4:, 2]
    assert np.all(col[:-1] > col[1:])
    assert np.all(col > 1.0)


def test_normalized_critical_row_zero_undefined():
    table = normalized_moment_recursion(CascadeParams(base=2, hurst=0.5), 6, 4)
    assert table.entry_flag(0, 2) == "undefined"
    assert np.isnan(table.values[0, 2])
    with pytest.raises(ValueError):
        table.value(0, 2)
    rows = list(table.rows())
    assert all(n >= 1 for n, _, _, _ in rows)


def test_normalized_divergent_gaussianizes():
    """Divergent even moments converge to the normal double factorials."""
    params = CascadeParams(base=2, hurst=0.3)
    table = normalized_moment_recursion(params, 60, 6)
    assert math.isclose(table.value(0, 2), sigma(params) ** -2, rel_tol=1e-12)
    assert abs(table.value(60, 2) - 1.0) <= 1e-6
    assert abs(table.value(60, 4) - 3.0) <= 1e-4
    assert abs(table.value(60, 6) - 15.0) <= 1e-3


def test_normalized_symmetric_gaussianizes():
    """Symmetric normalized moments: odd zero, even to (2p-1)!!.

    Row 0 is the deterministic start S_0 = 1, so odd entries vanish only
    from n = 1 on.
    """
    params = CascadeParams.symmetric(base=2)
    table = normalized_moment_recursion(params, 40, 6)
    assert np.all(table.values[1:, 1] == 0.0)
    assert np.all(table.values[1:, 3] == 0.0)
    assert np.all(table.values[1:, 5] == 0.0)
    assert abs(table.value(40, 2) - 1.0) <= 1e-12
    assert abs(table.value(40, 4) - 3.0) <= 1e-9
    assert abs(table.value(40, 6) - 15.0) <= 1e-7


def test_normalized_third_moment_eventually_decreasing():
    """|M3| decays beyond a finite onset in every H <= 1/2 regime.

    The critical decay is only ~ n^(-1/2) (m3(80) = 0.474 measured), the
    divergent decay is geometric; both must be monotone past the onset.
    """
    for h, final_cap in ((0.5, 0.48), (0.3, 1e-4), (0.1, 1e-9)):
        params = CascadeParams(base=2, hurst=h)
        table = normalized_moment_recursion(params, 80, 3)
        start = 1 if h == 0.5 else 0
        m3 = np.abs(table.values[start:, 3])
        drops = m3[1:] < m3[:-1]
        onset = int(np.argmax(drops))  # first strictly decreasing step
        assert onset < 10
        assert np.all(drops[onset:])
        assert m3[-1] < final_cap


def test_normalized_regime_guard():
    with pytest.raises(ValueError):
        normalized_moment_recursion(CascadeParams(base=2, hurst=0.7), 8, 4)


def test_tilde_moments_consistency():
    """The moments of the rescaled limit mass Z / sigma_H are the limit
    moments divided by sigma^q: M~(1) = 1 / sigma_H and M~(2) = 1."""
    params = CascadeParams(base=2, hurst=0.7)
    q_max = 8
    tilde = limit_z_moments(params, q_max) / sigma(params) ** np.arange(
        1, q_max + 1)
    assert math.isclose(tilde[0], 1.0 / SIGMA_H07, rel_tol=1e-14)
    assert math.isclose(tilde[1], 1.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        limit_z_moments(CascadeParams(base=2, hurst=0.4), 4)


@pytest.mark.parametrize("h", [
    0.7,   # irrational p_plus
    0.0,   # integer H
    1.0,   # p_minus = 0
    None,  # symmetric
])
def test_brute_force_oracle_agrees_with_recursion(h):
    """Exhaustive enumeration of all sign assignments checks the recursion.

    The oracle never touches the recursion: it enumerates the 2^(#signs)
    trees, aggregates by sufficient statistic, and applies probability
    weights in 40-digit decimal arithmetic.
    """
    params = CascadeParams(base=2, hurst=h)
    oracle = brute_force_moments(params, 3, 6)
    table = z_moment_recursion(params, 3, 6)
    for n in range(4):
        for q in range(1, 7):
            a, b = oracle.value(n, q), table.value(n, q)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (n, q)


def test_brute_force_base_three():
    params = CascadeParams(base=3, hurst=0.0)
    oracle = brute_force_moments(params, 2, 4)
    table = z_moment_recursion(params, 2, 4)
    for n in range(3):
        for q in range(1, 5):
            a, b = oracle.value(n, q), table.value(n, q)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_brute_force_guards():
    params = CascadeParams(base=2, hurst=0.7)
    with pytest.raises(CapacityError):
        brute_force_moments(params, 5, 4)
