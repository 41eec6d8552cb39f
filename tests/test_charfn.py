"""Tests for the characteristic-function ladder and its inversion."""

import math
import warnings

import numpy as np
import pytest

from cascadekit.charfn import (
    _X_BLOCK,
    charfn_at,
    charfn_auto,
    density_of_z,
)
from cascadekit.core import CapacityError, CascadeParams
from cascadekit.reports import charfn_rows
from cascadekit.stats import ks_statistic
from cascadekit.core import sample_terminal

P07 = CascadeParams(base=2, hurst=0.7)
P95 = CascadeParams(base=2, hurst=0.95)
P3_08 = CascadeParams(base=3, hurst=0.8)
P5_06 = CascadeParams(base=5, hurst=0.6)

# 40-digit arbitrary-precision references for phi_n(1) at H = 0.7, b = 2
PHI30_REF = 0.281188603003460412 + 0.517638107717233363j
PHI40_REF = 0.281154336952723787 + 0.517575027587149063j
#: |phi_30(1) - phi_40(1)|: the depth-30 ladder is NOT yet converged at
#: t = 1; successive depths still move by ~7e-5.
PHI_30_40_GAP = 7.178624550943972e-05
#: 80-digit references for phi_48(t) in the tail, from the float64
#: values of H and t: (params, t, phi_48(t)).
TAIL_REFS = (
    (P07, 20.0, 2.029947777305241953e-26 - 2.990608808412032614e-26j),
    (P07, 40.0, -2.266017725108399551e-65 - 3.086744206714867565e-66j),
    (P3_08, 40.0, -1.389422442129214739e-17 - 3.214755076311125987e-18j),
    (P5_06, 12.0, 2.330761118963999548e-40 + 1.295373619296555357e-38j),
)

ELL_H07 = 2.0649064800633348  # limit E(Z^2) at H = 0.7


def test_ladder_matches_arbitrary_precision():
    """The float ladder tracks 40-digit values to ~1e-14."""
    assert abs(charfn_at(P07, 1.0, 30) - PHI30_REF) <= 1e-13
    assert abs(charfn_at(P07, 1.0, 40) - PHI40_REF) <= 1e-13


def test_ladder_tail_is_relatively_accurate():
    """Far below |phi| = 1e-16 the ladder keeps ~12 relative digits."""
    for params, t, ref in TAIL_REFS:
        assert abs(charfn_at(params, t, 48) - ref) <= 1e-11 * abs(ref)


def test_successive_depth_gap_is_frozen():
    """Depths 30 and 40 differ by 7.1786e-5 at t = 1: not converged.

    This pins the honest convergence picture; any ladder change that
    makes these depths 'agree' closely is wrong, not better.
    """
    gap = abs(charfn_at(P07, 1.0, 30) - charfn_at(P07, 1.0, 40))
    assert math.isclose(gap, PHI_30_40_GAP, rel_tol=1e-9)


def test_charfn_basics():
    assert charfn_at(P07, 0.0, 64) == 1.0 + 0.0j
    val = charfn_at(P07, 1.5, 64)
    assert isinstance(val, complex)
    assert abs(val) <= 1.0 + 1e-12
    arr = charfn_at(P07, np.array([0.5, 1.0]), 64)
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        charfn_at(CascadeParams(base=2, hurst=0.5), 1.0)
    with pytest.raises(ValueError):
        charfn_at(P07, 1.0, -1)


def test_charfn_conjugate_symmetry():
    t = np.array([0.3, 1.0, 4.2])
    plus = charfn_at(P07, t, 96)
    minus = charfn_at(P07, -t, 96)
    assert np.max(np.abs(minus - np.conj(plus))) <= 1e-14


def test_auto_depth_selection():
    """Cauchy doubling lands on frozen depths: 192 at H=0.7, 96 at H=0.95."""
    t = np.array([0.5, 1.0, 3.0])
    _, d07 = charfn_auto(P07, t)
    _, d95 = charfn_auto(P95, t)
    assert d07 == 192
    assert d95 == 96
    val, d = charfn_auto(P07, 1.0)
    assert isinstance(val, complex)
    assert d == 192


def test_auto_depth_warning_when_capped(monkeypatch):
    monkeypatch.setattr("cascadekit.charfn.MAX_AUTO_DEPTH", 96)
    monkeypatch.setattr("cascadekit.charfn.CAUCHY_TOL", 1e-14)
    with pytest.warns(RuntimeWarning):
        _, d = charfn_auto(P07, np.array([1.0]))
    assert d == 96


P052 = CascadeParams(base=2, hurst=0.52)


def test_ladder_refuses_a_start_below_the_normal_floats():
    """b^(-nH) is subnormal at b = 2, H = 0.52 from depth 1966 on, where
    a start of few bits made |phi(0.1)| read 0.91829 at depth 2048 against
    0.91720 at 1536: the ladder names the depth instead."""
    with pytest.raises(ValueError, match=r"at depth 2048 .* is 1965$"):
        charfn_at(P052, 0.1, 2048)
    assert abs(charfn_at(P052, 0.1, 1965) - charfn_at(P052, 0.1, 1536)) \
        <= 1e-12


def test_auto_depth_stops_before_the_start_underflows():
    """Doubling at H = 0.52 once went on to depth 4096, where two
    underflowed starts agree exactly and phi is 1 at every t, with no
    warning.  It now stops at depth 1965, the last normal start, with
    phi decaying in t."""
    t = np.linspace(0.0, 16.0, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, depth = charfn_auto(P052, t)
    assert depth == 1965
    assert abs(values[-1]) < 1e-10
    assert np.max(np.abs(values - charfn_at(P052, t, 1536))) <= 1e-10


@pytest.mark.parametrize("h, deepest", [(0.52, 1965), (0.51, 2003),
                                        (0.505, 2023)])
def test_auto_depth_warns_when_stopped_at_the_normal_start(h, deepest,
                                                          monkeypatch):
    """Short of the tolerance, a doubling cut at the last normal start
    warns, as one cut at MAX_AUTO_DEPTH does."""
    monkeypatch.setattr("cascadekit.charfn.CAUCHY_TOL", 0.0)
    with pytest.warns(RuntimeWarning, match=f"stopped at depth {deepest} "):
        _, depth = charfn_auto(CascadeParams(base=2, hurst=h), 1.0)
    assert depth == deepest


def test_fixed_point_residual():
    """A converged ladder satisfies the functional equation
    phi(t) = (p_plus phi(s) + p_minus conj(phi(s)))^b, s = b^(-H) t,
    relative to |phi(t)|, down to |phi| ~ 1e-265 (b = 5 at t = 40)."""
    t = np.array([0.3, 1.0, 2.5, 7.0, 20.0, 40.0])
    for params in (P07, P3_08, P5_06):
        b = params.base
        inner = charfn_at(params, t * float(b) ** (-params.hurst), 400)
        lhs = (params.p_plus * inner
               + params.p_minus * np.conj(inner)) ** b
        rhs = charfn_at(params, t, 400)
        assert np.all(np.abs(lhs - rhs) <= 1e-11 * np.abs(rhs))


def test_grid_invariants():
    """The charfn table is the inverted grid, reflected to [-t_max, t_max]."""
    res = density_of_z(P07)
    rows = charfn_rows(res)
    t, values = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    mid = len(t) // 2
    assert len(t) == 2 * res.t.size - 1
    assert t[mid] == 0.0
    assert values[mid] == 1.0 + 0.0j
    assert np.max(np.abs(values)) <= 1.0 + 1e-12
    # phi(-t) = conj(phi(t)): the grid is symmetric about t = 0
    assert np.array_equal(t[::-1], -t)
    assert np.array_equal(values[::-1], np.conj(values))
    assert np.array_equal(t[mid:], res.t)
    assert np.array_equal(values[mid:], res.phi)
    assert t[-1] == res.t_max
    assert np.allclose(np.diff(t), res.t[1], rtol=1e-12, atol=0)
    assert abs(values[-1]) == res.tail_magnitude


def test_density_invariants_and_moments():
    """Inverted density: unit mass, exact mean and second moment.

    The quadrature reproduces the limit moments to ~1e-9 with the
    default window/step policy; mass normalization is not enforced, so
    measuring it checks the inversion end to end.
    """
    res = density_of_z(P07)
    assert res.tail_magnitude < 1e-12
    assert abs(res.moment(0) - 1.0) <= 1e-9
    assert abs(res.moment(1) - 1.0) <= 1e-9
    assert abs(res.moment(2) - ELL_H07) <= 1e-8
    # ringing may dip microscopically below zero at the window edges
    assert res.density.min() >= -1e-8
    # sd = sqrt(ell - 1) ~ 1.03, so the mode sits near 0.39
    assert res.density.max() > 0.35
    cdf = res.cdf()
    assert abs(cdf[-1] - 1.0) <= 1e-9
    assert np.all(np.diff(cdf) >= -1e-12)


def test_density_matches_monte_carlo():
    """KS distance between the inverted CDF and 1e5 deep draws is small."""
    res = density_of_z(P07)
    cdf = res.cdf()
    z = sample_terminal(CascadeParams(base=2, hurst=0.7, seed=5), 16, 100000)
    d = ks_statistic(z, lambda s: np.interp(s, res.x, cdf))
    # Z_16 vs the n -> infinity law: residual difference ~ 2^(-0.4*16)
    assert d <= 0.02


def test_density_regime_guards():
    with pytest.raises(ValueError):
        density_of_z(CascadeParams(base=2, hurst=1.0))
    with pytest.raises(ValueError):
        density_of_z(CascadeParams(base=2, hurst=0.5))


def test_density_grid_budget_is_its_working_memory(monkeypatch):
    """The t-grid budget is the kernel's working memory, _X_BLOCK * 48
    bytes per grid point: the default run passes a budget of exactly its
    need, and one point less is a CapacityError."""
    n_t = density_of_z(P07).t.size
    monkeypatch.setattr("cascadekit.charfn.MAX_INVERSION_BYTES",
                        n_t * _X_BLOCK * 48)
    assert density_of_z(P07).t.size == n_t
    monkeypatch.setattr("cascadekit.charfn.MAX_INVERSION_BYTES",
                        (n_t - 1) * _X_BLOCK * 48)
    with pytest.raises(CapacityError, match=f"t-grid of {n_t} points"):
        density_of_z(P07)


def test_density_tail_warning(monkeypatch):
    """A t_max capped at 16 leaves the depth-7 ladder's CF mass outside
    the window."""
    monkeypatch.setattr("cascadekit.charfn.T_CAP", 16.0)
    with pytest.warns(RuntimeWarning):
        res = density_of_z(P07, depth=7)
    assert res.t_max == 16.0
    assert res.tail_magnitude >= 1e-12


def test_cf_moments_by_differences():
    """E Z and E Z^2 from central differences of phi at t = -h, 0, h.

    Each has an O(h^2) truncation error; h = 1e-3 keeps it below 1e-5.
    """
    h = 1e-3
    phi, _ = charfn_auto(P07, np.array([-h, 0.0, h]))
    mean = ((phi[2] - phi[0]) / (2j * h)).real
    second = (-(phi[2] - 2.0 * phi[1] + phi[0]) / h**2).real
    assert abs(mean - 1.0) <= 1e-5
    assert abs(second - ELL_H07) <= 1e-5 * ELL_H07
