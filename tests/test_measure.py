import numpy as np
import pytest

from kamzero.driver import BaseParams, schedule
from kamzero.measure import (AffineFrequencyMap, ParameterGrid,
                             estimate_excluded, rows_to_csv)
from kamzero.series import SeriesDims


def one_dim_setup(gamma, samples=2001, kmax=1.0):
    grid = ParameterGrid(np.array([-1.0]), np.array([1.0]), samples)
    fmap = AffineFrequencyMap(np.array([0.0]), np.array([[1.0]]), {})
    dims = SeriesDims(1, (), (), 0)
    base = BaseParams(n=1, b=0, tau=2.5, s1=0.6, r1=0.1, gamma1=gamma)
    params = schedule(1, base, eps_m=1e-6)
    return grid, fmap, dims, params


def test_gamma_zero_excludes_nothing():
    grid, fmap, dims, params = one_dim_setup(gamma=0.0)
    rep = estimate_excluded(fmap, params, dims, grid, families=("KL",), kmax=1.0)
    assert rep.fractions["KL"] == 0.0


def test_one_dim_interval_oracle():
    # omega(xi) = xi, single k = (1): the excluded set is the interval
    # |xi| < gamma of length 2 gamma inside a box of length 2
    gamma = 0.05
    grid, fmap, dims, params = one_dim_setup(gamma=gamma)
    rep = estimate_excluded(fmap, params, dims, grid, families=("KL",), kmax=1.0)
    expect = 2.0 * gamma / 2.0
    assert abs(rep.fractions["KL"] - expect) <= 2.0 / grid.samples_per_axis
    assert rep.bounds["KL"] >= rep.fractions["KL"] - 2.0 / grid.samples_per_axis
    assert rep.cumulative_ok


def test_monotone_in_gamma_and_k():
    fracs = []
    for gamma in (0.02, 0.04, 0.08):
        grid, fmap, dims, params = one_dim_setup(gamma=gamma)
        rep = estimate_excluded(fmap, params, dims, grid, families=("KL",), kmax=3.0)
        fracs.append(rep.fractions["KL"])
    assert fracs[0] <= fracs[1] <= fracs[2]
    ks = []
    for kmax in (1.0, 2.0, 4.0):
        grid, fmap, dims, params = one_dim_setup(gamma=0.04)
        rep = estimate_excluded(fmap, params, dims, grid, families=("KL",), kmax=kmax)
        ks.append(rep.fractions["KL"])
    assert ks[0] <= ks[1] <= ks[2]


def test_gamma_halving_ladder_scaling(nls_freq_map):
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100)
    fracs = []
    gamma = 0.004
    for _ in range(4):
        base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=gamma)
        params = schedule(1, base, eps_m=1e-4)
        rep = estimate_excluded(fmap, params, dims, grid, families=("KL",),
                                kmax=10.0)
        fracs.append(rep.fractions["KL"])
        gamma *= 0.5
    assert fracs[0] > 0.01  # the ladder starts with a visible excluded set
    for hi, lo in zip(fracs, fracs[1:]):
        assert 0.3 <= lo / hi <= 0.7


def test_lipschitz_quotients_affine(nls_freq_map):
    from kamzero.measure import lipschitz_quotients

    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 20)
    lo, hi = lipschitz_quotients(fmap, grid)
    cols = np.linalg.norm(fmap.A, axis=0)
    assert 0.0 < lo <= hi
    assert lo == pytest.approx(cols.min(), rel=1e-10)
    assert hi == pytest.approx(cols.max(), rel=1e-10)
    rep = estimate_excluded(fmap, _params_for(0.004), dims, grid,
                            families=("KL",), kmax=4.0)
    assert rep.lipschitz_min == pytest.approx(lo)
    assert rep.lipschitz_max == pytest.approx(hi)


def _params_for(gamma):
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=gamma)
    return schedule(1, base, eps_m=1e-4)


def test_csv_rows():
    grid, fmap, dims, params = one_dim_setup(gamma=0.05, samples=401)
    rep = estimate_excluded(fmap, params, dims, grid, families=("KL",), kmax=1.0)
    text = rows_to_csv(rep.rows)
    head = text.splitlines()[0]
    assert head == "family,k,threshold,excluded_fraction,analytic_bound"
    assert len(text.splitlines()) == len(rep.rows) + 1


@pytest.fixture(scope="session")
def nls_freq_map(nls_build):
    model, bk, kf = nls_build
    fmap = AffineFrequencyMap(kf.alpha, kf.A, dict(kf.N0.Omega))
    return fmap, kf.dims
