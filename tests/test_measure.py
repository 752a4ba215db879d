import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamzero import measure
from kamzero.driver import BaseParams, schedule
from kamzero.homological import (FAMILIES, BudgetExhausted, Condition, NormalForm, _ranges,
                                 condition_catalogue, k_lattice, k_powers)
from kamzero.measure import (AffineFrequencyMap, ConditionRow, ParameterGrid,
                             estimate_excluded, estimate_ladder, rows_to_csv)
from kamzero.series import SeriesDims
from test_homological import sorted_rows


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
    assert head == "family,k,l,threshold,excluded_fraction,analytic_bound"
    assert len(text.splitlines()) == len(rep.rows) + 1
    assert text.splitlines()[1].startswith("KL,-1,-,")


def test_csv_lines_tell_conditions_apart(nls_freq_map):
    # at gamma = 0.005, k = (-4, 5) is excluded for l = -e4 and l = e3 - e5,
    # with the same shift -16 and weight 16: only the l column differs
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100)
    rep = estimate_excluded(fmap, _params_for(0.005), dims, grid, kmax=10.0)
    lines = rows_to_csv(rep.rows).splitlines()[1:]
    assert len(set(lines)) == len(lines) == len(rep.rows)
    assert {line.split(",")[2] for line in lines if line.startswith("KL,-4 5,")} \
        >= {"4:-1", "3:1 5:-1"}


@pytest.fixture(scope="session")
def nls_freq_map(nls_build):
    model, bk, kf = nls_build
    return kf.fmap, kf.dims


# ---------------------------------------------------------------------------
# counting on the met cells against the sample-by-sample evaluation
# ---------------------------------------------------------------------------

def reference_excluded(fmap, params, dims, grid, families=FAMILIES, k_lo=0.0, kmax=None):
    """Every condition evaluated at every grid sample: (fractions, bounds, ratios, rows)."""
    xi = grid.samples()
    nsamp = xi.shape[0]
    kmax = params.K_m if kmax is None else kmax
    kvecs = k_lattice(grid.ndim, kmax)
    kvecs = kvecs[np.abs(kvecs).sum(axis=1) > 0]
    kabs = np.abs(kvecs).sum(axis=1)
    base = kvecs @ fmap.alpha
    proj = kvecs @ fmap.A
    # the rounded products added in coordinate order, then base
    vals = proj[:, 0, None] * xi[:, 0]
    for c in range(1, grid.ndim):
        vals = vals + proj[:, c, None] * xi[:, c]
    vals = vals + base[:, None]

    N0 = NormalForm.zero(grid.ndim, max(dims.b, 1))
    N0.Omega = dict(fmap.Omega)
    conds = condition_catalogue(N0, params, dims, kmax, families)
    kpow = k_powers(conds, kabs)
    thrs = [c.scale / kpow[c.tau] for c in conds]
    live = [kabs > (k_lo if c.family == "KL" else 0) for c in conds]
    effs = [t ** (1.0 / len(c.roots)) for c, t in zip(conds, thrs)]
    excluded = {f: np.zeros(nsamp, dtype=bool) for f in families}
    bound = dict.fromkeys(families, 0.0)
    rows = []
    widths = grid.hi - grid.lo
    for i in range(len(kvecs)):
        g = float(np.linalg.norm(proj[i], 2))
        extent = float(np.abs(proj[i]) @ widths) / g if g else 0.0
        for c, thr, sel, eff in zip(conds, thrs, live, effs):
            if not sel[i]:
                continue
            with np.errstate(over="ignore"):
                viol = c.value(vals[i]) < thr[i]
            excluded[c.family] |= viol
            cb = len(c.roots) * (min(1.0, 2.0 * eff[i] / (g * extent)) if extent > 0 else 1.0)
            bound[c.family] += cb
            frac = float(viol.mean())
            if frac > 0:
                rows.append(ConditionRow(c.family, tuple(int(v) for v in kvecs[i]),
                                         c.l, float(thr[i]), frac, cb))
    rows.sort(key=lambda r: FAMILIES.index(r.family))
    fractions = {f: float(e.mean()) for f, e in excluded.items()}
    bounds = {f: min(1.0, b) for f, b in bound.items()}
    ratios = {f: (fractions[f] / bounds[f] if bounds[f] > 0 else 0.0) for f in fractions}
    return fractions, bounds, ratios, rows


def assert_same_as_reference(fmap, params, dims, grid, **kw):
    return assert_report_is_reference(estimate_excluded(fmap, params, dims, grid, **kw),
                                      fmap, params, dims, grid, **kw)


def assert_report_is_reference(rep, fmap, params, dims, grid, **kw):
    fractions, bounds, ratios, rows = reference_excluded(fmap, params, dims, grid, **kw)
    assert rep.fractions == fractions
    assert rep.bounds == bounds
    assert rep.ratios == ratios
    assert rep.rows == rows
    assert [type(r.excluded_fraction) for r in rep.rows] == [float] * len(rows)
    return rep


def _dyadic(lo, hi, denom):
    return st.integers(lo, hi).map(lambda v: v / denom)


@st.composite
def measure_problems(draw):
    """Small grids whose values, shifts and thresholds are mostly dyadic, so
    fl(x + c) often lands exactly on +-thr; A may be singular (k-rows with
    zero gradient) or have zero entries (tied values on the tensor grid)."""
    nd = draw(st.sampled_from((1, 2)))
    spa = draw(st.integers(2, 300) if nd == 1 else st.integers(2, 30))
    if draw(st.booleans()):
        spa = 2 ** draw(st.integers(1, 8 if nd == 1 else 4)) + 1
    lo = np.array([draw(_dyadic(-8, 0, 4)) for _ in range(nd)])
    hi = lo + np.array([draw(_dyadic(1, 8, 4)) for _ in range(nd)])
    alpha = np.array([draw(_dyadic(-8, 8, 8)) for _ in range(nd)])
    A = np.array([[draw(_dyadic(-4, 4, 4)) for _ in range(nd)] for _ in range(nd)])
    jmax = draw(st.integers(1, 3))
    Omega = {j: draw(_dyadic(-32, 32, 8)) for j in range(1, jmax + 1)}
    gamma = draw(_dyadic(0, 32, 64))
    kmax = float(draw(st.integers(1, 4)))
    k_lo = float(draw(st.integers(0, int(kmax) - 1)))
    fams = draw(st.sets(st.sampled_from(FAMILIES), min_size=1))
    base = BaseParams(n=nd, b=1, tau=nd + 1.5, s1=0.6, r1=0.02, gamma1=gamma)
    return (AffineFrequencyMap(alpha, A, Omega), schedule(1, base, eps_m=1e-6),
            SeriesDims(nd, (), (0,), jmax), ParameterGrid(lo, hi, spa),
            dict(families=tuple(f for f in FAMILIES if f in fams), k_lo=k_lo, kmax=kmax))


@settings(max_examples=80, deadline=None)
@given(measure_problems())
def test_counts_equal_the_sample_by_sample_evaluation(problem):
    fmap, params, dims, grid, kw = problem
    assert_same_as_reference(fmap, params, dims, grid, **kw)


@settings(max_examples=60, deadline=None)
@given(measure_problems(), st.lists(_dyadic(0, 32, 64), min_size=1, max_size=4))
def test_ladder_equals_its_rungs_one_at_a_time(problem, gammas):
    # one pre-test and one evaluation of each met cell for the whole ladder
    # give every rung the report of its own call, and of the
    # sample-by-sample evaluation
    fmap, params, dims, grid, kw = problem
    rungs = [schedule(1, replace(params.base, gamma1=g), eps_m=1e-6) for g in gammas]
    reps = estimate_ladder(fmap, rungs, dims, grid, **kw)
    assert len(reps) == len(rungs)
    for rung, rep in zip(rungs, reps):
        one = estimate_excluded(fmap, rung, dims, grid, **kw)
        assert rep.as_dict() == one.as_dict()
        assert rows_to_csv(rep.rows) == rows_to_csv(one.rows)
        assert_report_is_reference(rep, fmap, rung, dims, grid, **kw)


def test_ladder_rungs_share_one_lattice():
    grid, fmap, dims, params = one_dim_setup(gamma=0.05, samples=11)
    other = schedule(1, params.base, eps_m=1e-9)
    assert other.K_m != params.K_m
    with pytest.raises(ValueError, match="one k lattice"):
        estimate_ladder(fmap, [params, other], dims, grid, families=("KL",))
    reps = estimate_ladder(fmap, [params, other], dims, grid, families=("KL",), kmax=2.0)
    assert [r.as_dict() for r in reps] == [
        estimate_excluded(fmap, p, dims, grid, families=("KL",), kmax=2.0).as_dict()
        for p in (params, other)]


def test_exact_threshold_hits_are_counted_like_the_evaluation():
    # x on the dyadic grid -1, -7/8, ..., 1; k = 1 has thr = gamma = 1/4, and
    # the shifts 0 and Omega_1 = 1/2 put fl(x + c) exactly on -thr and +thr
    grid = ParameterGrid(np.array([-1.0]), np.array([1.0]), 17)
    fmap = AffineFrequencyMap(np.array([0.0]), np.array([[1.0]]), {1: 0.5})
    dims = SeriesDims(1, (), (0,), 1)
    params = schedule(1, BaseParams(n=1, b=1, tau=2.5, s1=0.6, r1=0.02, gamma1=0.25),
                      eps_m=1e-6)
    xs = grid.samples()[:, 0]
    assert params.gamma_m == 0.25
    assert np.any(np.abs(xs + 0.5) == 0.25) and np.any(np.abs(xs) == 0.25)
    rep = assert_same_as_reference(fmap, params, dims, grid, families=("KL",), kmax=1.0)
    # the shifts 0, +-1/2 (thr 1/4) and +-1 (thr 1/2) exclude every sample
    # but x = +-1/4, which sit exactly on |x| = thr and |x -+ 1/2| = thr
    assert rep.fractions["KL"] == 15 / 17


def test_nls_grid_counts_equal_the_sample_by_sample_evaluation(nls_freq_map):
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 40)
    for gamma in (0.005, 0.05):
        assert_same_as_reference(fmap, _params_for(gamma), dims, grid, k_lo=2.0, kmax=10.0)


@pytest.mark.parametrize("lo,hi,gamma,k_lo", [
    (1e-3, 1.0, 0.5, 0.0),          # a wide box and band: most k-rows are met
    (1e-4, 1e-2, 0.005, 5.0),       # the annulus 5 < |k| <= 10
    (1e-3, 1e155, 0.005, 0.0),      # determinants overflow to inf
])
def test_nls_ladders_equal_the_sample_by_sample_evaluation(nls_freq_map, lo, hi, gamma, k_lo):
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([lo, lo]), np.array([hi, hi]), 20)
    rungs = [_params_for(g) for g in (gamma, gamma / 2, gamma / 4)]
    for rung, rep in zip(rungs, estimate_ladder(fmap, rungs, dims, grid, k_lo=k_lo, kmax=10.0)):
        assert_report_is_reference(rep, fmap, rung, dims, grid, k_lo=k_lo, kmax=10.0)


def _evaluations():
    """Patches that record every ``row_values`` and ``Condition.value`` call."""
    return (mock.patch.object(measure, "row_values", wraps=measure.row_values),
            mock.patch.object(Condition, "value", autospec=True, side_effect=Condition.value))


def test_nls_ladder_searches_only_the_rows_a_band_may_reach(nls_freq_map):
    # the nls.cfg ladder (three rungs, 100 x 100 samples, kmax 10): at the
    # row extremes only 26 (k-row, condition) cells on 14 of the 220 k-rows
    # may meet a band; values are formed for those rows only, and each
    # condition is evaluated once on its met rows for all rungs.  The
    # reports are still the evaluation's
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100)
    rungs = [_params_for(g) for g in (0.005, 0.0025, 0.00125)]
    formed, evaluated = _evaluations()
    with formed as formed, evaluated as evaluated:
        reps = estimate_ladder(fmap, rungs, dims, grid, kmax=10.0)
    # the two box corners of every k-row, then the values of the met rows
    assert [call.args[0].shape for call in formed.call_args_list] == [(220,), (220,), (14, 1)]
    assert sum(call.args[1].shape[0] for call in evaluated.call_args_list) == 26
    assert all(call.args[1].shape[1:] == (grid.size,) for call in evaluated.call_args_list)
    for rung, rep in zip(rungs, reps):
        assert_report_is_reference(rep, fmap, rung, dims, grid, kmax=10.0)


def _row_terms(fmap, grid, kmax):
    """The nonzero k-rows |k| <= kmax, with their base <k, alpha> and gradient k A."""
    kvecs = k_lattice(grid.ndim, kmax)
    kvecs = kvecs[np.abs(kvecs).sum(axis=1) > 0]
    return kvecs, kvecs @ fmap.alpha, kvecs @ fmap.A


def assert_row_values_are_k_dot_omega(fmap, grid, kmax):
    # the coordinate-ordered sum against <k, omega(xi)> from the batched
    # mat-vec, to a few ulps of the largest summand
    kvecs, base, proj = _row_terms(fmap, grid, kmax)
    xi = grid.samples()
    vals = measure.row_values(base[:, None], proj[:, None], xi)
    kw = kvecs @ fmap.omegas(xi).T
    size = (np.abs(kvecs) @ np.abs(fmap.omegas(xi)).T + np.abs(base)[:, None]
            + np.abs(proj) @ np.abs(xi).T)
    assert np.all(np.abs(vals - kw) <= 4 * np.finfo(float).eps * size)


def test_row_values_are_k_dot_omega_on_the_nls_grid(nls_freq_map):
    fmap, _ = nls_freq_map
    assert_row_values_are_k_dot_omega(
        fmap, ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100), 10.0)


@settings(max_examples=60, deadline=None)
@given(measure_problems(), st.floats(0.3, 3.0))
def test_row_values_are_k_dot_omega(problem, scale):
    # ``scale`` takes alpha and A off the dyadic grid, so the sums round
    fmap, _, _, grid, kw = problem
    fmap = AffineFrequencyMap(scale * fmap.alpha, scale * fmap.A, fmap.Omega)
    assert_row_values_are_k_dot_omega(fmap, grid, kw["kmax"])


@settings(max_examples=80, deadline=None)
@given(measure_problems(), st.floats(0.3, 3.0))
def test_row_values_at_the_corners_are_each_rows_extremes(problem, scale):
    # row_values is monotone in every coordinate and np.linspace ends on the
    # box, so the corners the gradient's signs pick hold each row's exact
    # largest and smallest value over the grid
    fmap, _, _, grid, kw = problem
    fmap = AffineFrequencyMap(scale * fmap.alpha, scale * fmap.A, fmap.Omega)
    _, base, proj = _row_terms(fmap, grid, kw["kmax"])
    vals = measure.row_values(base[:, None], proj[:, None], grid.samples())
    up = np.where(proj > 0, grid.hi, grid.lo)
    down = np.where(proj > 0, grid.lo, grid.hi)
    assert np.array_equal(measure.row_values(base, proj, up), vals.max(axis=1))
    assert np.array_equal(measure.row_values(base, proj, down), vals.min(axis=1))


def _quarter_band(lo, hi, gammas=(0.25,)):
    """omega = xi on [lo, hi] with 9 samples, the k-rows k = +-1 and the one
    KL shift c = 0, with thr = gamma at |k| = 1."""
    grid = ParameterGrid(np.array([lo]), np.array([hi]), 9)
    fmap = AffineFrequencyMap(np.array([0.0]), np.array([[1.0]]), {})
    rungs = [schedule(1, BaseParams(n=1, b=0, tau=2.5, s1=0.6, r1=0.02, gamma1=g), eps_m=1e-6)
             for g in gammas]
    assert [p.gamma_m for p in rungs] == list(gammas)
    return grid, fmap, SeriesDims(1, (), (), 0), rungs


@pytest.mark.parametrize("edge", [np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0)])
@pytest.mark.parametrize("side", ["vmax", "vmin"])
def test_a_row_extreme_on_a_band_edge_is_counted_like_the_evaluation(side, edge):
    # the grid ends at xi = -edge or starts at xi = edge, so the row k = 1
    # has fl(vmax + c) on or next to nextafter(-thr, inf) = -edge, or
    # fl(vmin + c) on or next to thr = 1/4 (and the row k = -1 the other
    # way round); a sample with |x| just below thr is excluded, and the
    # pre-test at the row's extremes must keep its row
    lo, hi = (-1.0, -edge) if side == "vmax" else (edge, 1.0)
    grid, fmap, dims, (params,) = _quarter_band(lo, hi)
    assert grid.samples()[[0, -1], 0].tolist() == [lo, hi]
    rep = assert_same_as_reference(fmap, params, dims, grid, families=("KL",), kmax=1.0)
    assert rep.fractions["KL"] == (1 / 9 if edge < 0.25 else 0.0)


def test_a_grid_no_band_reaches_sorts_nothing():
    # on [1/4, 1] the row k = 1 starts on the upper edge |x| = thr of every
    # rung's band and the row k = -1 ends on the lower one: no cell is met,
    # so no k-row's values are formed and no condition is evaluated
    grid, fmap, dims, rungs = _quarter_band(0.25, 1.0, gammas=(0.25, 0.125))
    formed, evaluated = _evaluations()
    with formed as formed, evaluated as evaluated:
        reps = estimate_ladder(fmap, rungs, dims, grid, families=("KL",), kmax=1.0)
    assert [call.args[0].shape for call in formed.call_args_list] == [(2,), (2,), (0, 1)]
    assert not evaluated.called
    assert [(rep.fractions, rep.rows) for rep in reps] == [({"KL": 0.0}, [])] * 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sorted_rows())
def test_a_nonempty_range_meets_at_the_row_extremes(rows):
    # the pre-test at a row's smallest and largest value never rules out a
    # (row, shift) pair that holds a position with |fl(x + shift)| < bound
    xs, shifts, bound = rows
    xs = xs[:, np.isfinite(xs).all(axis=0)]
    if xs.shape[1]:
        lo, hi = _ranges(xs, shifts, bound)
        assert np.all(measure._may_meet(xs[:, 0], xs[:, -1], shifts, bound)[hi > lo])


def _strip_geometry_per_row(proj, widths):
    g = np.array([float(np.linalg.norm(v, 2)) for v in proj])
    extent = np.array([float(np.abs(v) @ widths) / gi if gi else 0.0 for v, gi in zip(proj, g)])
    return g, extent


@pytest.mark.parametrize("n,kmax,seed", [(2, 10.0, None), (2, 40.0, None),
                                         (2, 30.0, 1), (3, 12.0, 2), (5, 5.0, 3)])
def test_strip_geometry_is_the_per_row_norm_and_dot(nls_freq_map, n, kmax, seed):
    # the nls.cfg map (seed None) and random maps of mixed magnitudes; the
    # gradients k A include zero rows (k = 0, and on the random maps, whose
    # first and last rows are equal, k = e_1 - e_n)
    if seed is None:
        A, widths = nls_freq_map[0].A, np.array([9e-3, 9e-3])
    else:
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-4, 3, size=(n, n))
        A[-1] = A[0]
        widths = rng.uniform(1e-4, 1.0, size=n)
    proj = k_lattice(n, kmax) @ A
    g, extent = measure._strip_geometry(proj, widths)
    g_row, extent_row = _strip_geometry_per_row(proj, widths)
    assert np.array_equal(g, g_row) and np.array_equal(extent, extent_row)


# ---------------------------------------------------------------------------
# grid plumbing, the cell cap and memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nd,spa", [(1, 5), (2, 4), (3, 3)])
def test_grid_sample_is_the_indexed_sample(nd, spa):
    grid = ParameterGrid(np.linspace(1e-3, 2e-3, nd), np.linspace(1e-2, 3e-2, nd), spa)
    samples = grid.samples()
    assert grid.size == len(samples)
    for i in range(grid.size):
        assert np.array_equal(grid.sample(i), samples[i])


def test_batched_omega_equals_omega_per_sample(nls_freq_map):
    fmap, _ = nls_freq_map
    xi = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100).samples()
    assert np.array_equal(fmap.omegas(xi), np.array([fmap.omega(x) for x in xi]))
    assert np.array_equal(fmap.omegas(xi.reshape(100, 100, 2)),
                          fmap.omegas(xi).reshape(100, 100, 2))


def test_grid_over_the_cell_cap_is_budget_exhausted_before_allocating(nls_freq_map):
    # kmax = 10 in dimension 2 has 220 k-rows; 302^2 samples make 20,064,880 cells
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 302)
    with mock.patch.object(ParameterGrid, "samples", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExhausted, match="220 k-rows x 91204 samples"):
            estimate_excluded(fmap, _params_for(0.005), dims, grid, kmax=10.0)


def test_condition_cells_over_the_cap_are_budget_exhausted_before_the_lattice(
        nls_freq_map, monkeypatch):
    # thresholds and counts hold rungs x conditions x k-rows cells each; on a
    # 4 x 4 grid they, not the 220 x 16 values, pass a cap lowered to 220 x 16
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 4)
    rungs = [_params_for(g) for g in (0.005, 0.0025, 0.00125)]
    N0 = NormalForm.zero(2, 1)
    N0.Omega = dict(fmap.Omega)
    nc = len(condition_catalogue(N0, rungs[0], dims, 10.0))
    monkeypatch.setattr(measure, "_GRID_CELL_CAP", 220 * 16)
    with mock.patch.object(measure, "k_lattice", side_effect=AssertionError("formed")):
        with pytest.raises(BudgetExhausted,
                           match="220 k-rows x 3 rungs x %d conditions = %d cells"
                           % (nc, 220 * 3 * nc)):
            estimate_ladder(fmap, rungs, dims, grid, kmax=10.0)
    monkeypatch.setattr(measure, "_GRID_CELL_CAP", 220 * 3 * nc)
    assert len(estimate_ladder(fmap, rungs, dims, grid, kmax=10.0)) == 3


def test_traced_peak_stays_at_forming_the_values(nls_freq_map):
    # values are formed for the 14 k-rows with a met cell only (the row
    # extremes come from the box corners): 14 x 10,000 floats, 1.1 MB.
    # Forming them holds three such arrays (the running sum, a product and
    # the sum with <k, alpha>), and a determinant's complex factors on its
    # met rows come on top (the traced peak is 3.4 MB for one rung and
    # 4.2 MB for three).  The 220 x 10,000 matrix of every k-row (17.6 MB)
    # is far above the bound, and a ladder of three rungs shares the formed
    # values
    fmap, dims = nls_freq_map
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100)
    formed = 4 * 14 * grid.size * 8
    assert 1.25 * formed < 220 * grid.size * 8
    calls = [lambda: estimate_excluded(fmap, _params_for(0.005), dims, grid, kmax=10.0),
             lambda: estimate_ladder(fmap, [_params_for(g) for g in (0.005, 0.0025, 0.00125)],
                                     dims, grid, kmax=10.0)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * formed
