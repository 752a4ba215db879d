"""Grid estimates of the excluded resonance-zone measure over the parameter box.

Samples a rectangular grid in the parameter box, evaluates every
small-divisor condition of the solver's catalogue
(``homological.condition_catalogue``) per sample through an affine
frequency map, and compares the excluded fractions per family against
linear strip-width estimates and the per-step bound shape
gamma/(1 + K_{m-1}) + gamma^{1/(4 b^2)}/m^2.  Estimation is grid-based
(no covering arguments); the grid resolution error 1/samples-per-axis is
part of the report.

Counting evaluates the definition on the only cells that can hold a
violation.  For one k-row every condition is a function of the single
value x = <k, omega(xi)>, and a condition's value falls below a bound only
where |fl(x + c)| does for one of its shifts c:

* KL: the computed value is |fl(x + c)| for the shift c = <l, Omega>, with
  the threshold as the bound.
* R1/R3/R4: the computed value is the rounded product of the factors
  |1j x + mu| over the roots mu, each at least |fl(x + Im mu)|.  Rounded
  products are monotone in their factors, so a value below the threshold
  has a factor below the threshold's ``_factor_floor``: that is the bound
  of each root's shift Im mu.

The values are ``row_values``: the rounded products of the gradient
k A and the sample added in coordinate order, then <k, alpha>.  Each step
is a correctly rounded, monotone operation, so a row's value is monotone
in every coordinate of xi, and its exact largest and smallest values over
the grid are its values at the two box corners the signs of its gradient
pick (``np.linspace`` ends exactly on the box).  fl(x + c) is
nondecreasing in x, so a row holds an x with |fl(x + c)| below a bound
only if its largest value passes the lower test and its smallest value
the upper one (``_may_meet``).  A (k-row, condition) cell is *met* when
one of its shifts passes; every other cell counts zero.  Values are formed
only for the rows with a met cell, and each condition is evaluated at
every sample of its met rows (on the ``nls.cfg`` grid, 26 cells on 14 of
220 rows).

Only the thresholds depend on gamma, so a gamma ladder (``estimate_ladder``)
reads one condition catalogue, a ``homological.Catalogue`` of arrays: its
``scales`` under each rung give the (rung, condition, k-row) thresholds,
its roots, their ``owner`` conditions and ``shifts`` give the pre-test's
bounds, and ``value`` evaluates one condition.  Each cell is pre-tested
once, under its condition's largest rung threshold (``_may_meet`` is
monotone in the bound), and each met cell is evaluated once: its values
are compared with every rung's threshold.  The values, the strip geometry
of each k-row and the Lipschitz quotients are shared by the rungs as well.

The counts are those of the definition, the fractions are count / samples
and the analytic bounds are added one (k-row, condition) pair at a time in
lattice order (a sequential accumulate), so every reported figure is
bit-identical to evaluating every condition at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homological import (_KL, FAMILIES, BudgetExhausted, NormalForm, _factor_floor, _kpow,
                          condition_catalogue, k_lattice, lattice_size)

# cells of one ``estimate_ladder`` array, k-rows x samples (the values; every
# k-row counts, though only the rows with a met cell are formed, so this
# bounds them from above) or k-rows x rungs x conditions (thresholds,
# counts): 160 MB of float64
_GRID_CELL_CAP = 20_000_000


@dataclass
class ParameterGrid:
    """Regular sample grid on a box in R^n."""

    lo: np.ndarray
    hi: np.ndarray
    samples_per_axis: int

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if not self.lo.size or self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("invalid parameter box")
        if self.samples_per_axis < 2:
            raise ValueError("need at least 2 samples per axis")

    @property
    def ndim(self):
        return len(self.lo)

    def samples(self):
        axes = [np.linspace(self.lo[i], self.hi[i], self.samples_per_axis)
                for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def sample(self, index):
        """``samples()[index]``, without forming the other samples."""
        spa = self.samples_per_axis
        idx = np.unravel_index(index, (spa,) * self.ndim)
        return np.array([np.linspace(self.lo[i], self.hi[i], spa)[idx[i]]
                         for i in range(self.ndim)])

    @property
    def size(self):
        return self.samples_per_axis ** self.ndim

    @property
    def resolution_error(self):
        return 1.0 / self.samples_per_axis


@dataclass
class AffineFrequencyMap:
    """omega(xi) = alpha + A xi with fixed normal frequencies."""

    alpha: np.ndarray
    A: np.ndarray
    Omega: dict

    def omega(self, xi):
        return self.alpha + self.A @ np.asarray(xi)

    def omegas(self, xi):
        """omega at every sample of the stack xi[..., n], as one batched
        mat-vec that rounds like ``omega`` per sample (``xi @ A.T`` does not)."""
        return self.alpha + np.matmul(self.A, np.asarray(xi)[..., None])[..., 0]


@dataclass
class ConditionRow:
    family: str
    k: tuple
    l: tuple | None
    threshold: float
    excluded_fraction: float
    analytic_bound: float


@dataclass
class MeasureReport:
    fractions: dict
    bounds: dict
    ratios: dict
    per_step_bound: float
    cumulative_ok: bool
    grid_error: float
    n_samples: int
    lipschitz_min: float = 0.0
    lipschitz_max: float = 0.0
    rows: list = field(default_factory=list)

    def as_dict(self):
        return {
            "fractions": dict(sorted(self.fractions.items())),
            "bounds": dict(sorted(self.bounds.items())),
            "ratios": dict(sorted(self.ratios.items())),
            "per_step_bound": self.per_step_bound,
            "cumulative_ok": self.cumulative_ok,
            "grid_error": self.grid_error,
            "n_samples": self.n_samples,
            "lipschitz_min": self.lipschitz_min,
            "lipschitz_max": self.lipschitz_max,
        }


def lipschitz_quotients(fmap, grid):
    """Finite-difference Lipschitz quotients of xi -> omega(xi) on the grid.

    Returns (min, max) of |omega(a) - omega(b)|_2 / |a - b|_2 over nearest
    grid neighbors.  A strictly positive minimum is the per-sample evidence
    for the bi-Lipschitz (lipeomorphism) requirement on the frequency map;
    the maximum monitors the forward constant.
    """
    spa = grid.samples_per_axis
    nd = grid.ndim
    xi = grid.samples().reshape((spa,) * nd + (nd,))
    om = fmap.omegas(xi)
    lo = np.inf
    hi = 0.0
    for axis in range(nd):
        d_om = np.diff(om, axis=axis)
        d_xi = np.diff(xi, axis=axis)
        q = (np.linalg.norm(d_om, axis=-1)
             / np.maximum(np.linalg.norm(d_xi, axis=-1), 1e-300))
        lo = min(lo, float(q.min()))
        hi = max(hi, float(q.max()))
    return lo, hi


def row_values(base, proj, xi):
    """The values base + <proj, xi> of k-rows at parameter samples: the
    rounded products proj[..., c] xi[..., c] added in coordinate order, then
    base, elementwise over the broadcast of ``base`` and the leading axes of
    ``proj`` and ``xi`` (the last axis is the coordinate); ``proj[:, None]``
    against a sample stack ``xi`` gives the k-row x sample matrix.

    Each step is one correctly rounded ufunc operation, so a value does not
    depend on how many rows or samples are formed with it (a matmul's kernel
    may vary its summation and FMA use), and it is monotone in every
    coordinate: fl(p x) is monotone in x, and fl(s + t) is nondecreasing in
    both arguments.
    """
    v = proj[..., 0] * xi[..., 0]
    for c in range(1, proj.shape[-1]):
        v += proj[..., c] * xi[..., c]
    return v + base


def _may_meet(vmin, vmax, shifts, bound):
    """Whether |fl(x + shift)| < bound[row, shift] can hold for an x of a
    row whose values lie in [vmin[row], vmax[row]], for every (row, shift)
    pair.

    |fl(x + c)| < b is fl(x + c) >= nextafter(-b, inf) and not >= b, and
    fl(x + c) is nondecreasing in x, so a row holds an x with the first
    only if its largest value does, and an x with the second only if its
    smallest value does.  False means no x of the row passes; True means
    one may.
    """
    return ((vmax[:, None] + shifts >= np.nextafter(-bound, np.inf))
            & ~(vmin[:, None] + shifts >= bound))


def _strip_geometry(proj, widths):
    """For each k-row's gradient g (a row of ``proj``): |g|_2, and the box
    extent along g, <|g|, widths> / |g|_2 (0.0 where g = 0).  ``vecdot``
    gives the bits of ``np.linalg.norm`` and of a 1-D dot per row
    (``test_strip_geometry_is_the_per_row_norm_and_dot``); a row sum, an
    ``einsum`` or a matvec may not."""
    g = np.sqrt(np.vecdot(proj, proj))
    extent = np.divide(np.vecdot(np.abs(proj), widths), g, out=np.zeros_like(g), where=g > 0)
    return g, extent


def estimate_excluded(fmap, params, dims, grid, families=FAMILIES, k_lo=0.0, kmax=None):
    """Excluded-fraction estimate for every condition family at step m: the
    one-rung ladder ``estimate_ladder(fmap, [params], ...)[0]``."""
    return estimate_ladder(fmap, [params], dims, grid, families, k_lo, kmax)[0]


def estimate_ladder(fmap, rungs, dims, grid, families=FAMILIES, k_lo=0.0, kmax=None):
    """Excluded-fraction estimates for every condition family, one
    MeasureReport per KamParams of ``rungs`` (a gamma ladder), in order.

    ``fmap`` is the affine frequency map.  The conditions come from the
    solver's catalogue (``homological.condition_catalogue``) with the
    zero-mode blocks set to zero, as at the first step.  Family KL is
    restricted to the annulus k_lo < |k| <= kmax (the per-step
    bookkeeping); the determinant families use 0 < |k| <= kmax.  The k = 0
    row does not depend on xi, so unlike the solver's R3 gate the grid
    never includes it.  ``kmax`` defaults to the rungs' K_m, which must
    then agree: the rungs share one lattice.

    The values <k, omega(xi)> (``row_values``) are formed once per ladder,
    and only for the k-rows with a met cell: a (k-row, condition) pair
    where some rung's violation may lie between the row's extremes, which
    are its values at two box corners (module docstring).  Each condition
    is evaluated once at every sample of its met rows, and its values are
    compared with every rung's thresholds.  The condition catalogue, the
    strip geometry of each k-row and the Lipschitz quotients are formed
    once per ladder as well.  The counts are those of evaluating every
    condition at every sample, the fractions are count / samples, and the
    analytic bounds are summed in the same (k-row, condition) order, so
    each report is bit-identical to that evaluation.  More than 20,000,000
    k-rows x samples, or k-rows x rungs x conditions, raise BudgetExhausted
    before the lattice is formed; a box on which <k, omega> at the corners
    or the Lipschitz quotients are not finite raises ValueError.
    """
    kmaxes = {p.K_m if kmax is None else kmax for p in rungs}
    if len(kmaxes) != 1:
        raise ValueError("the rungs of a ladder share one k lattice: pass kmax")
    kmax = kmaxes.pop()
    N0 = NormalForm.zero(grid.ndim, max(dims.b, 1))
    N0.Omega = dict(fmap.Omega)
    # gamma sets the scales only: one catalogue serves every rung
    cat = condition_catalogue(N0, rungs[0], dims, kmax, families)
    nr, nc = len(rungs), len(cat.l)
    nsamp = grid.size
    # the largest arrays: the values (k-rows x samples, an upper bound: only
    # the rows a band may reach are formed) and the thresholds and counts
    # (rungs x conditions x k-rows each)
    nk = lattice_size(grid.ndim, kmax) - 1
    ncells = nk * max(nsamp, nr * nc)
    if ncells > _GRID_CELL_CAP:
        width = ("%d samples" % nsamp if nsamp >= nr * nc
                 else "%d rungs x %d conditions" % (nr, nc))
        raise BudgetExhausted("the measure grid has %d k-rows x %s = %d cells,"
                              " above the cap of %d" % (nk, width, ncells, _GRID_CELL_CAP))
    kvecs = k_lattice(grid.ndim, kmax)
    kvecs = kvecs[np.abs(kvecs).sum(axis=1) > 0]
    kabs = np.abs(kvecs).sum(axis=1)
    base = kvecs @ fmap.alpha
    proj = kvecs @ fmap.A                    # (nk, n): gradient of <k, omega(xi)>
    # each row's exact extremes over the grid, at the box corners its
    # gradient's signs pick (``row_values`` is monotone in every coordinate)
    with np.errstate(over="ignore", invalid="ignore"):
        vmax = row_values(base, proj, np.where(proj > 0, grid.hi, grid.lo))
        vmin = row_values(base, proj, np.where(proj > 0, grid.lo, grid.hi))
        lip_lo, lip_hi = lipschitz_quotients(fmap, grid)
    if not np.isfinite(np.concatenate([vmin, vmax, [lip_lo, lip_hi]])).all():
        raise ValueError("the frequency map overflows on the box: <k, omega> at its corners"
                         " or its Lipschitz quotients are not finite")

    # thr[q, j]: condition j's thresholds on rung q, one division over a
    # max(|k|, 1)^tau table row per distinct tau
    taus = sorted(set(cat.tau.tolist()))
    table = np.array([_kpow(kabs, tau) for tau in taus]).reshape(len(taus), nk)
    scales = np.array([cat.scales(p) for p in rungs]).reshape(nr, nc)
    thr = scales[:, :, None] / table[np.searchsorted(taus, cat.tau)]
    live = np.where((cat.family == _KL)[:, None], kabs > k_lo, kabs > 0)
    # met[i, j]: whether (k-row i, condition j) may hold a violation on some
    # rung at the row's extremes.  Each shift is tested once, under the factor
    # floor of its condition's largest rung threshold (a KL threshold is its
    # own floor), and -inf (below every value) outside the condition's rows;
    # ``_may_meet`` is monotone in the bound
    count, owner = cat.count, cat.owner
    bound = np.where(live, _factor_floor(thr.max(axis=0), count[:, None]), -np.inf)
    met = np.zeros((nk, nc), dtype=bool)
    np.logical_or.at(met, (slice(None), owner), _may_meet(vmin, vmax, cat.shifts, bound[owner].T))

    # each condition at every sample of its met rows, once for all rungs
    reached = np.flatnonzero(met.any(axis=1))
    vals = row_values(base[reached, None], proj[reached, None], grid.samples())
    counts = np.zeros((nr, nk, nc), dtype=np.int64)
    excluded = [{f: np.zeros(nsamp, dtype=bool) for f in families} for _ in rungs]
    for j in np.flatnonzero(met.any(axis=0)):
        at = met[reached, j]
        rows = reached[at]
        # a determinant that overflows is inf, below no threshold
        with np.errstate(over="ignore"):
            below = cat.value(j, vals[at]) < thr[:, j, rows, None]
        counts[:, rows, j] = below.sum(axis=2)
        for q in range(nr):
            excluded[q][FAMILIES[cat.family[j]]] |= below[q].any(axis=0)

    # strip width 2 thr / |g| against the box extent along the gradient g
    g, extent = _strip_geometry(proj, grid.hi - grid.lo)
    wide = extent > 0
    span = np.where(wide, g * extent, 1.0)[:, None]
    cells = live.T                      # (k-row, condition) pairs counted
    in_family = {f: cells & (cat.family == FAMILIES.index(f)) for f in families}
    ktuples = [tuple(int(v) for v in k) for k in kvecs]
    b = max(dims.b, 1)
    K_prev = max(k_lo, 1.0)
    reports = []
    for q, params in enumerate(rungs):
        # thr^{1/order}, since {|det| < thr} scales like that per root
        eff = np.empty((nc, nk))
        for deg in set(count.tolist()):
            at = count == deg
            eff[at] = thr[q, at] ** (1.0 / deg)
        cb = count * np.where(wide[:, None], np.minimum(1.0, 2.0 * eff.T / span), 1.0)
        # each family's bound is summed one pair at a time in (k-row,
        # condition) order: a sequential accumulate, not a pairwise sum
        bound = {f: float(np.add.accumulate(np.append(0.0, cb[sel]))[-1])
                 for f, sel in in_family.items()}
        # the pairs that exclude a sample: by family, then in (k-row,
        # condition) order
        ii, jj = np.concatenate([np.nonzero(in_family[f] & (counts[q] > 0))
                                 for f in FAMILIES if f in in_family], axis=1)
        rows = [ConditionRow(FAMILIES[cat.family[j]], ktuples[i], cat.l[j], float(thr[q, j, i]),
                             int(counts[q, i, j]) / nsamp, float(cb[i, j]))
                for i, j in zip(ii.tolist(), jj.tolist())]
        fractions = {f: float(e.mean()) for f, e in excluded[q].items()}
        bounds = {f: min(1.0, b) for f, b in bound.items()}
        ratios = {f: (fractions[f] / bounds[f] if bounds[f] > 0 else 0.0)
                  for f in fractions}
        # gamma^mu with mu = 1, since the dispersion d = 2 exceeds 1
        per_step = (params.gamma_m / (1.0 + K_prev)
                    + params.gamma_m ** (1.0 / (4 * b * b)) / params.m ** 2)
        # cumulative check: the empirically surviving fraction must not undershoot
        # 1 - (sum of family bounds) by more than the grid resolution
        excl_sum = sum(fractions.values())
        bound_sum = min(1.0, sum(bounds.values()))
        cumulative_ok = bool(1.0 - excl_sum
                             >= 1.0 - bound_sum - grid.resolution_error * grid.ndim)
        reports.append(MeasureReport(fractions, bounds, ratios, per_step, cumulative_ok,
                                     grid.resolution_error, nsamp, lip_lo, lip_hi, rows))
    return reports


def rows_to_csv(rows):
    """One line per condition; ``l`` is the sparse tail vector as
    ``j:l_j`` pairs (``-`` for none), so conditions that share k, threshold
    and fraction stay distinguishable."""
    lines = ["family,k,l,threshold,excluded_fraction,analytic_bound"]
    for r in rows:
        l = " ".join("%d:%d" % jl for jl in r.l) if r.l else "-"
        lines.append("%s,%s,%s,%.12g,%.12g,%.12g"
                     % (r.family, " ".join(map(str, r.k)), l, r.threshold,
                        r.excluded_fraction, r.analytic_bound))
    return "\n".join(lines) + "\n"
