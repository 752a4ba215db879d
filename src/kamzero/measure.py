"""Grid estimates of the excluded resonance-zone measure over the parameter box.

Samples a rectangular grid in the parameter box, evaluates every
small-divisor condition of the solver's catalogue
(``homological.condition_catalogue``) per sample through an affine
frequency map, and compares the excluded fractions per family against
linear strip-width estimates and the per-step bound shape
gamma/(1 + K_{m-1}) + gamma^{1/(4 b^2)}/m^2.  Estimation is grid-based
(no covering arguments); the grid resolution error 1/samples-per-axis is
part of the report.

Counting works on sorted samples.  For one k-row every condition is a
function of the single value x = <k, omega(xi)>, so each row's sample
values are sorted once and every count is read off that order, exactly as
evaluating the condition at every sample would give it.  Both families
come from one search, the solver gate's (``homological._ranges``): the
samples with |fl(x + c)| below a bound are one contiguous range of the
sorted values (fl(x + c) is nondecreasing in x, since rounding is
monotone), and one bisection that evaluates the same fl(x + c) at each
probe finds both ends for all shifts at once.

* KL: the computed value is |fl(x + c)| for the shift c = <l, Omega>, so
  with the threshold as the bound the range is the excluded set: the count
  is its length, and its positions mark the excluded samples.
* R1/R3/R4: the computed value is the rounded product of the factors
  |1j x + mu| over the roots mu, each at least |fl(x + Im mu)|.  Rounded
  products are monotone in their factors, so a value below the threshold
  has a factor below the threshold's ``_factor_floor``: with that as the
  bound of each root's shift Im mu, the ranges hold every excluded sample,
  and the condition is evaluated only on them.

The values are ``row_values``: the rounded products of the gradient
k A and the sample added in coordinate order, then <k, alpha>.  Each step
is a correctly rounded, monotone operation, so a row's value is monotone
in every coordinate of xi, and its exact largest and smallest values over
the grid are its values at the two box corners the signs of its gradient
pick (``np.linspace`` ends exactly on the box).

Most k-rows meet no band at all.  By the same monotonicity a range can be
non-empty only if the row's largest value passes the range's lower test
and its smallest value passes the upper one (``homological._may_meet``,
the bisection's two sums at the row's corner extremes).  Only the rows
that pass for some shift have their values formed, sorted and searched;
every other row counts zero without a value (on the ``nls.cfg`` grid, 14
of 220 rows are formed).

Only the thresholds depend on gamma, so a gamma ladder (``estimate_ladder``)
reads one condition catalogue (each condition's ``weight`` gives its scale
on every rung), pre-tests each row once (each KL shift under its largest
rung threshold; ``_may_meet`` is monotone in the bound) and sorts each
block of k-rows once for all its rungs.  One bisection per block runs over
every rung's KL thresholds side by side and over every determinant root
(the roots do not depend on gamma), bounded by the floor of its
condition's largest threshold; each candidate's value is compared with
every rung's threshold.  The values, the strip geometry of each k-row and
the Lipschitz quotients are shared by the rungs as well.

The fractions are count / samples and the analytic bounds are added one
(k-row, condition) pair at a time in lattice order (a sequential
accumulate), so every reported figure is bit-identical to evaluating every
condition at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homological import (_GRID_CELL_CAP, FAMILIES, BudgetExhausted, NormalForm, _distinct,
                          _expand, _factor_floor, _may_meet, _ranges, condition_catalogue,
                          condition_scale, k_lattice, k_powers, lattice_size)

_ROW_BLOCK = 16     # k-rows sorted together


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


def estimate_excluded(fmap, params, dims, grid, families=FAMILIES, k_lo=0.0, kmax=None):
    """Excluded-fraction estimate for every condition family at step m: the
    one-rung ladder ``estimate_ladder(fmap, [params], ...)[0]``."""
    return estimate_ladder(fmap, [params], dims, grid, families, k_lo, kmax)[0]


def estimate_ladder(fmap, rungs, dims, grid, families=FAMILIES, k_lo=0.0, kmax=None):
    """Excluded-fraction estimates for every condition family, one
    MeasureReport per KamParams of ``rungs`` (a gamma ladder), in order.

    ``fmap`` is the affine frequency map.  The conditions come from the
    solver's catalogue (``homological.condition_catalogue``) with the
    zero-mode blocks set to zero, as at the first step, and are counted
    over the grid one block of k-rows at a time.  Family KL is restricted
    to the annulus k_lo < |k| <= kmax (the per-step bookkeeping); the
    determinant families use 0 < |k| <= kmax.  The k = 0 row does not
    depend on xi, so unlike the solver's R3 gate the grid never includes it.
    ``kmax`` defaults to the rungs' K_m, which must then agree: the rungs
    share one lattice.

    The values <k, omega(xi)> (``row_values``) are formed once per ladder,
    and only for the k-rows where a range may be non-empty at the row's
    extremes, which are its values at two box corners.  Those rows are
    sorted, one block at a time, once per ladder; every rung's excluded
    samples are counted from that order (module docstring): one bisection
    per block gives the KL ranges of all rungs, whose positions mark the
    excluded samples, and the candidates of every determinant, which is
    evaluated only there.  The condition catalogue, the strip geometry of
    each k-row and the Lipschitz quotients are formed once per ladder as
    well.  The counts equal those of evaluating every condition at every
    sample, the fractions are count / samples, and the analytic bounds are
    summed in the same (k-row, condition) order, so each report is
    bit-identical to that evaluation.  More than 20,000,000 k-rows x
    samples, or k-rows x rungs x conditions, raise BudgetExhausted before
    the lattice is formed; a box on which <k, omega> at the corners or the
    Lipschitz quotients are not finite raises ValueError.
    """
    kmaxes = {p.K_m if kmax is None else kmax for p in rungs}
    if len(kmaxes) != 1:
        raise ValueError("the rungs of a ladder share one k lattice: pass kmax")
    kmax = kmaxes.pop()
    N0 = NormalForm.zero(grid.ndim, max(dims.b, 1))
    N0.Omega = dict(fmap.Omega)
    # gamma sets the scales only: one catalogue serves every rung
    conds = condition_catalogue(N0, rungs[0], dims, kmax, families)
    nr, nc = len(rungs), len(conds)
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
    kpow = k_powers(conds, kabs)
    taus = list(kpow)
    scales = np.array([[condition_scale(p, c.family, c.weight) for c in conds] for p in rungs])
    thr = scales[:, :, None] / np.array(list(kpow.values()))[[taus.index(c.tau) for c in conds]]
    annulus = kabs > k_lo
    live = np.array([annulus if c.family == "KL" else kabs > 0 for c in conds],
                    dtype=bool).reshape(nc, nk)
    kl = [j for j, c in enumerate(conds) if c.family == "KL"]
    det = [j for j, c in enumerate(conds) if c.family != "KL"]
    # the shifts of one bisection per block: every rung's KL shifts,
    # rung-major, then every determinant root Im mu
    count = np.array([len(conds[j].roots) for j in det], dtype=int)
    owner = np.repeat(np.array(det, dtype=int), count)
    kl_shifts = np.array([conds[j].roots[0] for j in kl], dtype=float)
    shifts = np.concatenate([np.tile(kl_shifts, nr)] + [conds[j].roots.imag for j in det])
    m = nr * len(kl)
    floors = np.repeat(_factor_floor(thr[:, det].max(axis=0).T, count), count, axis=1)

    def kl_bounds(t, rows):
        # a KL shift's threshold inside the annulus, -inf (below every value)
        # outside it
        return np.where(annulus[rows, None], t, -np.inf)

    def bounds(rows):
        # the shifts' bounds on the k-rows ``rows``: every rung's KL
        # thresholds, then each root's factor floor of its condition's
        # largest threshold
        t = thr[:, kl][:, :, rows].transpose(2, 0, 1).reshape(len(rows), m)
        return np.concatenate([kl_bounds(t, rows), floors[rows]], axis=1)

    # only the k-rows where some range may be non-empty at the row's extremes
    # are formed, sorted and searched: one pre-test of every row, each KL
    # shift once under its largest rung threshold (``_may_meet`` is monotone
    # in the bound, so this keeps the rows some rung's shift keeps)
    near = _may_meet(vmin, vmax, np.concatenate([kl_shifts, shifts[m:]]),
                     np.concatenate([kl_bounds(thr[:, kl].max(axis=0).T, slice(None)), floors],
                                    axis=1)).any(axis=1)
    reached = np.flatnonzero(near)
    vals = row_values(base[reached, None], proj[reached, None], grid.samples())

    counts = np.zeros((nr, nk, nc), dtype=np.int64)
    excluded = [{f: np.zeros(nsamp, dtype=bool) for f in families} for _ in rungs]
    for i0 in range(0, len(reached), _ROW_BLOCK):
        blk, v = reached[i0:i0 + _ROW_BLOCK], vals[i0:i0 + _ROW_BLOCK]
        order = np.argsort(v, axis=1)
        xs = np.take_along_axis(v, order, axis=1)
        nb = len(xs)
        lo, hi = _ranges(xs, shifts, bounds(blk))
        if kl:
            # a KL range is the condition's excluded set
            lk, hk = lo[:, :m].reshape(nb, nr, -1), hi[:, :m].reshape(nb, nr, -1)
            which, pos = _expand(lk, hk)
            r, rung, _ = np.unravel_index(which, lk.shape)
            for q in range(nr):
                counts[q, blk[:, None], kl] = hk[:, q] - lk[:, q]
                got = rung == q
                excluded[q]["KL"][order[r[got], pos[got]]] = True
        # a determinant below a threshold has a factor below its floor: the
        # candidates, once per (condition, row, position), evaluated exactly
        which, p = _expand(lo[:, m:], hi[:, m:])
        r, root = np.divmod(which, len(owner))
        shape = (nc, nb, nsamp)
        j, r, p = np.unravel_index(_distinct(np.ravel_multi_index((owner[root], r, p), shape)),
                                   shape)
        for jj in _distinct(j):
            at = slice(*np.searchsorted(j, [jj, jj + 1]))
            rows, pos = r[at], p[at]
            hit, rung = np.nonzero(conds[jj].value(xs[rows, pos])[:, None]
                                   < thr[:, jj, blk[rows]].T)
            for q in range(nr):
                got = hit[rung == q]
                counts[q, blk, jj] = np.bincount(rows[got], minlength=nb)
                excluded[q][conds[jj].family][order[rows[got], pos[got]]] = True

    # strip width 2 thr / |g| against the box extent along the gradient g
    widths = grid.hi - grid.lo
    g = np.array([float(np.linalg.norm(v, 2)) for v in proj])
    extent = np.array([float(np.abs(v) @ widths) / gi if gi else 0.0 for v, gi in zip(proj, g)])
    wide = extent > 0
    span = np.where(wide, g * extent, 1.0)[:, None]
    nroots = np.array([float(len(c.roots)) for c in conds])
    fam = np.array([FAMILIES.index(c.family) for c in conds], dtype=int)
    cells = live.T                      # (k-row, condition) pairs counted
    in_family = {f: cells & (fam == FAMILIES.index(f)) for f in families}
    ktuples = [tuple(int(v) for v in k) for k in kvecs]
    b = max(dims.b, 1)
    K_prev = max(k_lo, 1.0)
    reports = []
    for q, params in enumerate(rungs):
        # thr^{1/order}, since {|det| < thr} scales like that per root
        eff = np.empty((nc, nk))
        for deg in {len(c.roots) for c in conds}:
            at = nroots == deg
            eff[at] = thr[q, at] ** (1.0 / deg)
        cb = nroots * np.where(wide[:, None], np.minimum(1.0, 2.0 * eff.T / span), 1.0)
        # each family's bound is summed one pair at a time in (k-row,
        # condition) order: a sequential accumulate, not a pairwise sum
        bound = {f: float(np.add.accumulate(np.append(0.0, cb[sel]))[-1])
                 for f, sel in in_family.items()}
        ii, jj = np.nonzero(cells & (counts[q] > 0))
        by_family = np.argsort(fam[jj], kind="stable")
        rows = [ConditionRow(conds[j].family, ktuples[i], conds[j].l, float(thr[q, j, i]),
                             int(counts[q, i, j]) / nsamp, float(cb[i, j]))
                for i, j in zip(ii[by_family].tolist(), jj[by_family].tolist())]
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
