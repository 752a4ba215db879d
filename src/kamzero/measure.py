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
evaluating the condition at every sample would give it:

* KL: the computed value is |fl(x + c)| for the shift c = <l, Omega>, and
  fl(x + c) is nondecreasing in x (rounding is monotone), so the samples
  with |fl(x + c)| < thr are one contiguous range of the sorted values.
  A bisection that evaluates the same fl(x + c) at each probe finds both
  ends for all shifts at once; the count is the range length.
* R1/R3/R4: the computed value is the rounded product of the factors
  |1j x + mu| over the roots mu.  Each factor is at least
  max(|Re mu|, |fl(x + Im mu)|), and over a window of sorted samples the
  minimum of |fl(x + Im mu)| sits at a window end unless the sign changes
  inside it.  Rounded products are monotone in their factors, so the
  product of these per-factor minima, formed in the same order, bounds the
  computed value from below on the whole window.  A window whose bound
  clears the threshold (with a relative margin of 1e-12) has no excluded
  sample; the condition itself is evaluated only on the other windows.

The KL bisection (``homological._first_above``) is shared with the solver
gate ``check_nonresonance``, which runs it on the sorted values of one
parameter sample over the k-lattice.

Only the thresholds depend on gamma, so a gamma ladder (``estimate_ladder``)
sorts each block of k-rows once for all its rungs: the bisection runs over
every rung's KL thresholds side by side, and a determinant's window bounds
(its roots do not depend on gamma) are formed once and compared with the
largest threshold.  The values, the strip geometry of each k-row and the
Lipschitz quotients are shared by the rungs as well.

The fractions are count / samples and the analytic bounds are added one
(k-row, condition) pair at a time in lattice order (a sequential
accumulate), so every reported figure is bit-identical to evaluating every
condition at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homological import (_GRID_CELL_CAP, FAMILIES, BudgetExhausted, NormalForm, _first_above,
                          condition_catalogue, k_lattice, k_powers, lattice_size)

_ROW_BLOCK = 16     # k-rows sorted together
_WINDOW = 64        # sorted samples per lower-bound window of a determinant
_MARGIN = 1e-12     # relative margin a window's lower bound must clear


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

    Each k-row block is sorted once per ladder, and every rung's excluded
    samples are counted from that order (module docstring): KL ranges by
    one bisection over all rungs' thresholds, determinants only inside the
    windows whose lower bound (the same on every rung, since the roots do
    not depend on gamma) does not clear the largest threshold.  The values
    <k, omega(xi)>, the strip geometry of each k-row and the Lipschitz
    quotients are formed once per ladder.  The counts equal those of
    evaluating every condition at every sample, the fractions are
    count / samples, and the analytic bounds are summed in the same
    (k-row, condition) order, so each report is bit-identical to that
    evaluation.  More than 20,000,000 k-rows x samples raise BudgetExhausted
    before anything is allocated.
    """
    kmaxes = {p.K_m if kmax is None else kmax for p in rungs}
    if len(kmaxes) != 1:
        raise ValueError("the rungs of a ladder share one k lattice: pass kmax")
    kmax = kmaxes.pop()
    nk = lattice_size(grid.ndim, kmax) - 1
    if nk * grid.size > _GRID_CELL_CAP:
        raise BudgetExhausted("the measure grid has %d k-rows x %d samples = %d cells,"
                              " above the cap of %d"
                              % (nk, grid.size, nk * grid.size, _GRID_CELL_CAP))
    xi = grid.samples()
    nsamp = xi.shape[0]
    kvecs = k_lattice(grid.ndim, kmax)
    kvecs = kvecs[np.abs(kvecs).sum(axis=1) > 0]
    kabs = np.abs(kvecs).sum(axis=1)
    base = kvecs @ fmap.alpha
    proj = kvecs @ fmap.A                    # (nk, n): gradient of <k, omega(xi)>
    vals = base[:, None] + proj @ xi.T       # (nk, nsamp)

    N0 = NormalForm.zero(grid.ndim, max(dims.b, 1))
    N0.Omega = dict(fmap.Omega)
    catalogues = [condition_catalogue(N0, p, dims, kmax, families) for p in rungs]
    conds = catalogues[0]
    # gamma sets the scales only: every rung has the same conditions and roots
    assert all(len(cs) == len(conds)
               and all(c.family == c0.family and c.l == c0.l
                       and np.array_equal(c.roots, c0.roots) for c, c0 in zip(cs, conds))
               for cs in catalogues)
    nr, nc = len(rungs), len(conds)
    thr = np.empty((nr, nc, nk))        # thr[q, j]: condition j's thresholds on rung q
    for q, cs in enumerate(catalogues):
        kpow = k_powers(cs, kabs)
        for j, c in enumerate(cs):
            thr[q, j] = c.scale / kpow[c.tau]
    live = np.array([kabs > (k_lo if c.family == "KL" else 0) for c in conds],
                    dtype=bool).reshape(nc, nk)
    counts = np.zeros((nr, nk, nc), dtype=np.int64)
    excluded = [{f: np.zeros(nsamp, dtype=bool) for f in families} for _ in rungs]
    kl = [j for j, c in enumerate(conds) if c.family == "KL"]
    if kl:
        # every rung's KL thresholds side by side, rung-major, with their shifts
        shifts = np.tile([conds[j].roots[0] for j in kl], nr)
        kl_thr = thr[:, kl].transpose(2, 0, 1).reshape(nk, nr * len(kl))
        kl_live = live[kl[0]]           # one annulus for every KL condition
    for i0 in range(0, nk, _ROW_BLOCK):
        blk = slice(i0, i0 + _ROW_BLOCK)
        order = np.argsort(vals[blk], axis=1)
        xs = np.take_along_axis(vals[blk], order, axis=1)
        nb = len(xs)
        if kl:
            lo = _first_above(xs, shifts, -kl_thr[blk], strict=True).reshape(nb, nr, -1)
            hi = _first_above(xs, shifts, kl_thr[blk], strict=False).reshape(nb, nr, -1)
            n = np.where(kl_live[blk, None, None], np.maximum(hi - lo, 0), 0)
            for q in range(nr):
                counts[q][blk, kl] = n[:, q]
                excluded[q]["KL"][order[_cover(lo[:, q], hi[:, q], n[:, q] > 0, nsamp)]] = True
        for j, c in enumerate(conds):
            if c.family != "KL":
                r, p, rung = _det_hits(c, xs, thr[:, j, blk].T)
                for q in range(nr):
                    at = rung == q
                    counts[q, blk, j] = np.bincount(r[at], minlength=nb)
                    excluded[q][c.family][order[r[at], p[at]]] = True

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
    lip_lo, lip_hi = lipschitz_quotients(fmap, grid)
    b = max(dims.b, 1)
    K_prev = max(k_lo, 1.0)
    reports = []
    for q, params in enumerate(rungs):
        # thr^{1/order}, since {|det| < thr} scales like that per root
        eff = np.empty((nc, nk))
        for j, c in enumerate(conds):
            eff[j] = thr[q, j] ** (1.0 / len(c.roots))
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


def _cover(lo, hi, keep, nsamp):
    """Mask of the sorted positions inside any range [lo, hi) with ``keep``,
    one row per row of ``lo``: a difference array summed along the row."""
    r = np.nonzero(keep)[0]
    diff = np.zeros((len(lo), nsamp + 1), dtype=np.int32)
    np.add.at(diff, (r, lo[keep]), 1)
    np.add.at(diff, (r, hi[keep]), -1)
    return np.cumsum(diff[:, :-1], axis=1) > 0


def window_lower_bound(roots, first, last):
    """Lower bound on the computed prod |1j x + mu| over the roots mu, for
    every x between the sorted window ends ``first`` and ``last``.

    Each factor is at least max(|Re mu|, |fl(x + Im mu)|); over the window
    fl(x + Im mu) is monotone, so its smallest modulus is at an end unless
    its sign changes in between (then 0).  The factors are multiplied in
    ``Condition.value``'s order, and rounded products are monotone.
    """
    lower = None
    for mu in roots:
        a, b = first + mu.imag, last + mu.imag
        near = np.where((a < 0) & (b > 0), 0.0, np.minimum(np.abs(a), np.abs(b)))
        f = np.maximum(abs(mu.real), near)
        lower = f if lower is None else lower * f
    return lower


def _det_hits(cond, xs, thr):
    """(row, sorted position, rung) of every sample of the sorted rows ``xs``
    with ``cond.value < thr[row, rung]``, for a threshold column per rung.

    Windows of ``_WINDOW`` sorted samples whose lower bound clears the
    largest threshold of their row by the relative margin are skipped; the
    condition is evaluated once on the samples of the others, and each
    value is compared with every rung's threshold.
    """
    nb, nsamp = xs.shape
    starts = np.arange(0, nsamp, _WINDOW)
    ends = np.minimum(starts + _WINDOW, nsamp) - 1
    lower = window_lower_bound(cond.roots, xs[:, starts], xs[:, ends])
    r, w = np.nonzero(lower < thr.max(axis=1)[:, None] * (1.0 + _MARGIN))
    p = (starts[w][:, None] + np.arange(_WINDOW)).ravel()
    r = np.repeat(r, _WINDOW)
    inside = p < nsamp
    r, p = r[inside], p[inside]
    hit, rung = np.nonzero(cond.value(xs[r, p])[:, None] < thr[r])
    return r[hit], p[hit], rung


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
