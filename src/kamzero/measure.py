"""Grid estimates of the excluded resonance-zone measure over the parameter box.

Samples a rectangular grid in the parameter box, evaluates every
small-divisor condition of the solver's catalogue
(``homological.condition_catalogue``) per sample through an affine
frequency map, and compares the excluded fractions per family against
linear strip-width estimates and the per-step bound shape
gamma^mu/(1 + K_{m-1}) + gamma^{1/(4 b^2)}/m^2.  Estimation is grid-based
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

The fractions are count / samples and the analytic bounds are added one
(k-row, condition) pair at a time in lattice order, so every reported
figure is bit-identical to evaluating every condition at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homological import (_GRID_CELL_CAP, FAMILIES, BudgetExhausted, NormalForm,
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
    d: int = 2

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
    """Excluded-fraction estimate for every condition family at step m.

    ``fmap`` is the affine frequency map.  The conditions come from the
    solver's catalogue (``homological.condition_catalogue``) with the
    zero-mode blocks set to zero, as at the first step, and are counted
    over the grid one block of k-rows at a time.  Family KL is restricted
    to the annulus k_lo < |k| <= kmax (the per-step bookkeeping); the
    determinant families use 0 < |k| <= kmax.  The k = 0 row does not
    depend on xi, so unlike the solver's R3 gate the grid never includes it.

    Each k-row's sample values are sorted once and every condition's
    excluded samples are counted from that order (module docstring): KL
    ranges by bisection on the monotone fl(x + c), determinants only inside
    the windows their lower bound does not clear.  The counts equal those
    of evaluating every condition at every sample, the fractions are
    count / samples, and the analytic bounds are summed in the same
    (k-row, condition) order, so the report is bit-identical to that
    evaluation.  More than 20,000,000 k-rows x samples raise BudgetExhausted
    before anything is allocated.
    """
    kmax = params.K_m if kmax is None else kmax
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
    conds = condition_catalogue(N0, params, dims, kmax, families)
    kpow = k_powers(conds, kabs)
    # per condition: thresholds over the k-rows, the rows it covers, and
    # thr^{1/order}, since {|det| < thr} scales like that per root
    thrs = [c.scale / kpow[c.tau] for c in conds]
    live = [kabs > (k_lo if c.family == "KL" else 0) for c in conds]
    effs = [t ** (1.0 / len(c.roots)) for c, t in zip(conds, thrs)]
    counts = np.zeros((len(kvecs), len(conds)), dtype=np.int64)
    excluded = {f: np.zeros(nsamp, dtype=bool) for f in families}
    kl = [j for j, c in enumerate(conds) if c.family == "KL"]
    if kl:
        shifts = np.array([conds[j].roots[0] for j in kl])
        kl_thr = np.stack([thrs[j] for j in kl], axis=1)
        kl_live = live[kl[0]]           # one annulus for every KL condition
    for i0 in range(0, len(kvecs), _ROW_BLOCK):
        blk = slice(i0, i0 + _ROW_BLOCK)
        order = np.argsort(vals[blk], axis=1)
        xs = np.take_along_axis(vals[blk], order, axis=1)
        if kl:
            lo = _first_above(xs, shifts, -kl_thr[blk], strict=True)
            hi = _first_above(xs, shifts, kl_thr[blk], strict=False)
            n = np.where(kl_live[blk, None], np.maximum(hi - lo, 0), 0)
            counts[blk, kl] = n
            excluded["KL"][order[_cover(lo, hi, n > 0, nsamp)]] = True
        for j, c in enumerate(conds):
            if c.family != "KL":
                r, p = _det_hits(c, xs, thrs[j][blk])
                counts[blk, j] = np.bincount(r, minlength=len(xs))
                excluded[c.family][order[r, p]] = True

    bound = dict.fromkeys(families, 0.0)
    rows = []
    widths = grid.hi - grid.lo
    for i in range(len(kvecs)):
        # strip width 2 thr / |g| against the box extent along the gradient g
        g = float(np.linalg.norm(proj[i], 2))
        extent = float(np.abs(proj[i]) @ widths) / g if g else 0.0
        for c, thr, sel, eff, count in zip(conds, thrs, live, effs, counts[i].tolist()):
            if not sel[i]:
                continue
            cb = len(c.roots) * (min(1.0, 2.0 * eff[i] / (g * extent)) if extent > 0 else 1.0)
            bound[c.family] += cb
            if count:
                rows.append(ConditionRow(c.family, tuple(int(v) for v in kvecs[i]),
                                         c.l, float(thr[i]), count / nsamp, cb))
    rows.sort(key=lambda r: FAMILIES.index(r.family))
    fractions = {f: float(e.mean()) for f, e in excluded.items()}
    bounds = {f: min(1.0, b) for f, b in bound.items()}

    ratios = {f: (fractions[f] / bounds[f] if bounds[f] > 0 else 0.0)
              for f in fractions}
    b = max(dims.b, 1)
    mu_exp = 1.0 if fmap.d > 1 else 0.5
    K_prev = max(k_lo, 1.0)
    per_step = (params.gamma_m ** mu_exp / (1.0 + K_prev)
                + params.gamma_m ** (1.0 / (4 * b * b)) / params.m ** 2)
    # cumulative check: the empirically surviving fraction must not undershoot
    # 1 - (sum of family bounds) by more than the grid resolution
    excl_sum = sum(fractions.values())
    bound_sum = min(1.0, sum(bounds.values()))
    cumulative_ok = bool(1.0 - excl_sum >= 1.0 - bound_sum - grid.resolution_error * grid.ndim)
    lip_lo, lip_hi = lipschitz_quotients(fmap, grid)
    return MeasureReport(fractions, bounds, ratios, per_step, cumulative_ok,
                         grid.resolution_error, nsamp, lip_lo, lip_hi, rows)


def _first_above(xs, shifts, bound, strict):
    """First sorted position p of every (row, shift) pair with
    fl(xs[row, p] + shift) > bound[row, shift] (>= unless ``strict``), or
    the row length if there is none.

    fl(x + c) is nondecreasing in x, so the test is monotone along a sorted
    row; one bisection runs for all pairs at once and evaluates the same
    sum the condition does at each probe.
    """
    nb, nsamp = xs.shape
    lo = np.zeros(bound.shape, dtype=np.intp)
    hi = np.full(bound.shape, nsamp, dtype=np.intp)
    row = np.arange(nb)[:, None]
    for _ in range(nsamp.bit_length()):
        mid = (lo + hi) // 2
        v = xs[row, np.minimum(mid, nsamp - 1)] + shifts
        up = (v > bound) if strict else (v >= bound)
        open_ = lo < hi
        hi = np.where(open_ & up, mid, hi)
        lo = np.where(open_ & ~up, mid + 1, lo)
    return lo


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
    """(row, sorted position) of every sample of the sorted rows ``xs`` with
    ``cond.value < thr[row]``.

    Windows of ``_WINDOW`` sorted samples whose lower bound clears the
    threshold by the relative margin are skipped; the condition is
    evaluated on the samples of the others.
    """
    nb, nsamp = xs.shape
    starts = np.arange(0, nsamp, _WINDOW)
    ends = np.minimum(starts + _WINDOW, nsamp) - 1
    lower = window_lower_bound(cond.roots, xs[:, starts], xs[:, ends])
    r, w = np.nonzero(lower < thr[:, None] * (1.0 + _MARGIN))
    p = (starts[w][:, None] + np.arange(_WINDOW)).ravel()
    r = np.repeat(r, _WINDOW)
    inside = p < nsamp
    r, p = r[inside], p[inside]
    hit = cond.value(xs[r, p]) < thr[r]
    return r[hit], p[hit]


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
