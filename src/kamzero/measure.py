"""Grid estimates of the excluded resonance-zone measure over the parameter box.

Samples a rectangular grid in the parameter box, evaluates every
small-divisor condition of the solver's catalogue
(``homological.condition_catalogue``) per sample through an affine
frequency map, and compares the excluded fractions per family against
linear strip-width estimates and the per-step bound shape
gamma^mu/(1 + K_{m-1}) + gamma^{1/(4 b^2)}/m^2.  Estimation is grid-based
(no covering arguments); the grid resolution error 1/samples-per-axis is
part of the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homological import FAMILIES, NormalForm, condition_catalogue, k_lattice, k_powers


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
    om = np.apply_along_axis(fmap.omega, -1, xi)
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
    zero-mode blocks set to zero, as at the first step, and are evaluated
    over the grid one k-row at a time.  Family KL is restricted to the annulus
    k_lo < |k| <= kmax (the per-step bookkeeping); the determinant families
    use 0 < |k| <= kmax.  The k = 0 row does not depend on xi, so unlike the
    solver's R3 gate the grid never includes it.
    """
    xi = grid.samples()
    nsamp = xi.shape[0]
    kmax = params.K_m if kmax is None else kmax
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
    excluded = {f: np.zeros(nsamp, dtype=bool) for f in families}
    bound = dict.fromkeys(families, 0.0)
    rows = []
    widths = grid.hi - grid.lo
    for i in range(len(kvecs)):
        # strip width 2 thr / |g| against the box extent along the gradient g
        g = float(np.linalg.norm(proj[i], 2))
        extent = float(np.abs(proj[i]) @ widths) / g if g else 0.0
        for c, thr, sel, eff in zip(conds, thrs, live, effs):
            if not sel[i]:
                continue
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


def rows_to_csv(rows):
    lines = ["family,k,threshold,excluded_fraction,analytic_bound"]
    for r in rows:
        lines.append("%s,%s,%.12g,%.12g,%.12g"
                     % (r.family, " ".join(map(str, r.k)), r.threshold,
                        r.excluded_fraction, r.analytic_bound))
    return "\n".join(lines) + "\n"
