"""Truncated Taylor-Fourier series over phase variables (x, y, z*, zbar*).

A series is a finite sum of monomials

    c * y^alpha * {z*}^beta * {zbar*}^gamma * exp(i <k, x>)

where ``k`` is an integer Fourier vector over the ``n`` angle variables,
``alpha`` a nonnegative integer vector of action exponents, and ``beta``,
``gamma`` finite-support exponent maps over the normal modes (the
distinguished zero-frequency modes plus the normal tail).  Tangential site
indices never appear in ``beta``/``gamma``.

The module provides the Poisson calculus (bracket, Lie transform), the
weighted coefficient-majorant norm and the Hamiltonian vector-field norm
with its per-term majorants, the truncation they certify and the bracket
that leaves out, within a majorant budget, whole rows of one operand and
then the products of derivative rows whose majorant levels sum below one
threshold (``_skip_plan``), degree splitting, Fourier truncation with a
tail certificate, and a text form.  All combining operations respect a
total-degree budget and a Fourier budget; mass removed by truncation is
accumulated into the result's ``meta`` rather than silently discarded.

Norms and majorants are taken on a domain D(s, r, r) (``DomainParams``); the
weights a, p of its sequence space l^{a,p} are the constants ``_WEIGHT_A``,
``_WEIGHT_P``, and ``driver``'s schedule forms the s and r of each step.

A series is stored as two arrays only, its key columns and coefficients
(see ``TFSeries``): one C-ordered (column, row) int16 array, so that a
per-row reduction adds whole contiguous columns one after another, in
column order, and a per-column one runs along a contiguous column.  A
float row sum thus adds the row's entries left to right, whatever its
position, as numpy's row-wise sum does below 8 entries (pairwise above).
Like terms are merged through exact mixed-radix integer codes of the rows
(Kronecker substitution, as in Biscani's Piranha): the code of a product
row is the sum of its factors' codes, and a merge is a stable sort of the
codes (``stable_order``) plus ``np.add.reduceat``, which adds each key's
first summand to numpy's pairwise sum of the others, in arrival order.
The radix comes from the column ranges of the operands at hand; a code word
holds at most 53 bits, so that it is formed exactly by a float64 matrix
product, and wider ranges spill into further code words sorted with
``np.lexsort``.  A one-word code whose span leaves room for the arrival
index is sorted as one packed uint64 key of (code, arrival), which is the
stable order.

A bracket is formed in one pass over its derivative pairs
(``_products``): with a skip budget, the rows and products ``_skip_plan``
leaves out go first; each operand's remaining rows are encoded once and
its derivatives for every pair formed together, and one stream forms the
product rows in blocks of at most ``_CHUNK_ROWS``.  No product is tested
against the budgets: brackets stream every row through a bounded
accumulator (``_Accumulator``), and its merged keys are truncated to the
degree and Fourier budgets once, at the end.  A raw buffer of at most
``_CHUNK_ROWS`` unsorted rows is sorted and summed on its own into a
sorted block of distinct keys, and sorted blocks are merged with each
other only when their rows pass ``_CHUNK_ROWS`` and once at the end.
Rows that fit in one buffer are summed by one sort; beyond that, each
buffer is summed as above and the buffers' partial sums are added in
buffer order.

Brackets are real operations: with M the mirror (k -> -k, beta <-> gamma,
conjugate coefficient), M({A, B}) = {M(A), M(B)}, so two real operands give
{A, B} = P + M(P) with P = {A_half, B}, where A_half holds the rows of A
that sort below their mirror and its self-mirror rows at weight 1/2.  One
rule decides how a bracket is formed: two real-flagged operands, half of
the first plus the mirror (at about half the product rows, and the output
is exactly real); otherwise both whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


class MonomialKey(NamedTuple):
    """Exponent data of one monomial: the key of ``TFSeries.terms``.

    ``beta`` and ``gamma`` are sorted tuples of ``(mode, exponent)`` pairs
    with every stored exponent >= 1; an absent mode means exponent 0.
    """

    k: tuple
    alpha: tuple
    beta: tuple
    gamma: tuple


@dataclass(frozen=True)
class SeriesDims:
    """Shape data shared by all series of one problem.

    Parameters
    ----------
    n : int
        Number of angle/action pairs (tangential sites).
    sites : tuple of int
        Tangential site indices; these modes are excluded from beta/gamma.
    zero_modes : tuple of int
        The distinguished zero-frequency normal modes (listed first in the
        mode universe).
    jmax : int
        Largest normal-tail mode index kept by the truncated model.
    """

    n: int
    sites: tuple
    zero_modes: tuple
    jmax: int

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(sorted(self.sites)))
        object.__setattr__(self, "zero_modes", tuple(sorted(self.zero_modes)))
        bad = set(self.sites) & set(self.zero_modes)
        if bad:
            raise ValueError("modes %s are both tangential and zero-frequency" % sorted(bad))

    @cached_property
    def tail_modes(self):
        excluded = set(self.sites) | set(self.zero_modes)
        return tuple(j for j in range(1, self.jmax + 1) if j not in excluded)

    @cached_property
    def modes(self):
        """Mode universe: zero modes first, then the normal tail."""
        return self.zero_modes + self.tail_modes

    @property
    def b(self):
        return len(self.zero_modes)


@dataclass(frozen=True)
class Budgets:
    """Truncation budgets: total degree and Fourier radius."""

    degree_max: int = 6
    k_max: int = 32

    def __post_init__(self):
        if self.degree_max < 0 or self.k_max < 0:
            raise ValueError("budgets must be nonnegative")
        # key columns are int16 and a bracket forms every product, adding
        # two in-budget columns, before the budgets filter its merged keys,
        # so each must stay below 2^14
        if max(self.degree_max, self.k_max) > 16383:
            raise ValueError("degree_max and k_max must not exceed 16383 (int16 keys)")


@dataclass(frozen=True)
class DomainParams:
    """The domain D(s, r, r): |Im x| < s, |y| < r^2 and z, zbar in the ball of
    radius r of l^{a,p}, whose weights (``mode_weight``) are module constants."""

    s: float
    r: float

    def __post_init__(self):
        if not (self.s > 0 and self.r > 0):
            raise ValueError("s and r must be positive")

    def shrink_s(self, sigma):
        if sigma >= self.s:
            raise ValueError("sigma=%g must be smaller than s=%g" % (sigma, self.s))
        return DomainParams(self.s - sigma, self.r)


# the weight parameters a and p of the sequence space l^{a,p} of every domain
_WEIGHT_A = 0.1
_WEIGHT_P = 1.0


def mode_weight(j):
    """Sequence-space weight w_j = j^p e^{aj} at a = ``_WEIGHT_A``, p =
    ``_WEIGHT_P`` (the j = 0 mode has weight 1)."""
    if j == 0:
        return 1.0
    return j ** _WEIGHT_P * math.exp(_WEIGHT_A * j)


class TFSeries:
    """Sparse truncated Taylor-Fourier series.

    ``cols`` and ``coefs`` are the only store.  ``cols`` is one C-ordered
    int16 array of key columns ``[k | alpha | beta | gamma]`` (a beta and a
    gamma column per mode of ``dims.modes``), entry (c, i) the column-c
    entry of monomial i; read as rows (``rows``, the view ``cols.T``) the
    keys are unique and in lexicographic order, and no coefficient is zero.
    A series is built from key rows only: ``TFSeries.from_rows`` takes them
    in any order, ``zero`` is the empty series.
    ``coefficients_at`` reads the coefficients at given key rows, and
    ``terms`` is the read-only ``MonomialKey -> complex`` view, built on
    first use, for ``to_text``, the ``check`` command's violation lists
    (``nls._violations``, ``cli.self_describe``) and the benchmark tracer
    (``perfbench/tracer.py``).  Arithmetic
    returns fresh series and never mutates its inputs
    (only ``prune`` drops terms in place), so series are safe to share
    between threads.  Series combine (``+``, ``-``, brackets) only with
    equal ``dims`` and ``budgets``; otherwise ValueError.  ``meta`` carries
    operation bookkeeping: a bracket sets ``meta['dropped_mass']`` to the
    l^1 mass of its summed coefficients at the keys outside the
    degree/Fourier budgets, the keys it removes.
    """

    __slots__ = ("dims", "budgets", "cols", "coefs", "real", "meta", "_terms")

    def __init__(self, dims, budgets, cols, coefs, real=False):
        """Series over canonical arrays (see ``from_rows`` for any others)."""
        self.dims, self.budgets, self.cols, self.coefs = dims, budgets, cols, coefs
        self.real, self.meta, self._terms = real, {}, None

    @classmethod
    def from_rows(cls, dims, budgets, rows, coefs, real=False):
        """Series from key rows ``[k | alpha | beta | gamma]`` in any order and
        their coefficients; repeated rows are summed as ``_sort_and_sum``
        does and zero sums dropped.  The one place rows become columns; the
        ``.T`` view of C-ordered columns needs no copy."""
        coefs = np.asarray(coefs, dtype=complex)
        rows = np.asarray(rows, dtype=np.int16).reshape(len(coefs), 2 * dims.n + 2 * len(dims.modes))
        return cls(dims, budgets, *_canonical(np.ascontiguousarray(rows.T), coefs), real)

    @classmethod
    def _of(cls, like, cols, coefs, real):
        """Series on the dims/budgets of ``like`` from canonical arrays."""
        return cls(like.dims, like.budgets, cols, coefs, real)

    @property
    def rows(self):
        """The key rows, one per monomial: the view ``cols.T``, no copy."""
        return self.cols.T

    def select(self, mask):
        """The terms of the rows where the boolean ``mask`` holds."""
        return TFSeries._of(self, _take(self.cols, mask), self.coefs[mask], self.real)

    @property
    def terms(self):
        """Read-only ``MonomialKey -> complex`` view of the series."""
        if self._terms is None:
            n, nmodes, modes = self.dims.n, len(self.dims.modes), self.dims.modes

            def expmap(exps):
                return tuple((modes[j], e) for j, e in enumerate(exps) if e)

            keys = (MonomialKey(tuple(r[:n]), tuple(r[n:2 * n]), expmap(r[2 * n:2 * n + nmodes]),
                                expmap(r[2 * n + nmodes:])) for r in self.rows.tolist())
            self._terms = MappingProxyType(dict(zip(keys, self.coefs.tolist())))
        return self._terms

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, dims, budgets, real=False):
        return cls.from_rows(dims, budgets, (), (), real)

    def copy(self):
        new = TFSeries._of(self, self.cols, self.coefs, self.real)
        new.meta = dict(self.meta)
        return new

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return len(self.coefs)

    def coefficients_at(self, rows):
        """Coefficients at the key ``rows`` (0 where a key is absent).

        One binary search on the sorted rows as byte strings: both sides are
        shifted by their joint column minima to 0..65535 and written as rows
        of big-endian uint16, so that byte order is the rows' lexicographic
        order, exact at any int16 column range.
        """
        out = np.zeros(len(rows), dtype=complex)
        if len(self) and len(rows):
            rows = np.asarray(rows, dtype=np.int16)
            lo = np.minimum(self.cols.min(axis=1), rows.min(axis=0)).astype(np.int32)
            store, keys = ((r - lo).astype(">u2", order="C").view(
                np.dtype((np.void, 2 * r.shape[1]))).ravel() for r in (self.rows, rows))
            pos = np.minimum(np.searchsorted(store, keys), len(self) - 1)
            hit = np.all(_take(self.cols, pos) == rows.T, axis=0)
            out[hit] = self.coefs[pos[hit]]
        return out

    def max_abs(self):
        return float(np.abs(self.coefs).max()) if len(self) else 0.0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        if not len(self) or not len(other):
            # a canonical series is its own _canonical: no sort for an empty side
            like = other if not len(self) else self
            return TFSeries._of(self, like.cols, like.coefs, self.real and other.real)
        cols, coefs = _canonical(np.concatenate([self.cols, other.cols], axis=1),
                                 np.concatenate([self.coefs, other.coefs]))
        return TFSeries._of(self, cols, coefs, self.real and other.real)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        real = self.real and not np.imag(scalar)
        coefs = scalar * self.coefs
        live = coefs != 0
        return TFSeries._of(self, _take(self.cols, live), coefs[live], real)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if self.dims != other.dims:
            raise ValueError("series dims mismatch: %r vs %r" % (self.dims, other.dims))
        if self.budgets != other.budgets:
            raise ValueError("series budgets mismatch: %r vs %r" % (self.budgets, other.budgets))

    def prune_mask(self, rel):
        """Mask of the coefficients below ``rel * max|c|``: the terms
        ``prune(rel)`` drops."""
        mags = np.abs(self.coefs)
        return mags < rel * mags.max(initial=0.0)

    def prune(self, rel):
        """Drop the terms of ``prune_mask(rel)`` in place; returns their l^1
        mass.  Only the end of a KAM step prunes, at ``driver._PRUNE_REL``."""
        drop = self.prune_mask(rel)
        if not drop.any():
            return 0.0
        mass = float(np.abs(self.coefs[drop]).sum())
        self.cols, self.coefs, self._terms = _take(self.cols, ~drop), self.coefs[~drop], None
        return mass

    # -- serialization --------------------------------------------------

    def to_text(self):
        """Deterministic text form, one term per line.

        Header: ``# tfseries n=.. sites=.. zero=.. jmax=.. dmax=.. kmax=..
        real=..``; term lines read ``k=(k1,..,kn) a=(a1,..,an)
        b={j:e,..} g={j:e,..} c=RE,IM`` ordered lexicographically on (k,
        alpha, beta, gamma).
        """
        d = self.dims
        bud = self.budgets
        head = ("# tfseries n=%d sites=%s zero=%s jmax=%d dmax=%d kmax=%d real=%d"
                % (d.n, ",".join(map(str, d.sites)) or "-",
                   ",".join(map(str, d.zero_modes)) or "-", d.jmax,
                   bud.degree_max, bud.k_max, int(self.real)))
        lines = [head]
        for key in sorted(self.terms):
            c = self.terms[key]
            bpart = ",".join("%d:%d" % me for me in key.beta)
            gpart = ",".join("%d:%d" % me for me in key.gamma)
            lines.append("k=(%s) a=(%s) b={%s} g={%s} c=%.17g,%.17g"
                         % (",".join(map(str, key.k)), ",".join(map(str, key.alpha)),
                            bpart, gpart, c.real, c.imag))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# key columns and exact codes
# ---------------------------------------------------------------------------

def _take(cols, at):
    """The key columns ``cols`` of the rows at the indices ``at``, or where
    the boolean mask ``at`` holds, by ``np.take`` / ``np.compress`` along
    axis 1, C-ordered as ``cols`` is: on 38k x 18 int16 keys numpy's fancy
    indexing took 3x (indices) and 4.5x (masks) as long."""
    if at.dtype == bool:
        return np.compress(at, cols, axis=1)
    return np.take(cols, at, axis=1)


def _degrees(cols, n):
    """Total degree 2|alpha| + |beta| + |gamma| of each row of ``cols``."""
    return 2 * cols[n:2 * n].sum(axis=0) + cols[2 * n:].sum(axis=0)


def _kabs(cols, n):
    """Fourier radius |k| of each row of ``cols``."""
    return np.abs(cols[:n]).sum(axis=0)


def _bounds(cols):
    """Per-column value range, widened to include 0 (a derivative lowers an
    exponent column to 0, and ``_Codec`` needs 0 in every range)."""
    return (np.minimum(cols.min(axis=1), 0).astype(np.int64),
            np.maximum(cols.max(axis=1), 0).astype(np.int64))


# largest radix product of one code word: every integer up to it is a float64
_WORD_SIZE = 2 ** 53


class _Codec:
    """Exact mixed-radix codes of key rows whose columns lie in [lo, hi],
    ranges that contain 0.

    Column 0 is the most significant digit, so comparing codes word by word
    compares rows lexicographically, and the code of a sum of rows is the sum
    of their codes when each is encoded against its share of ``lo`` (each
    share's range also containing 0).  Consecutive columns share one int64
    word while the product of their radices stays at most ``_WORD_SIZE``
    (2^53), so a code and every partial sum of its digits is exact in
    float64 (``encode``); operands whose ranges need more bits get further
    words.
    """

    def __init__(self, lo, hi):
        if max(lo.tolist(), default=0) > 0 or min(hi.tolist(), default=0) < 0:
            raise ValueError("code ranges must contain 0")
        self.lo = lo
        self.radix = hi - lo + 1
        self.words = []          # (first column, end column, strides)
        start = 0
        radix = self.radix.tolist()
        while start < len(radix) or not self.words:
            end, size = start, 1
            while end < len(radix) and size * radix[end] <= _WORD_SIZE:
                size *= radix[end]
                end += 1
            strides = [1] * (end - start)
            for c in range(end - start - 2, -1, -1):
                strides[c] = strides[c + 1] * radix[start + c + 1]
            self.words.append((start, end, np.array(strides, dtype=np.int64)))
            start = end

    def _slices(self, count):
        """Slices of ``count`` rows of at most about ``_CHUNK_ROWS`` int64
        entries each."""
        step = max(1, _CHUNK_ROWS // max(1, len(self.radix)))
        if count <= step:
            return [slice(None)]
        return [slice(s, s + step) for s in range(0, count, step)]

    def encode(self, cols, lo):
        """Code words of the rows of the key columns ``cols`` against their
        share ``lo`` of the lower bounds: per word, ``strides @ cols`` in
        float64, less ``lo @ strides``.  A share's range contains 0 and
        spans at most its column's radix, so every entry is below the radix
        in magnitude, and every product and partial sum of the float matrix
        product is an integer of magnitude below the word's radix product,
        at most 2^53: BLAS forms it exactly, in any order.  Formed a slice
        of rows at a time so that no temporary exceeds about ``_CHUNK_ROWS``
        entries (codes are exact, so the slicing changes no code)."""
        parts = [[(strides.astype(np.float64) @ cols[a:b, s]).astype(np.int64) - lo[a:b] @ strides
                  for a, b, strides in self.words]
                 for s in self._slices(cols.shape[1])]
        return parts[0] if len(parts) == 1 else [np.concatenate(w) for w in zip(*parts)]

    def lowered(self, words, cols):
        """The code words of rows lowered by one in column ``cols[i]`` (-1:
        left as they are): each word less the column's stride where the
        column is one of its digits.  Exact wherever the lowered entry stays
        at or above ``lo``, as a derivative's does (``_bounds`` includes 0)."""
        out = []
        for (a, b, strides), code in zip(self.words, words):
            step = np.zeros(len(self.radix) + 1, dtype=np.int64)    # step[-1]: no column
            step[a:b] = strides
            out.append(code - step[cols])
        return out

    def decode(self, words):
        """Key columns of the code ``words``, a slice of rows at a time (as
        ``encode``): per word, the quotients q_c = code // stride_c in one
        contiguous row per column; each but the leading one is reduced
        modulo its radix as q_c - radix_c q_{c-1}, since q_{c-1} = q_c //
        radix_c (a code lies below its leading radix times stride, so q_0
        is the leading digit).  Two int64 temporaries of the slice's size
        are alive."""
        cols = np.empty((len(self.radix), len(words[0])), dtype=np.int16)
        for s in self._slices(cols.shape[1]):
            for (a, b, strides), code in zip(self.words, words):
                q = code[s] // strides[:, None]
                q[1:] -= q[:-1] * self.radix[a + 1:b, None]
                q += self.lo[a:b, None]
                cols[a:b, s] = q
        return cols


def stable_order(words):
    """(order, sorted): the permutation that sorts rows by their int64 code
    ``words`` (most significant word first), ties in arrival order, and the
    words in that order.

    A one-word code whose span (max - min) fits in 64 - s bits, with
    s = (n - 1).bit_length() for n rows, is sorted as one packed uint64 key
    ``(code - min) << s | arrival`` by numpy's default (unstable) sort: the
    keys are distinct, so their order is the (code, arrival) order, which
    is the stable order; the low s bits give back the arrival index and the
    high bits the code.  ``code - min`` and ``+ min`` wrap in int64 where
    the span passes 2^63, and are exact read as uint64.  Other codes go
    through ``np.lexsort``, which is stable.
    """
    code = words[0]
    n = len(code)
    if len(words) == 1 and n:
        s = (n - 1).bit_length()
        base = code.min()
        if (int(code.max()) - int(base)).bit_length() <= 64 - s:
            keys = (code - base).view(np.uint64)
            keys <<= np.uint64(s)
            keys |= np.arange(n, dtype=np.uint64)
            keys.sort()
            order = (keys & np.uint64((1 << s) - 1)).view(np.int64)
            keys >>= np.uint64(s)
            keys = keys.view(np.int64)
            keys += base
            return order, [keys]
    order = np.lexsort(words[::-1])
    return order, [w[order] for w in words]


def _sort_and_sum(words, coefs):
    """Stable sort by code (``stable_order``), then sum each key's
    coefficients: the first to numpy's pairwise sum of the others, in
    arrival order.

    Returns (first, sums): ``first`` indexes one input row per distinct key,
    in key order, and ``sums`` holds the summed coefficients.  In a
    concatenation of sorted blocks (the accumulator's merges) the blocks'
    sums of one key are added in block order.
    """
    order, words = stable_order(words)
    new = words[0][1:] != words[0][:-1]
    for w in words[1:]:
        new |= w[1:] != w[:-1]
    starts = np.concatenate([[0], np.flatnonzero(new) + 1])
    return order[starts], np.add.reduceat(coefs[order], starts)


def _canonical(cols, coefs):
    """Sort the rows of ``cols`` lexicographically, sum repeated keys, drop
    zero coefficients."""
    if not len(coefs):
        return cols, coefs
    lo, hi = _bounds(cols)
    first, sums = _sort_and_sum(_Codec(lo, hi).encode(cols, lo), coefs)
    live = np.flatnonzero(sums)
    return _take(cols, first[live]), sums[live]


# ---------------------------------------------------------------------------
# the product kernel
# ---------------------------------------------------------------------------

# rows per product block, per raw buffer and per sorted blocks before they
# merge (cache-sized)
_CHUNK_ROWS = 1_000_000


class _Accumulator:
    """Bounded-memory collector of product rows as (code words, coefficient).

    ``add`` appends rows to a raw buffer of unsorted rows; no row is cut by
    its magnitude or by the budgets before ``finalize``, so the sum is
    exact up to rounding.  Before a block would push that buffer past
    ``_CHUNK_ROWS`` rows (one larger block aside), the buffer alone is summed
    into one sorted block of distinct keys.  Sorted blocks are merged with
    each other only once they hold more than ``_CHUNK_ROWS`` rows, and once
    more in ``finalize``; the running sum is never sorted again with each
    new block.  Each buffer sums a key's rows as ``_sort_and_sum`` does, and
    a merge adds the blocks' partial sums the same way, in buffer order, so
    rows that fit in one buffer are summed by the one sort in ``finalize``.
    """

    def __init__(self):
        self.raw, self.raw_rows = [], 0           # unsorted (words, coefs) blocks
        self.blocks, self.block_rows = [], 0      # sorted blocks of distinct keys

    def add(self, words, coefs):
        if self.raw_rows and self.raw_rows + len(coefs) > _CHUNK_ROWS:
            self._reduce_raw()
            if self.block_rows > _CHUNK_ROWS:
                self._merge_blocks()
        self.raw.append((words, coefs))
        self.raw_rows += len(coefs)

    def _reduce_raw(self):
        self.blocks.append(_summed(self.raw))
        self.block_rows += len(self.blocks[-1][1])
        self.raw_rows = 0

    def _merge_blocks(self):
        self.blocks = [_summed(self.blocks)]
        self.block_rows = len(self.blocks[0][1])

    def finalize(self, out, codec, mirrored):
        """Merge everything into ``out`` and truncate it, the one place a
        bracket meets its budgets: ``out`` keeps the keys within the degree
        and Fourier budgets whose sum is not exactly zero, and
        ``meta['dropped_mass']`` is the l^1 mass of the sums at the keys
        outside them.

        With ``mirrored`` the rows collected are P, formed from half of an
        operand (see ``_products``): the sum P is added to its mirror M(P)
        before the budgets, mirror-invariant, cut it."""
        if self.raw_rows:
            self._reduce_raw()
        if not self.block_rows:
            return
        if len(self.blocks) > 1:
            self._merge_blocks()
        words, sums = self.blocks.pop()
        cols = codec.decode(words)
        del words       # freed before the mirror merge
        if mirrored:
            cols, sums = _plus_mirror(out.dims, cols, sums)
        n, bud = out.dims.n, out.budgets
        keep = (_degrees(cols, n) <= bud.degree_max) & (_kabs(cols, n) <= bud.k_max)
        out.meta["dropped_mass"] = float(np.abs(sums[~keep]).sum())
        keep &= sums != 0
        out.cols, out.coefs = _take(cols, keep), sums[keep]


def _summed(blocks):
    """The (words, coefs) ``blocks`` concatenated in order, one row per
    distinct key, sorted, with the key's summed coefficient.  Empties the
    list ``blocks``, so that the pieces are freed before the sort."""
    if len(blocks) == 1:
        words, coefs = blocks[0]
    else:
        words = [np.concatenate(ws) for ws in zip(*(w for w, _ in blocks))]
        coefs = np.concatenate([c for _, c in blocks])
    blocks.clear()
    first, sums = _sort_and_sum(words, coefs)
    return [w[first] for w in words], sums


def _half(A):
    """The rows of A that sort below their mirror, and its self-mirror rows
    (k = 0, beta = gamma) at weight 1/2.  For a real A and B, {A, B} is
    P + M(P) with P = {half, B}, where M is the mirror (``_mirror``)."""
    mirror, _ = _mirror(A.dims, A.cols, A.coefs)
    at = (mirror != A.cols).argmax(axis=0), np.arange(len(A))    # first differing column
    # compared, not subtracted: a difference of two int16 entries can wrap
    theirs, ours = mirror[at], A.cols[at]                       # equal: self-mirror
    keep = theirs >= ours
    coefs = A.coefs[keep]
    return TFSeries._of(A, _take(A.cols, keep),
                        np.where((theirs == ours)[keep], 0.5 * coefs, coefs), True)


def _derivative_rows(S, cols):
    """(pair, row) of every pair's derivative rows of S, pair-major with rows
    in order: the rows whose entry in column ``cols[p]`` is nonzero."""
    return np.nonzero(S.cols[cols] != 0)


# share of a bracket's skip budget that goes to whole rows of B
# (``_skip_plan``).  On nls.cfg's two S1 brackets a half formed 1.10x the
# product rows of the product plan alone and took the least time; a quarter
# planned over more rows, three quarters formed 1.26-1.31x the rows.
_ROW_SHARE = 0.5


# the product plan's levels (``_skip_plan``): a derivative row's level is
# floor(4 log2 u), a quarter octave of u; on nls.cfg's S1 brackets half
# octaves were as fast and eighth octaves slower
_LEVELS_PER_OCTAVE = 4
# levels of one operand, counted from its lowest; higher rows share the top
# level, so that the table of level pairs never exceeds 1,024^2 cells
_LEVEL_CAP = 1024


def _levels(u):
    """Level floor(``_LEVELS_PER_OCTAVE`` log2 u) of each u (0 counts as the
    least normal float), less the lowest, capped at ``_LEVEL_CAP`` - 1."""
    level = np.floor(_LEVELS_PER_OCTAVE * np.log2(np.maximum(u, np.finfo(float).tiny)))
    return np.minimum(level - level.min(initial=np.inf), _LEVEL_CAP - 1).astype(np.intp)


class _Plan(NamedTuple):
    """What ``_skip_plan`` leaves out.  B's derivative rows (``rows_b``:
    pair, row of B less its cut rows) come sorted by pair, then level; A
    derivative row i keeps the rows of its pair from ``start[i]`` on and
    leaves out those before.  ``bound`` and ``left_out`` count the cut
    rows' products too."""

    rows_b: tuple
    start: np.ndarray
    bound: float
    left_out: int


def _skip_plan(A, B, rows_a, cols_a, cols_b, dp, budget):
    """The products of A's derivative rows ``rows_a`` with B's
    (``_derivative_rows``) to form, less those whose summed majorants on
    ``dp`` fit ``budget``: (B less the rows whose products all go, ``_Plan``
    of the rest), with plan None when it leaves nothing out.  The bracket
    forms every product before its budgets cut the merged keys, so each one
    left out is one the whole bracket forms.

    With u = |c| |e| weight gain for a row whose column entry e (exponent or
    k component) the derivative brings down, where gain is the factor the
    weight gains by that derivative (1 for an angle, r^-2 for an action, w_j
    / r for mode j), and h of ``_vf_parts`` on the row before it is
    differentiated, a product of derivative rows a', b' has majorant at most
    u_a u_b (h_a + h_b) / r^2: the weight is submultiplicative (|k + k'| <=
    |k| + |k'|), h subadditive, and lowering an exponent never raises h.

    Whole rows of B go first, within ``_ROW_SHARE`` of the budget.  The
    mass of B row b, the summed bound of its products, is base_b (E_b W +
    h_b E_b U) / r^2 with E_b,p = |e_b,p| gain_p for pair p and W_p, U_p
    the sums of u_a h_a and u_a over A's derivative rows of pair p; the rows
    of least mass go (``_below_cut``), and their products number sum_p
    n_a,p n_b,p, with n the derivative rows of each side in pair p.

    Of the rest, every product whose levels (``_levels`` of u_a / r^2 and
    u_b, each side against its own lowest) sum below one T goes.  Per pair,
    the sums of u and u h over each level's derivative rows give each cell
    (l_a, l_b) the exact summed bound of its products, W_a^T U_b + U_a^T
    W_b, and T is the largest level sum whose diagonals l_a + l_b < T
    together fit what the row cut left of the budget.  With B's derivative
    rows sorted by pair, then level, the products an A derivative row keeps
    are the suffix of its pair's rows of level at least T - l_a.
    """
    pa, sa = rows_a
    n = A.dims.n
    w = np.array([mode_weight(j) for j in A.dims.modes])
    gain = np.concatenate([np.ones(n), np.full(n, dp.r ** -2), w / dp.r, w / dp.r])
    (base_a, h_a), (base_b, h_b) = _vf_parts(A, dp), _vf_parts(B, dp)
    col = cols_a[pa]
    ua, ha = base_a[sa] * np.abs(A.cols[col, sa]) * gain[col], h_a[sa]
    ua = ua / dp.r ** 2
    cut_rows, cut_bound = 0, 0.0
    e = np.abs(B.cols[cols_b]) * gain[cols_b, None]
    wsum, usum, count_a = (np.bincount(pa, x, minlength=len(cols_b))
                           for x in (ua * ha, ua, None))
    mass = base_b * (wsum @ e + h_b * (usum @ e))
    cut = _below_cut(mass, _ROW_SHARE * budget)
    if cut.any():
        cut_rows = int(count_a @ np.count_nonzero(_take(B.cols, cut)[cols_b], axis=1))
        cut_bound = float(mass[cut].sum())
        B, base_b, h_b = B.select(~cut), base_b[~cut], h_b[~cut]
    pb, sb = _derivative_rows(B, cols_b)
    col = cols_b[pb]
    ub, hb = base_b[sb] * np.abs(B.cols[col, sb]) * gain[col], h_b[sb]
    la, lb = _levels(ua), _levels(ub)
    na, nb = la.max(initial=-1) + 1, lb.max(initial=-1) + 1
    (Ua, Wa), (Ub, Wb) = ([np.bincount(p * size + level, x, minlength=len(cols_b) * size)
                           .reshape(len(cols_b), size) for x in (u, u * h)]
                          for p, level, size, u, h in ((pa, la, na, ua, ha), (pb, lb, nb, ub, hb)))
    cells = Wa.T @ Ub + Ua.T @ Wb
    spent = np.cumsum(np.bincount(np.add.outer(np.arange(na), np.arange(nb)).ravel(),
                                  cells.ravel()))
    budget -= cut_bound
    T = int(np.searchsorted(spent, budget, "right"))
    keys = pb * nb + lb
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.searchsorted(keys, pa * nb + np.clip(T - la, 0, nb))
    left_out = int((start - np.searchsorted(keys, pa * nb)).sum()) + cut_rows
    if not left_out:
        return B, None
    return B, _Plan((pb[order], sb[order]), start, float(spent[T - 1] if T else 0.0) + cut_bound,
                    left_out)


class _Derivatives(NamedTuple):
    """Every pair's derivative rows of one operand, pair-major: pair p holds
    ``counts[p]`` rows, ``offsets[p]:offsets[p + 1]``, each from operand row
    ``src``."""

    counts: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    words: list
    coefs: np.ndarray


def _derivatives(S, lo, codec, cols, pair, src):
    """The rows ``src`` of S, differentiated in the variable of column
    ``cols[pair]`` each, for every pair at once (``pair`` nondecreasing).

    The rows are encoded once; a derivative multiplies the coefficient by
    the exponent, or by 1j k for an angle, and lowers the exponent by one,
    which lowers the code by one stride (``_Codec.lowered``)."""
    col = cols[pair]
    e = S.cols[col, src]
    angle = col < S.dims.n
    words = codec.lowered([w[src] for w in codec.encode(S.cols, lo)], np.where(angle, -1, col))
    counts = np.bincount(pair, minlength=len(cols))
    return _Derivatives(counts, np.concatenate([[0], np.cumsum(counts)]), src, words,
                        S.coefs[src] * np.where(angle, 1j * e, e))


def _blocks(lens):
    """(s, t) for runs of whole segments s to t - 1 with at most ``_CHUNK_ROWS``
    products together (``lens`` per segment), or for one longer segment."""
    ends = np.cumsum(lens)
    s = 0
    while s < len(lens):
        t = max(s + 1, int(np.searchsorted(ends, ends[s] - lens[s] + _CHUNK_ROWS, "right")))
        yield s, t
        s = t


def _form(acc, da, db, jb, lens, lone):
    """Adds to ``acc`` the products (i, j) of segments i, A derivative row i
    with the ``lens[i]`` B derivative rows from ``jb[i]`` on, row-major, one
    block (``_blocks``) at a time, freeing the block after.

    numpy's complex multiply fuses a multiply-add, except on one element in
    place.  Blocks are formed in place, and a one-product block out of place
    unless it holds the bracket's ``lone`` product (its only one)."""
    for s, t in _blocks(lens):
        ends = np.cumsum(lens[s:t])
        i = np.repeat(np.arange(s, t), lens[s:t])
        j = np.arange(ends[-1]) + np.repeat(jb[s:t] - (ends - lens[s:t]), lens[s:t])
        coefs = da.coefs[i]
        coefs = np.multiply(coefs, db.coefs[j], out=coefs if lone or len(coefs) > 1 else None)
        acc.add([x[i] + y[j] for x, y in zip(da.words, db.words)], coefs)


def _products(out, A, B, pairs, dp=None, budget=0.0):
    """Sum over ``(col_a, col_b, factor)`` of factor * dA/d(col_a) * dB/d(col_b)
    into ``out``, truncated to the budgets.  The one rule: when A and B are
    both flagged ``real``, only ``_half(A)`` is multiplied and the
    accumulator adds the mirror of the sum, so the output is exactly real;
    otherwise both are used whole.  The halving trusts the flags: with an
    operand that is not real to roundoff, it forms the product of A's lower
    half and its mirror instead of A's.

    A positive ``budget`` first leaves out, before any row is formed, the
    products that ``_skip_plan`` picks on the domain ``dp``: whole rows of
    B (the longer operand: ``poisson_bracket`` puts the shorter first),
    then the products of the rows left whose levels sum below one
    threshold.  With halving, each left-out product counts for P and M(P),
    so the plan gets half the budget and ``meta['skip_bound']`` is twice
    the left-out products' summed bound; ``meta['skip_rows']`` counts them.

    Then one pass over all pairs: each operand's remaining rows are encoded
    once and its derivatives for every pair formed together
    (``_derivatives``).  Each factor is +-1 or +-i and is folded into dB's
    coefficients: ca * (cb * factor) equals (ca * cb) * factor exactly, also
    where numpy's complex multiply fuses a multiply-add (folding it into ca
    does not: the fused product then rounds a different partial product).
    One stream forms every product row (``_form``): a segment is an A
    derivative row with a run of its pair's B derivative rows (all, or with
    a plan the suffix it keeps), and blocks of whole segments reach the
    accumulator in row-major order.  No product is tested against the
    budgets; ``_Accumulator.finalize`` truncates the merged keys, so the
    kept coefficients do not depend on the budgets.  Operands whose product
    keys could leave +-(2^15 - 1) (only rows built by hand beyond the
    budgets) raise ValueError rather than wrap in the int16 decode, or in
    the negation of -2^15 (the mirror's k and |k|).
    """
    mirrored = A.real and B.real
    twice = 2.0 if mirrored else 1.0
    if mirrored:
        A = _half(A)
        if not len(A):      # flagged real, but no row sorts below its mirror
            return
    cols_a, cols_b, factors = (np.array(c) for c in zip(*pairs))
    rows_a = _derivative_rows(A, cols_a)
    plan = None
    if budget > 0.0:
        B, plan = _skip_plan(A, B, rows_a, cols_a, cols_b, dp, budget / twice)
    if plan is not None:
        out.meta.update(skip_bound=twice * plan.bound, skip_rows=plan.left_out)
    if not len(B):
        return
    lo_a, hi_a = _bounds(A.cols)
    lo_b, hi_b = _bounds(B.cols)
    lo, hi = lo_a + lo_b, hi_a + hi_b
    if max(-lo.min(), hi.max()) > np.iinfo(np.int16).max:
        raise ValueError("product keys span %d..%d, beyond the int16 keys" % (lo.min(), hi.max()))
    codec = _Codec(lo, hi)
    da = _derivatives(A, lo_a, codec, cols_a, *rows_a)
    db = _derivatives(B, lo_b, codec, cols_b, *(_derivative_rows(B, cols_b) if plan is None
                                                else plan.rows_b))
    db = db._replace(coefs=db.coefs * np.repeat(factors.astype(complex), db.counts))
    pa = rows_a[0]
    jb = db.offsets[pa] if plan is None else plan.start
    lens = db.offsets[pa + 1] - jb
    acc = _Accumulator()
    _form(acc, da, db, jb, lens, lens.sum() == 1)
    acc.finalize(out, codec, mirrored)


def poisson_bracket(F, G, dp=None, budget=0.0):
    """Poisson bracket {F, G}.

    The sign convention is fixed as

        {F, G} = <F_x, G_y> - <F_y, G_x> + i (<F_z*, G_zbar*> - <F_zbar*, G_z*>)

    so that d/dt (G o X_F^t) = {G, F} o X_F^t, i.e. ad_F G = {G, F} generates
    the time evolution along the Hamiltonian flow of F.  Every product is
    formed and summed, and the sum is truncated to the shared degree and
    Fourier budgets once, on its keys: ``meta['dropped_mass']`` is the l1
    mass of the sums at the keys removed, and the kept coefficients are bit
    for bit those of the same bracket under any wider budgets.  No
    coefficient is cut by its magnitude: within the budgets the bracket is
    exact up to rounding, and only keys whose sum is exactly zero are
    dropped.  Operands whose product keys would leave the int16 key range
    (rows built by hand far beyond the budgets) raise ValueError.

    Antisymmetry is exact coefficientwise: the two arguments are put into a
    canonical order by comparing their lengths, then, for equal lengths,
    their arrays (flipping the sign when they swap), and bracketing a series
    with itself returns the zero series outright.

    When both operands are flagged ``real``, only half of the canonical
    first operand A is bracketed (``_products``): the rows of A that sort
    below their mirror, and its self-mirror rows (k = 0, beta = gamma) at
    weight 1/2.  The accumulator adds the mirror of that sum, P + M(P), so
    the output is exactly real, and then truncates it (the budgets are
    mirror-invariant).  Otherwise both operands are used whole.

    With a positive ``budget`` the bracket leaves out, without forming
    them, the products of derivative rows whose summed majorant bounds on
    the domain ``dp`` stay within it (``_skip_plan``): first the rows of
    the longer operand whose products sum the least bound, within half the
    budget, then, of the rest, every product whose factors' majorant levels
    sum below the largest threshold that fits.  ``vector_field_norm`` on
    ``dp`` of the result is then within ``meta['skip_bound']`` (<= budget)
    of the whole bracket's, and ``meta['skip_rows']`` counts the product
    rows left out.  A budget of 0 (the default) gives the whole bracket,
    and both are 0.  A negative or NaN budget, or a positive one without
    ``dp``, raises ValueError.
    """
    if not budget >= 0.0:
        raise ValueError("budget must be a nonnegative number, got %r" % (budget,))
    if budget > 0.0 and dp is None:
        raise ValueError("a positive budget needs the domain dp")
    F._check_compatible(G)
    out = TFSeries._of(F, F.cols[:, :0], F.coefs[:0], F.real and G.real)
    out.meta.update(dropped_mass=0.0, skip_bound=0.0, skip_rows=0)
    if not len(F) or not len(G):
        return out
    # bytes (an element-by-element copy of the strided rows) only for a tie
    key_f, key_g = len(F), len(G)
    if key_f == key_g:
        key_f, key_g = ((S.rows.tobytes(), S.coefs.tobytes()) for S in (F, G))
        if key_f == key_g:
            return out
    sign = 1.0 if key_f < key_g else -1.0
    A, B = (F, G) if sign > 0 else (G, F)
    n, nmodes = F.dims.n, len(F.dims.modes)
    pairs = []
    for b in range(n):
        pairs += [(b, n + b, sign), (n + b, b, -sign)]
    for z in range(2 * n, 2 * n + nmodes):
        pairs += [(z, z + nmodes, sign * 1j), (z + nmodes, z, -sign * 1j)]
    _products(out, A, B, pairs, dp, budget)
    return out


def weighted_norm(F, dp):
    """Coefficient-majorant norm on D(s, r, r).

    Sum over terms of |c| e^{|k| s} r^{2|alpha|} prod_j (r / w_j)^{beta_j +
    gamma_j} with w_j = j^p e^{a j} (weight 1 for the j = 0 mode).  This is
    an upper bound for the sup-over-ball weighted norm: each normal factor is
    bounded by its own extremum over the weighted ball, which never
    understates the true norm.
    """
    return float(np.abs(F.coefs) @ _term_weights(F, dp))


def _term_weights(F, dp):
    """Per term, e^{|k| s} r^{2|alpha|} prod_j (r / w_j)^{beta_j + gamma_j}.

    The mode factors of a row are added left to right, in column order, on
    the contiguous columns of ``F.cols`` (a matrix-vector product may round
    equal rows differently by their position), so equal rows, and a row and
    its mirror, get bit-equal weights.
    """
    n = F.dims.n
    nmodes = len(F.dims.modes)
    cols = F.cols
    logw = np.array([0.0 if j == 0 else _WEIGHT_P * math.log(j) + _WEIGHT_A * j
                     for j in F.dims.modes])
    kabs = np.abs(cols[:n]).sum(axis=0)
    na = cols[n:2 * n].sum(axis=0)
    zexp = cols[2 * n:2 * n + nmodes] + cols[2 * n + nmodes:]
    zlog = math.log(dp.r) - logw
    logs = (kabs * dp.s + 2 * na * math.log(dp.r)
            + (zexp * zlog[:, None]).sum(axis=0))
    return np.exp(logs)


def vector_field_norm(F, dp):
    """Weighted norm of the Hamiltonian vector field X_F on D(s, r, r).

    Combines ||F_y|| + r^{-2} ||F_x|| + r^{-1} (sum_j w_j^2 ||F_zbar_j||^2)^{1/2}
    + r^{-1} (sum_j w_j^2 ||F_z_j||^2)^{1/2}, each partial measured with
    weighted_norm; the vector-valued x/y parts take the max over components.
    """
    n = F.dims.n
    nmodes = len(F.dims.modes)
    cols = F.cols
    base = np.abs(F.coefs) * _term_weights(F, dp)
    xnorm = max(float(np.abs(cols[b]) @ base) for b in range(n)) if n else 0.0
    # removing one y_b factor divides the weight by r^2, one z_j or zbar_j
    # factor by r / w_j
    ynorm = max(float(cols[n + b] @ base) for b in range(n)) / dp.r ** 2 if n else 0.0
    w = np.array([mode_weight(j) for j in F.dims.modes])
    zsq = np.sum((w * w * (cols[2 * n:2 * n + nmodes] @ base) / dp.r) ** 2)
    zbsq = np.sum((w * w * (cols[2 * n + nmodes:] @ base) / dp.r) ** 2)
    return (ynorm + xnorm / dp.r ** 2
            + math.sqrt(zbsq) / dp.r + math.sqrt(zsq) / dp.r)


def _vf_parts(F, dp):
    """Per term of F, (base, h) with base = |c| weight (``weighted_norm``'s)
    and h = max_b |k_b| + max_b alpha_b + (|beta w^2|_2 + |gamma w^2|_2), so
    that base h / r^2 is the ``vector_field_norm`` of the term alone.  Every
    factor of a row is reduced left to right, in column order, on
    ``F.cols``, and the two mode norms are added to each other
    before they are added to the rest, so a term and its mirror (-k, alpha,
    gamma, beta, conjugate coefficient) get bit-equal values.  Lowering an
    exponent never raises h.
    """
    n, nmodes = F.dims.n, len(F.dims.modes)
    cols = F.cols
    head = (np.abs(cols[:n]).max(axis=0, initial=0)
            + cols[n:2 * n].max(axis=0, initial=0))
    w2 = np.array([mode_weight(j) ** 2 for j in F.dims.modes])[:, None]
    zb = np.sqrt(((cols[2 * n:2 * n + nmodes] * w2) ** 2).sum(axis=0))
    zg = np.sqrt(((cols[2 * n + nmodes:] * w2) ** 2).sum(axis=0))
    return np.abs(F.coefs) * _term_weights(F, dp), head + (zb + zg)


def vf_majorants(F, dp):
    """Per term of F, the ``vector_field_norm`` of that term alone:

        |c| weight * (max_b |k_b| + max_b alpha_b + |beta w^2|_2 + |gamma w^2|_2) / r^2

    with the weight of ``weighted_norm`` (``_vf_parts``); a term and its
    mirror get bit-equal values.
    """
    base, h = _vf_parts(F, dp)
    return base * h / dp.r ** 2


def _below_cut(values, budget):
    """Mask of the ``values`` strictly below the first one, in ascending
    order, at which the prefix sum passes ``budget`` (every value when the
    whole sum stays within it).  Equal values fall on one side together,
    and the masked values sum to at most ``budget``."""
    ascending = np.sort(values)
    over = np.cumsum(ascending) > budget
    return values < ascending[over.argmax()] if over.any() else np.ones(len(values), dtype=bool)


def vf_truncate(F, dp, budget):
    """F without its terms of smallest ``vf_majorants`` while their sum stays
    at most ``budget``; returns (kept, bound, dropped term count).

    ``vector_field_norm`` is subadditive over disjoint terms, so the kept
    part's norm is within ``bound``, the summed majorants of the dropped
    terms, of F's.  The cut is ``_below_cut``'s: a term and its mirror share
    their majorant, so a real F stays real.  A budget of 0 keeps every term;
    a negative or NaN one raises ValueError.
    """
    if not budget >= 0.0:
        raise ValueError("budget must be a nonnegative number, got %r" % (budget,))
    if budget == 0.0 or not len(F):
        return F, 0.0, 0
    m = vf_majorants(F, dp)
    drop = _below_cut(m, budget)
    return F.select(~drop), float(m[drop].sum()), int(drop.sum())


def split_low_high(R):
    """Exact partition into degree <= 2 and degree >= 3 parts."""
    low = _degrees(R.cols, R.dims.n) <= 2
    return R.select(low), R.select(~low)


@dataclass
class TailReport:
    """Measured tail norm against the exponential cut-off certificate."""

    tail_norm: float
    bound: float
    ratio: float


def fourier_truncate(R, K, dp=None, sigma=None):
    """Exact partition into |k| <= K and |k| > K parts.

    When ``dp`` and ``sigma`` are given, the tail part is certified against
    the bound 4^n K^n e^{-K sigma} ||R||_{D(s,r,r)} measured on the shrunken
    strip s - sigma, and the measured/bound ratio is reported.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    inside = _kabs(R.cols, R.dims.n) <= K
    trunc, tail = R.select(inside), R.select(~inside)
    report = None
    if dp is not None:
        if sigma is None or sigma <= 0:
            raise ValueError("a positive sigma is required with dp")
        shrunk = dp.shrink_s(sigma)
        tail_norm = weighted_norm(tail, shrunk)
        bound = (4.0 ** R.dims.n) * (K ** R.dims.n) * math.exp(-K * sigma) * weighted_norm(R, dp)
        ratio = tail_norm / bound if bound > 0 else 0.0
        report = TailReport(tail_norm, bound, ratio)
    return trunc, tail, report


def truncated_mass(S):
    """The l^1 mass the degree and Fourier budgets cut from S, as its meta
    records it (0.0 where absent)."""
    return S.meta.get("dropped_mass", 0.0)


def lie_series(term, F, j, order, dp, rem_tol):
    """Sum_{i=j}^{order} ad_F^{i-j}(term) / i! for term = ad_F^j(H).

    The one Lie-series loop: ``lie_transform`` starts it at j = 0 with
    term = H, the KAM step at a bracket it has already formed.  Orders are
    added one at a time; the sum stops after an empty increment or, with
    ``dp`` and ``rem_tol`` given, after one whose vector-field norm is below
    ``rem_tol``.  Returns (sum, mass, order_used), where mass sums
    ``truncated_mass`` over the brackets (``term`` itself for j > 0).  No
    coefficient is cut by its magnitude.
    """
    fact = math.factorial(j)
    if j:
        acc, mass = term * (1.0 / fact), truncated_mass(term)
    else:
        acc, mass = term.copy(), 0.0
    last = vector_field_norm(acc, dp) if j and dp is not None else math.inf
    while j < order and len(term) and (rem_tol is None or last >= rem_tol):
        j += 1
        term = poisson_bracket(term, F)
        mass += truncated_mass(term)
        fact *= j
        incr = term * (1.0 / fact)
        acc = acc + incr
        if dp is not None:
            last = vector_field_norm(incr, dp)
    return acc, mass, j


def lie_transform(H, F, order):
    """Finite Lie series H o X_F^t at t = 1.

    Returns sum_{j=0}^{order} ad_F^j H / j! with ad_F H = {H, F}, exact up
    to rounding within the budgets: no coefficient is cut by its magnitude.
    The result's meta reports the brackets' summed budget mass
    (``dropped_mass``).  No command calls it: it is the reference that
    ``nls.birkhoff_transform``, which sums the same series from its known
    first bracket, is pinned against in ``tests/test_nls.py``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    acc, mass, _ = lie_series(H, F, 0, order, None, None)
    acc.meta.update(dropped_mass=mass)
    return acc


def _mirror(dims, cols, coefs):
    """Key columns (-k, alpha, gamma, beta) with conjugate coefficients,
    unsorted."""
    n, nmodes = dims.n, len(dims.modes)
    return (np.concatenate([-cols[:n], cols[n:2 * n], cols[2 * n + nmodes:],
                            cols[2 * n:2 * n + nmodes]]), coefs.conj())


def _plus_mirror(dims, cols, coefs):
    """S + M(S) in canonical form, for S given by its key columns and
    coefficients.  A key and its mirror each sum the same two values, in
    either order, so the sum is exactly real."""
    mirror, conj = _mirror(dims, cols, coefs)
    return _canonical(np.concatenate([cols, mirror], axis=1), np.concatenate([coefs, conj]))


def realify(F):
    """Project onto the real-valued subspace (average with the mirror)."""
    cols, coefs = _plus_mirror(F.dims, F.cols, F.coefs)
    return TFSeries._of(F, cols, coefs * 0.5, True)
