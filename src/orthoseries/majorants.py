"""Partial sums, their pointwise majorants, and the quantities the
maximal-inequality proofs factor through.

The central object is the finite majorant of partial sums

    S_N*(x) = max_{1 <= j <= N} || sum_{n<=j} a_n phi_n(x) ||,

computed by one running-sum sweep that holds about ``PREFIX_BUDGET`` prefix
values at once, for one order or a batch of them (an independent
materializing oracle lives in ``verify``); the chaining (one sweep per
dyadic block) and oscillation diagnostics run on it too.  Each kernel
sweeps exactly the coefficients given.  A rearrangement is a 0-based
order of 0..n-1, one row of a (P, n) array for the batched kernels, and
every kernel checks it by one rule (``_order_array``).  On top sit:

* the binary-representation decomposition of a prefix length into at most
  r+1 dyadic blocks, and the pointwise bound it yields,
* chaining diagnostics: dyadic block sums, within-block majorants, and the
  three inequalities (block-norm sum, within-block square sum, and the
  final majorant bound with constant 4),
* blocked oscillations of a rearranged series (the quantity controlled by
  the Tandori blocks), exact on every block, for a batch of rearrangements
  at once: their orders inside a block share each prefix sweep and each
  stack of per-atom diameters, each the maximum over the pairs of those
  prefixes that neither a bounding-box nor a centroid-ball bound rules out
  (bitwise the all-pairs maximum).  On vector fibers a block's atoms go
  in chunks of about 4 * ``PREFIX_BUDGET`` prefix values, one sweep each,
  so the kernel's memory is bounded whatever the fiber dimension.  A
  sparse block, at most t of its m functions nonzero on any one atom with
  4(t + 1) <= m + 1 and every coefficient finite, skips the sweep: its
  t + 1 compact rows per atom are the sums where the atom's sum moves, in
  chunks of about ``PREFIX_BUDGET`` / 2 prefix values, with the same bits
  (a repeated row adds no distance or norm, a zero term adds +-0), and
* two adversarial rearrangement orders that depend on the coefficients
  alone: the max-prefix greedy order, which Parseval makes the
  decreasing-|a_n| order on an orthonormal system, and the reversal of every
  Tandori block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .coefficients import block_mass, tandori_blocks, weyl_terms
from .direct_integral import DirectIntegralElement, Field, OrthonormalSystem
from .errors import ContractError, StructuralError
from .summation import compensated_sum
from .systems import MAX_SYSTEM_VALUES

# The exact oscillation kernel forms about DIAMETER_BUDGET squared distances
# at once (512 KiB of float64).
DIAMETER_BUDGET = 1 << 16

# Blocks of fewer prefix rows than this skip the candidate filter of the
# exact oscillation kernel, whose extra small numpy calls cost more than
# the pairs they save there.  On random walks stacked as verify stacks them
# (5 plans x 64 atoms of dimension d = 1, 2, 4), the filter took 1.1-2.0x
# the all-pairs time at 17 rows, 0.65-1.24x at 25, 0.43-1.04x at 33 and
# 0.25-0.71x at 49; the stock verify config (blocks of 3, 13 and 49 rows)
# ran fastest with its 49-row blocks filtered.  That measurement now
# describes the dense blocks alone, random-qr's in the stock and large-n
# configs: their compact blocks (varying-dim and tensor-vector) have 9 rows.
FILTER_MIN_ROWS = 32

# Prefix values (whole rows of flat fiber coordinates) one sweep step forms.
PREFIX_BUDGET = 1 << 16

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _coeff_array(coeffs, system: OrthonormalSystem) -> np.ndarray:
    a = np.asarray(coeffs)
    if a.ndim != 1:
        raise StructuralError("coefficients must be one-dimensional")
    if a.dtype.kind == "c" and system.fibers.field is Field.REAL:
        raise StructuralError("complex coefficients with a real system")
    if not 1 <= a.size <= len(system):
        raise ContractError(f"prefix length {a.size} outside [1, {len(system)}]")
    return a.astype(system.fibers.field.dtype, copy=False)


def _order_array(orders, n: int) -> np.ndarray:
    """``orders`` if it is a (P, n) integer array whose rows are permutations
    of 0..n-1, sorted about ``PREFIX_BUDGET`` entries at a time to check.
    The one-order kernels pass ``[order]``, so a 2-D order is refused too."""
    orders = np.asarray(orders)
    if orders.ndim != 2 or orders.dtype.kind not in "iu":
        raise StructuralError("an order must be a 1-D integer array, a batch of them 2-D")
    if orders.shape[1] != n:
        raise ContractError(f"orders must be permutations of 0..{n - 1}")
    step = max(1, PREFIX_BUDGET // n)
    for lo in range(0, len(orders), step):
        if np.any(np.sort(orders[lo:lo + step], axis=1) != np.arange(n)):
            raise ContractError(f"orders must be permutations of 0..{n - 1}")
    return orders


def _fiber_sq_norms(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Squared fiber norms per atom, along the last axis of ``flat``."""
    mag = flat.real ** 2 + flat.imag ** 2 if flat.dtype.kind == "c" else flat ** 2
    if offsets.size - 1 == mag.shape[-1]:
        # scalar fibers: reduceat would copy mag one segment at a time
        return mag
    return np.add.reduceat(mag, offsets[:-1], axis=-1)


def _weighted_l2(weights: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """The measure-weighted L2 norm of each profile given by its squares
    along the last axis."""
    return np.sqrt(np.maximum(np.sum(weights * sq, axis=-1), 0.0))


def _prefix_rows(V: np.ndarray, coeffs: np.ndarray, order: np.ndarray,
                 start: np.ndarray | float, step: int | None = None):
    """Yield ``(lo, rows)`` for lo = 0, step, ...: ``rows[..., 0, :]`` is the
    sum through position lo - 1 (``start`` at lo = 0), ``rows[..., 1:, :]``
    the sums through positions lo, lo+1, ..., and the next step overwrites
    them.  The leading axes of ``order`` (..., m) and ``start`` (..., D, or
    one scalar) index independent orders, which share one buffer of
    ``step`` rows each (by default about ``PREFIX_BUDGET`` values in all).
    Adding row by row gives the bits of ``np.cumsum(axis=-2)``, which wins
    only on narrow rows: one whole step (take, scale, running sum; timeit,
    best of 5, one Xeon core) took 36 us with cumsum against the loop's
    67 us at (rows, width) = (65, 64) and 780 against 1,130 us at (1025, 64),
    but 854 against 165 us at (65, 1024) and 722 against 249 us at
    (103, 640), the wide rows of the larger systems.  A switch on width
    would be a tuning constant that the stock and the large verify configs
    pull opposite ways, so the loop stays.
    """
    batch, m = order.shape[:-1], order.shape[-1]
    step = step or max(1, PREFIX_BUDGET // (max(1, math.prod(batch)) * V.shape[1]))
    # step-major: the rows of one position, across the batch, are one
    # contiguous block, so np.take writes the products in place (a strided
    # ``out`` made it allocate a copy of the whole step) and each running-sum
    # add covers the batch at once.  Both layouts' transpose axes are fixed
    # per call (np.moveaxis took 10x a transpose's time per step).
    to_steps = (len(batch),) + tuple(range(len(batch)))
    to_rows = tuple(range(1, len(batch) + 1)) + (0, len(batch) + 1)
    buf = np.empty((min(step, m) + 1,) + batch + V.shape[1:], dtype=V.dtype)
    buf[0] = start
    for lo in range(0, m, step):
        idx = order[..., lo:lo + step].transpose(to_steps)
        s = idx.shape[0]
        # indices come from a prefix or a validated order; "clip" skips a copy.
        # Every order's rows run the elementwise operations of a sweep of
        # that order alone, so an order's bits do not depend on its batch.
        np.take(V, idx, axis=0, out=buf[1:s + 1], mode="clip")
        np.multiply(coeffs[idx][..., None], buf[1:s + 1], out=buf[1:s + 1])
        for i in range(1, s + 1):
            buf[i] += buf[i - 1]
        yield lo, buf[:s + 1].transpose(to_rows)
        buf[0] = buf[s]


def _sweep(V: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray, order: np.ndarray,
           start: np.ndarray | float = 0.0, first_arg: bool = False):
    """Per order (the leading axes of ``order``, each of at least one
    position): the per-atom sup (at least 0) of the squared fiber norms of
    the sums ``_prefix_rows`` forms from ``start``, the first prefix length
    attaining it (None unless ``first_arg``), and the last sum, from which a
    further sweep goes on with the bits of one sweep over both."""
    sup_sq = np.zeros(order.shape[:-1] + (offsets.size - 1,))
    arg = np.ones(sup_sq.shape, np.int64) if first_arg else None
    for lo, rows in _prefix_rows(V, coeffs, order, start):
        sq = _fiber_sq_norms(rows[..., 1:, :], offsets)
        peak = sq.max(axis=-2)
        if first_arg:
            upd = peak > sup_sq
            arg[upd] = lo + 1 + sq.argmax(axis=-2)[upd]
        np.maximum(sup_sq, peak, out=sup_sq)
    return sup_sq, arg, rows[..., -1, :]


@dataclass(frozen=True)
class MajorantProfile:
    """Pointwise supremum of prefix-sum fiber norms.

    ``values[i]`` is the sup over prefixes at atom i, ``argmax_prefix[i]``
    the smallest prefix length attaining it, and ``l2_norm`` the measure-
    weighted L2 norm of the profile.
    """

    values: np.ndarray
    argmax_prefix: np.ndarray
    l2_norm: float


def prefix_sum(system: OrthonormalSystem, coeffs) -> DirectIntegralElement:
    """The element sum_n a_n phi_n over the coefficients given."""
    a = _coeff_array(coeffs, system)
    flat = a @ system.values[:a.size]
    return DirectIntegralElement(values=flat, fibers=system.fibers)


def permuted_majorant(system: OrthonormalSystem, coeffs, order) -> MajorantProfile:
    """Majorant of the rearranged series sum a_{sigma(n)} phi_{sigma(n)}, for
    ``order`` the 0-based permutation (sigma(1) - 1, ..., sigma(n) - 1) of
    0..n-1 (n = len(coeffs)).

    With ``np.arange(n)`` this is bitwise identical to ``majorant``.
    """
    a = _coeff_array(coeffs, system)
    sup_sq, arg, _ = _sweep(system.values, system.fibers.offsets, a,
                            _order_array([order], a.size)[0], first_arg=True)
    return MajorantProfile(values=np.sqrt(sup_sq), argmax_prefix=arg,
                           l2_norm=float(_weighted_l2(system.space.weights, sup_sq)))


def all_orders_l2(system: OrthonormalSystem, coeffs, orders) -> np.ndarray:
    """``permuted_majorant(...).l2_norm`` for every row of ``orders``, a
    (P, n) array of 0-based permutations of 0..n-1 (n = len(coeffs)), bitwise.

    The orders run through one sweep in chunks of
    max(1, PREFIX_BUDGET // (n * D)) rows, D the flat fiber dimension, so a
    chunk's prefix buffer holds about ``PREFIX_BUDGET`` values whatever P is.
    """
    a = _coeff_array(coeffs, system)
    orders = _order_array(orders, a.size)
    V = system.values
    offsets = system.fibers.offsets
    weights = system.space.weights
    chunk = max(1, PREFIX_BUDGET // (a.size * V.shape[1]))
    l2 = np.empty(orders.shape[0])
    for lo in range(0, orders.shape[0], chunk):
        sup_sq = _sweep(V, offsets, a, orders[lo:lo + chunk])[0]
        l2[lo:lo + chunk] = _weighted_l2(weights, sup_sq)
    return l2


def majorant(system: OrthonormalSystem, coeffs) -> MajorantProfile:
    """Streaming majorant over the prefixes of the coefficients given."""
    a = _coeff_array(coeffs, system)
    return permuted_majorant(system, a, np.arange(a.size))


@dataclass(frozen=True)
class DyadicDecomposition:
    """Binary representation of j in [1, 2^r] as consecutive dyadic blocks.

    ``bits[k]`` is the digit of weight 2^(r-k) (most significant first);
    ``blocks`` are half-open ranges (lo, hi] that partition (0, j], one of
    length 2^(r-k) per set bit, at most r+1 of them.
    """

    j: int
    r: int
    bits: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]


def dyadic_decomposition(j: int, r: int) -> DyadicDecomposition:
    # before the (r+1)-tuple of bits is built
    if not 0 <= r <= MAX_SYSTEM_VALUES:
        raise ContractError(f"r must be in [0, {MAX_SYSTEM_VALUES}]")
    if not 1 <= j <= (1 << r):
        raise ContractError(f"j={j} outside [1, 2^{r}]")
    bits = tuple((j >> (r - k)) & 1 for k in range(r + 1))
    blocks = []
    cursor = 0
    for k, bit in enumerate(bits):
        if bit:
            size = 1 << (r - k)
            blocks.append((cursor, cursor + size))
            cursor += size
    return DyadicDecomposition(j=j, r=r, bits=bits, blocks=tuple(blocks))


def dyadic_pointwise_bound(h, r: int) -> tuple[float, float]:
    """Evaluate both sides of the single-fiber dyadic chaining bound.

    ``h`` is a sequence of j vectors in one fiber, or of j scalars (a 1-d
    ``h`` is j terms, not one vector).  The sequence is zero-padded to
    length 2^r, and the return value is

        lhs = || sum_{n<=j} h_n ||^2,
        rhs = (r+1) * sum_{k=0}^{r} sum_{p=0}^{2^k - 1}
                  || sum over the p-th length-2^(r-k) block ||^2.

    Callers assert lhs <= rhs.
    """
    if r < 0:
        raise ContractError("r must be >= 0")
    try:
        arr = np.asarray(h)
    except ValueError as exc:  # ragged: numpy's "inhomogeneous shape"
        raise StructuralError("h must be a sequence of equal-length vectors") from exc
    if arr.ndim < 2:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.dtype.kind not in "fci":
        raise StructuralError("h must be a sequence of equal-length vectors")
    j = arr.shape[0]
    if not 1 <= j <= (1 << r):
        raise ContractError(f"j={j} outside [1, 2^{r}]")
    full = np.zeros(((1 << r), arr.shape[1]), dtype=arr.dtype)
    full[:j] = arr
    lhs = float(np.sum(np.abs(full.sum(axis=0)) ** 2))
    pieces = []
    for k in range(r + 1):
        size = 1 << (r - k)
        sums = full.reshape(1 << k, size, -1).sum(axis=1)
        pieces.append(np.sum(np.abs(sums) ** 2))
    rhs = (r + 1) * compensated_sum(pieces)
    return lhs, rhs


@dataclass(frozen=True)
class ChainingDiagnostics:
    """Everything the dyadic chaining argument measures for one prefix range.

    Block k covers indices [2^k, 2^(k+1) - 1], and ``n`` = 2^(K+1) - 1 is the
    end of the last block, K = floor(log2 len(coeffs)); the coefficients past
    len(coeffs) are zeros, which add nothing.  ``block_norms`` are the L2
    norms of the block sums; ``inner_sup_norms`` the L2 norms of the
    within-block majorants max_{j in block} ||sum_{n=2^k..j} a_n phi_n(x)||
    (k = 0 included so the finite chain is self-contained);
    ``dyadic_sup_l2`` is the L2 norm of the pointwise sup over prefixes
    that end on a complete block (j = 1, 3, 7, ..., n), the finite stand-in
    for the dyadic subsequence; ``weyl_mass`` is the truncated
    Menshov-Rademacher sum L_n.  The three tracked bounds are

        block_norm_sum   <= 2 sqrt(L_n),
        inner_sq_sum     <= 4 L_n,
        majorant_l2      <= 4 sqrt(L_n).
    """

    n: int
    k_max: int
    block_norms: np.ndarray
    block_coeff_sq: np.ndarray
    inner_sup_norms: np.ndarray
    dyadic_sup_l2: float
    majorant_l2: float
    weyl_mass: float
    block_norm_sum: float
    block_norm_sum_bound: float
    inner_sq_sum: float
    inner_sq_bound: float
    majorant_bound: float


def chaining_diagnostics(system: OrthonormalSystem, coeffs) -> ChainingDiagnostics:
    """One ``_sweep`` per dyadic block, positions [2^k - 1, 2^(k+1) - 1) of
    the len(coeffs) given, in a batch of two orders: one from the running
    sum at the previous block's end (the block's sup and running end sum),
    one from zero (the within-block sup and sum)."""
    a = _coeff_array(coeffs, system)
    K = a.size.bit_length() - 1
    V = system.values
    offsets = system.fibers.offsets
    weights = system.space.weights

    # per block only views and in-place writes (a stacked start cost 15 %)
    order = np.tile(np.arange(a.size), (2, 1))
    start = np.zeros((2, V.shape[1]), dtype=V.dtype)
    sups = np.empty((2, K + 1, offsets.size - 1))
    ends = np.empty((2, K + 1, V.shape[1]), dtype=V.dtype)
    for k in range(K + 1):
        block = order[:, (1 << k) - 1:(2 << k) - 1]
        sups[:, k], _, ends[:, k] = _sweep(V, offsets, a, block, start)
        start[0] = ends[0, k]
    (sup_sq, inner_sq), (running, inner) = sups, ends
    dyad_sq = _fiber_sq_norms(running, offsets).max(axis=0, initial=0.0)
    block_norms = _weighted_l2(weights, _fiber_sq_norms(inner, offsets))
    block_coeff_sq = np.array([compensated_sum(np.abs(a[(1 << k) - 1:(2 << k) - 1]) ** 2)
                               for k in range(K + 1)])
    inner_sup_norms = _weighted_l2(weights, inner_sq)

    weyl_mass = compensated_sum(weyl_terms(a))
    block_norm_sum = compensated_sum(block_norms)
    inner_sq_sum = compensated_sum(inner_sup_norms ** 2)
    return ChainingDiagnostics(
        n=(2 << K) - 1, k_max=K,
        block_norms=block_norms, block_coeff_sq=block_coeff_sq,
        inner_sup_norms=inner_sup_norms,
        dyadic_sup_l2=float(_weighted_l2(weights, dyad_sq)),
        majorant_l2=float(_weighted_l2(weights, sup_sq.max(axis=0))),
        weyl_mass=weyl_mass,
        block_norm_sum=block_norm_sum,
        block_norm_sum_bound=2.0 * math.sqrt(weyl_mass),
        inner_sq_sum=inner_sq_sum,
        inner_sq_bound=4.0 * weyl_mass,
        majorant_bound=4.0 * math.sqrt(weyl_mass),
    )


@dataclass(frozen=True)
class BlockOscillation:
    """Oscillation of one Tandori block [lo, hi] under a batch of P
    rearrangements, plan axis first.

    ``values[p, i]`` is, for plan p at atom i, the supremum over segment
    sums (restricted to indices of this block, in rearranged order) of the
    fiber norm, and ``l2[p]`` its measure-weighted L2 norm;
    ``doubled_one_sided`` is twice the one-sided prefix supremum, the
    estimate the proof uses (the prefixes include the block's start, so
    doubled_one_sided / 2 <= values <= doubled_one_sided; tandori-block in
    ``verify`` judges that bracket, this kernel only computes both sides);
    ``bound`` is the plans' shared 8 * sqrt(sum_{n in block} |a_n|^2 log2^2 n).
    """

    lo: int
    hi: int
    values: np.ndarray
    l2: np.ndarray
    doubled_one_sided: np.ndarray
    bound: float


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the points of ``a`` (g, d, r) and ``b``
    (g, d, c), shape (g, r, c): sum_k (a_k - b_k)^2 added in coordinate
    order, so each entry's bits depend on its two points alone."""
    out = np.empty(a.shape[:1] + a.shape[2:] + b.shape[2:])
    term = np.empty_like(out)
    for k in range(a.shape[1]):
        dst = term if k else out
        np.subtract(a[:, k, :, None], b[:, k, None, :], out=dst)
        np.multiply(dst, dst, out=dst)
        if k:
            out += term
    return out


def _candidates(x: np.ndarray) -> np.ndarray:
    """The (g, m) mask of the rows of atoms ``x`` (g, d, m) that can end a
    pair attaining the atom's largest ``_sq_dists`` value M.

    A row equal to the row before it is dropped: its distances are those of
    that row (-0.0 and 0.0 give the same squares).  So is a row i that fails
    either of two upper bounds on its distances against L, a lower bound on
    M: the largest distance among the 2d per-coordinate extreme rows, and
    from the row farthest from the centroid c to every row.  Each of those
    is a pair distance of the kernel, so L <= M.

    Box test: the farthest-box-corner bound U_i = sum_k C_k^2, with the
    exact corner distances C_k = max(x_ik - lo_k, hi_k - x_ik) >= |x_ik -
    x_jk|, must reach L.  Margin, with u = eps/2 and S = sum_k C_k^2: a
    rounded difference, or sum of nonnegative terms, is within a factor
    1 +- u of exact, and so is a rounded square up to 2^-1075 absolute where
    it is subnormal.  Hence the kernel's d2_ij <= (1+u)^(d+2) S + d 2^-1075
    (1+u)^d, and U_i >= (1-u)^(d+2) S - d 2^-1075 in whatever order its sum
    is taken, so d2_ij <= U_i (1 + (d+2) eps) + 2d 2^-1075, to first order.
    The factor 1 + 2 (d+1) eps and the term (d+1) 2^-1074 cover that and the
    rounding of the comparison's own product and sum (the relative part
    alone would not move a subnormal U_i).  (Where the sum runs in coordinate
    order, as numpy's does today, monotone rounding alone gives d2_ij <= U_i,
    so no input shows the margin; it keeps the filter exact in any order.)

    Ball test: ||x_i - x_j|| <= r_i + r_j for the exact distances r_i to c,
    whatever point c is, so (rho_i + R)^2, rho_i the computed distance to c
    and R the largest, must reach L.  Margin: rho_i is a rounded sqrt of a
    sum like U_i's, so rho_i >= (1-u)^((d+4)/2) r_i - t with t = sqrt(d
    2^-1075), and r_i + r_j <= (rho_i + R + 2t) (1-u)^(-(d+4)/2).  The
    test's sum, square and product lose at most (1-u)^4.  Where R >= 2^-400,
    2t and the kernel's subnormal term are below u relative to (rho_i + R)
    and its square, so d2_ij <= (1+u)^(d+5) (1-u)^(-(d+4)) (rho_i + R)^2, and
    the test keeps every row with a distance d2_ij >= L once its factor is at
    least (1+u)^(d+5) (1-u)^(-(d+8)) = 1 + (d + 6.5) eps to first order; the
    factor 1 + 2 (d+4) eps covers that with room for the higher orders.
    Below R = 2^-400 (where a square may underflow) only the box test runs.

    A row attaining M >= L thus passes every test (a repeated row's first
    copy does), and the maximum over the kept rows is bitwise M.  An atom
    with a non-finite coordinate keeps every row, so NaN still reaches the
    caller; where the centroid overflows, the ball bound is infinite or NaN
    and drops nothing.
    """
    d = x.shape[1]
    keep = np.ones((x.shape[0], x.shape[2]), dtype=bool)
    np.any(x[:, :, 1:] != x[:, :, :-1], axis=1, out=keep[:, 1:])
    ext = np.take_along_axis(x, np.concatenate([x.argmin(axis=2), x.argmax(axis=2)], axis=1)
                             [:, None, :], axis=2)
    # coordinate k of the rows extreme in coordinate k: its min and max
    # (NaN where the coordinate has a NaN, as argmin stops at the first)
    lo = np.diagonal(ext[:, :, :d], axis1=1, axis2=2)[:, :, None]
    hi = np.diagonal(ext[:, :, d:], axis1=1, axis2=2)[:, :, None]
    buf = x - x.mean(axis=2, keepdims=True)
    buf *= buf
    rho = np.sqrt(buf.sum(axis=1))
    top = np.take_along_axis(x, rho.argmax(axis=1)[:, None, None], axis=2)
    low = np.maximum(_sq_dists(ext, ext).max(axis=(1, 2)), _sq_dists(top, x).max(axis=(1, 2)))
    far = np.subtract(hi, x, out=buf)
    np.maximum(np.subtract(x, lo), far, out=far)
    far *= far
    keep &= far.sum(axis=1) * (1.0 + 2 * (d + 1) * _EPS) + (d + 1) * _TINY >= low[:, None]
    R = rho.max(axis=1, keepdims=True)
    rho += R
    rho *= rho
    rho *= 1.0 + 2 * (d + 4) * _EPS
    # "not below" keeps the rows of a NaN bound
    keep &= ~(rho < low[:, None]) | (R < 2.0 ** -400)
    keep[~np.all(np.isfinite(lo) & np.isfinite(hi), axis=(1, 2))] = True
    return keep


def _filtered(m: int, d: int) -> bool:
    """Whether the diameters of m rows of d real coordinates per atom go
    through ``_candidates``: from ``FILTER_MIN_ROWS`` rows on, unless 2d >= m.
    There its lower bound over the 2d extreme rows alone costs (2d)^2 d per
    atom, more than all m^2 d pairs (tandori-block, 3 trials of random-qr
    n = 64 on 8 atoms, all pairs in place of the filter: 0.32 -> 0.06-0.07 s
    at d = 64, 2.3-2.4 -> 0.10-0.12 s at d = 128)."""
    return m >= FILTER_MIN_ROWS and 2 * d < m


def _candidate_stacks(x: np.ndarray):
    """Yield ``(sel, pts)``: atoms ``sel`` of ``x`` (g, d, m) and their
    ``_candidates`` rows (g', d, c), stacked in order of candidate count about
    ``DIAMETER_BUDGET`` pairs at a time, each atom padded to the widest with
    copies of its first kept row (which adds no new distance)."""
    d, m = x.shape[1:]
    step = max(1, DIAMETER_BUDGET // (2 * d * m))
    keep = np.concatenate([_candidates(x[s:s + step]) for s in range(0, x.shape[0], step)])
    counts = keep.sum(axis=1)
    # the kept rows atom by atom, ascending in each; an atom's start at first
    kept = np.nonzero(keep)[1]
    first = np.cumsum(counts) - counts
    rank = np.argsort(counts, kind="stable")
    start = 0
    while start < rank.size:
        c = counts[rank[start:]]
        stop = start + max(1, int(np.searchsorted(np.arange(1, c.size + 1) * c * c,
                                                  DIAMETER_BUDGET, side="right")))
        sel = rank[start:stop]
        pos = np.arange(counts[sel[-1]])
        rows = kept[first[sel, None] + np.where(pos < counts[sel, None], pos, 0)]
        yield sel, x[sel[:, None, None], np.arange(d)[:, None], rows[:, None, :]]
        start = stop


def _pointwise_diameters(prefixes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-atom diameter of the prefix point sets: ``prefixes`` (..., m, T)
    holds m rows per leading index, the result is (..., atoms).

    The exact maximum over all pairs of rows of the ``_sq_dists`` distance,
    on real coordinates (a complex fiber as its (re, im) pairs).  Where
    ``_filtered`` says so (from ``FILTER_MIN_ROWS`` rows, while 2d < m), the
    rows first drop, per atom, those that ``_candidates`` shows cannot
    attain it.  Since a distance's bits depend on its two rows alone, the
    maximum over the kept rows is bitwise the all-pairs one.  The (leading index, atom) pairs of one dimension are
    stacked, and each stack's rows go against its candidates about
    ``DIAMETER_BUDGET`` pairs at a time.
    """
    if prefixes.dtype.kind == "c":
        prefixes, offsets = prefixes.view(np.float64), 2 * offsets
    batch, m = prefixes.shape[:-2], prefixes.shape[-2]
    flat = prefixes.reshape((-1,) + prefixes.shape[-2:])
    dims = np.diff(offsets)
    out = np.zeros((flat.shape[0], dims.size))
    active = np.logical_or.reduceat(np.any(flat != 0, axis=1), offsets[:-1], axis=1)
    for d in sorted(set(dims[np.any(active, axis=0)].tolist())):
        g, atoms = np.nonzero(active & (dims == d))
        cols = offsets[atoms, None] + np.arange(d)
        x = np.ascontiguousarray(flat[g[:, None], :, cols])
        if not _filtered(m, d):
            step = max(1, DIAMETER_BUDGET // (m * m))
            stacks = ((slice(s, s + step), x[s:s + step]) for s in range(0, atoms.size, step))
        else:
            stacks = _candidate_stacks(x)
        for sel, pts in stacks:
            width = pts.shape[2]
            slab = max(1, min(width, DIAMETER_BUDGET // width))
            best = np.zeros(pts.shape[0])
            for r in range(0, width, slab):
                np.maximum(best, _sq_dists(pts[:, :, r:r + slab], pts).max(axis=(1, 2)), out=best)
            out[g[sel], atoms[sel]] = np.sqrt(best)
    return out.reshape(batch + (dims.size,))


def _touches(rows: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray):
    """The block's nonzero values, atom by atom and in row-major order
    within one, as (function, column, atom, lead) arrays, ``lead`` marking
    the first value of each (function, atom) pair, and t >= 1, at least the
    most functions nonzero on one atom; None where the compact prefix rows
    do not run.  They run when 4(t + 1) <= m + 1 for the block's m
    functions and every coefficient is finite: the dense sweep forms NaN
    from inf * 0 and NaN * 0, products the compact rows skip.  The values
    are listed about ``PREFIX_BUDGET`` of ``rows`` at a time, and the
    listing stops once they are too many: with at most (m + 1) // 4 - 1
    functions nonzero on each atom, each column holds at most that many."""
    m, width = rows.shape
    limit = (m + 1) // 4 - 1
    if limit < 1 or not np.all(np.isfinite(coeffs)):
        return None
    atom_of = np.repeat(np.arange(offsets.size - 1, dtype=np.int32), np.diff(offsets))
    step = max(1, PREFIX_BUDGET // width)
    counts = np.zeros(offsets.size - 1, np.int64)
    functions, columns, leads = [], [], []
    size = 0
    for lo in range(0, m, step):
        f, c = np.divmod(np.flatnonzero(rows[lo:lo + step] != 0).astype(np.int32), width)
        size += f.size
        if size > limit * width:
            return None
        # a pair's values are adjacent, and stay so in the atom-major order
        x = atom_of[c]
        lead = np.ones(f.size, dtype=bool)
        np.not_equal(x[1:], x[:-1], out=lead[1:])
        lead[1:] |= f[1:] != f[:-1]
        counts += np.bincount(x[lead], minlength=counts.size)
        if counts.max() > limit:
            return None
        functions.append(f + lo)
        columns.append(c)
        leads.append(lead)
    columns = np.concatenate(columns)
    atoms = atom_of[columns]
    major = np.argsort(atoms, kind="stable")
    return (np.concatenate(functions)[major], columns[major], atoms[major],
            np.concatenate(leads)[major], max(1, int(counts.max())))


def _compact_rows(rows: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray,
                  position: np.ndarray, touches, first: int, stop: int) -> np.ndarray:
    """The compact prefix rows (P, t + 1, columns) of atoms first..stop-1:
    row j holds each atom's sum after the j-th of the block's functions
    nonzero on it, in the order of plan p (``position[p, f]`` is function
    f's place in it), and past the last of them its last sum again.  Per
    plan, a (function, atom) pair's slot is its rank in its atom's group
    after one argsort of atom * m + position; each nonzero product
    a_f phi_f(c) goes to its pair's slot (a touched fiber's zero coordinates
    add +-0, which moves no sum), and one cumsum down the rows sums them."""
    functions, columns, atoms, lead, t = touches
    i0, i1 = np.searchsorted(atoms, [first, stop])
    f, columns, atoms, lead = functions[i0:i1], columns[i0:i1], atoms[i0:i1], lead[i0:i1]
    products = coeffs[f] * rows[f, columns]
    pair = np.cumsum(lead, dtype=np.int32) - 1
    functions, atoms = f[lead], atoms[lead]
    counts = np.bincount(atoms - first, minlength=stop - first)
    # each pair's rank in its atom's group, from 1 (row 0 is the zero start)
    rank = np.arange(1, atoms.size + 1, dtype=np.int32)
    rank -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
    key = atoms * np.int64(position.shape[1])
    columns = columns - int(offsets[first])
    out = np.zeros((len(position), t + 1, offsets[stop] - offsets[first]), dtype=rows.dtype)
    slot = np.empty_like(rank)
    for p in range(len(position)):
        slot[np.argsort(key + position[p, functions])] = rank
        out[p, slot[pair], columns] = products
    return np.cumsum(out, axis=1, out=out)


def block_oscillations(system: OrthonormalSystem, coeffs, orders, k: int) -> BlockOscillation:
    """Oscillation diagnostics of block ``k`` for every rearrangement in
    ``orders`` (as ``all_orders_l2`` takes them) in one pass, in row order.

    Coefficients a_1 and a_2 are never read (the first block starts at
    index 3).  The exact per-atom diameter of the block's prefix sums:
    max - min on scalar real fibers, otherwise the largest
    direct-difference distance over the rows that can attain it
    (``_pointwise_diameters``).  The prefix rows are dense, m + 1 per atom
    from one ``_prefix_rows`` sweep of the block's m functions as a (P, m)
    batch, or compact where ``_touches`` finds at most t functions nonzero
    on any one atom with 4(t + 1) <= m + 1 and every coefficient finite:
    t + 1 per atom, its sums after each of its own functions in the plan's
    order, then its last sum again (``_compact_rows``).  Both go into the
    same max - min and diameter code with the same bits: a repeated row
    adds no pair distance or norm, and a function zero on an atom adds an
    exact +-0 there, which moves no sum (the sums start at +0 and are never
    -0).  Each order's row has the bits of a pass over that order alone.
    A dense block on scalar real fibers is swept a budget of rows at a
    time; any other goes a chunk of whole fibers (one atom at least) at a
    time, each chunk's prefix rows, diameters and one-sided sups before the
    next: about 4 * PREFIX_BUDGET dense prefix values (at 1, large-n's
    blocks ran about 25 % slower on the per-chunk overhead, 19 chunks in
    random-qr n = 640's last block), or PREFIX_BUDGET / 2 compact ones,
    whose products and slot indices take about as much again.  A column's
    sums do not depend on the other columns, so every array keeps its bits.
    ``doubled_one_sided`` is returned unjudged, NaN and infinity included;
    tandori-block judges it.
    """
    a = _coeff_array(coeffs, system)
    orders = _order_array(orders, a.size)
    blocks = tandori_blocks(a.size)
    if not 0 <= k <= blocks.k_max:
        raise ContractError(f"block {k} outside the {blocks.k_max + 1} blocks of n={a.size}")
    lo, hi = blocks.ranges[k]

    # every order holds each index of the block once, so each row keeps hi - lo + 1
    P, m = len(orders), hi - lo + 1
    src = orders[(orders >= lo - 1) & (orders < hi)].reshape(P, m) - (lo - 1)
    # rows are sliced before columns, as np.take copies a strided V whole
    rows, coeffs = system.values[lo - 1:hi], a[lo - 1:hi]
    offsets = system.fibers.offsets
    touches = _touches(rows, offsets, coeffs)
    scalar = rows.dtype.kind != "c" and np.all(system.fibers.dims == 1)
    if touches is None and scalar:
        pieces = ((0, rows.shape[1], r) for _, r in _prefix_rows(rows, coeffs, src, 0.0))
    else:
        pieces = _fiber_chunks(rows, offsets, coeffs, src, touches)
    shape = (P, offsets.size - 1)
    if scalar:
        # on a real line the diameter is max - min; |x| keeps the bits that
        # sqrt(x^2) would lose to underflow
        top, bottom = np.zeros(shape), np.zeros(shape)
        for first, stop, prefixes in pieces:
            np.maximum(top[:, first:stop], prefixes.max(axis=-2), out=top[:, first:stop])
            np.minimum(bottom[:, first:stop], prefixes.min(axis=-2), out=bottom[:, first:stop])
            del prefixes
        values = top - bottom
        doubled = 2.0 * np.maximum(top, np.abs(bottom))
    else:
        values, doubled = np.empty(shape), np.empty(shape)
        for first, stop, prefixes in pieces:
            part = offsets[first:stop + 1] - offsets[first]
            values[:, first:stop] = _pointwise_diameters(prefixes, part)
            doubled[:, first:stop] = 2.0 * np.sqrt(
                _fiber_sq_norms(prefixes[:, 1:], part).max(axis=-2))
            del prefixes

    return BlockOscillation(lo=lo, hi=hi, values=values,
                            l2=_weighted_l2(system.space.weights, values ** 2),
                            doubled_one_sided=doubled,
                            bound=8.0 * math.sqrt(block_mass(a, lo, hi)))


def _fiber_chunks(rows, offsets, coeffs, src, touches):
    """Yield ``(first, stop, prefixes)``: atoms first..stop-1 of the block
    and all their prefix rows, dense or compact as ``touches`` says."""
    P, m = src.shape
    if touches is None:
        width = 4 * PREFIX_BUDGET // (max(1, P) * (m + 1))
    else:
        width = PREFIX_BUDGET // (2 * max(1, P) * (touches[-1] + 1))
        position = np.empty(src.shape, np.int32)
        np.put_along_axis(position, src, np.arange(m), axis=1)
    first = 0
    while first < offsets.size - 1:
        stop = max(first + 1, int(np.searchsorted(offsets, offsets[first] + width,
                                                  side="right")) - 1)
        c0, c1 = offsets[first], offsets[stop]
        if touches is None:
            yield first, stop, next(_prefix_rows(rows[:, c0:c1], coeffs, src, 0.0, m))[1]
        else:
            yield first, stop, _compact_rows(rows, offsets, coeffs, position, touches,
                                             first, stop)
        first = stop


def tandori_delta(system: OrthonormalSystem, coeffs, order, k: int) -> BlockOscillation:
    """Oscillation diagnostics of block ``k`` for one rearrangement, a 0-based
    order as ``permuted_majorant`` takes it: the row of
    ``block_oscillations`` for that order alone."""
    osc = block_oscillations(system, coeffs, [order], k)
    return replace(osc, values=osc.values[0], l2=float(osc.l2[0]),
                   doubled_one_sided=osc.doubled_one_sided[0])


class AdversarialStrategy(Enum):
    GREEDY_MAX_PREFIX = "greedy-max-prefix"
    BLOCK_REVERSAL = "block-reversal"


def adversarial_permutation(system: OrthonormalSystem, coeffs, n: int,
                            strategy: AdversarialStrategy) -> np.ndarray:
    """Deterministic stress rearrangements, as 0-based orders of 0..n-1.

    GREEDY_MAX_PREFIX picks, at each step, the unused index that maximizes
    the L2 norm of the resulting running prefix, ties breaking to the
    smallest index.  On an orthonormal system (every generated one is, to
    1e-10) Parseval makes that norm the sum of |a_n|^2 over the picks, so
    each step takes the largest remaining |a_n|: the order is the stable
    decreasing-|a_n| order.  BLOCK_REVERSAL keeps the first two positions
    fixed and reverses each Tandori block.  Both strategies are functions of
    (coefficients, n) alone.
    """
    a = _coeff_array(coeffs, system)
    if not 2 <= n <= a.size:
        raise ContractError(f"adversarial permutations need 2 <= n <= {a.size}, got n={n}")
    if strategy is AdversarialStrategy.BLOCK_REVERSAL:
        order = np.arange(n)
        for lo, hi in tandori_blocks(n).ranges if n >= 3 else ():
            order[lo - 1:hi] = order[lo - 1:hi][::-1]
        return order
    return np.argsort(-np.abs(a[:n]), kind="stable")
