"""Partial sums, their pointwise majorants, and the quantities the
maximal-inequality proofs factor through.

The central object is the finite majorant of partial sums

    S_N*(x) = max_{1 <= j <= N} || sum_{n<=j} a_n phi_n(x) ||,

computed by one running-sum sweep that holds about ``PREFIX_BUDGET`` prefix
values at once, for one order or a batch of them (an independent
materializing oracle lives in ``verify``); the chaining and oscillation
diagnostics run on it too.  On top sit:

* the binary-representation decomposition of a prefix length into at most
  r+1 dyadic blocks, and the pointwise bound it yields,
* chaining diagnostics: dyadic block sums, within-block majorants, and the
  three inequalities (block-norm sum, within-block square sum, and the
  final majorant bound with constant 4),
* blocked oscillations of a rearranged series (the quantity controlled by
  the Tandori blocks), exact on every block, for a batch of rearrangements
  at once: their orders inside a block share one prefix sweep and one
  stack of per-atom diameters, each the maximum over the pairs of those
  prefixes that neither a bounding-box nor a centroid-ball bound rules out
  (bitwise the all-pairs maximum), and
* permutation plans, including two adversarial constructions that depend
  on the coefficients alone: the max-prefix greedy order, which Parseval
  makes the decreasing-|a_n| order on an orthonormal system, and the
  reversal of every Tandori block.
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
from .systems import MAX_SYSTEM_VALUES, seeded_rng

# The exact oscillation kernel forms about DIAMETER_BUDGET squared distances
# at once (512 KiB of float64).
DIAMETER_BUDGET = 1 << 16

# Blocks of fewer prefix rows than this skip the candidate filter of the
# exact oscillation kernel, whose extra small numpy calls cost more than
# the pairs they save there.  On random walks stacked as verify stacks them
# (5 plans x 64 atoms of dimension d = 1, 2, 4), the filter took 1.1-2.0x
# the all-pairs time at 17 rows, 0.65-1.24x at 25, 0.43-1.04x at 33 and
# 0.25-0.71x at 49; the stock verify config (blocks of 3, 13 and 49 rows)
# ran fastest with its 49-row blocks filtered.
FILTER_MIN_ROWS = 32

# Prefix values (whole rows of flat fiber coordinates) one sweep step forms.
PREFIX_BUDGET = 1 << 16

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _coeff_array(coeffs, system: OrthonormalSystem, n: int | None = None) -> np.ndarray:
    a = np.asarray(coeffs)
    if a.ndim != 1:
        raise StructuralError("coefficients must be one-dimensional")
    if a.dtype.kind == "c" and system.fibers.field is Field.REAL:
        raise StructuralError("complex coefficients with a real system")
    if n is None:
        n = a.size
    if n < 1 or n > len(system):
        raise ContractError(f"prefix length {n} outside [1, {len(system)}]")
    if a.size < n:
        raise StructuralError(f"need {n} coefficients, got {a.size}")
    return a.astype(system.fibers.field.dtype, copy=False)


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
                 start: np.ndarray, step: int | None = None, restarts=()):
    """Yield ``(lo, rows)`` for lo = 0, step, ...: ``rows[..., 0, :]`` is the
    sum through position lo - 1 (``start`` at lo = 0), ``rows[..., 1:, :]``
    the sums through positions lo, lo+1, ..., and the next step overwrites
    them.  The row of a position in ``restarts`` adds ``start`` instead of
    the row before it, so its bits are those of a fresh sweep from there.
    The leading axes of ``order`` (..., m) and ``start`` (..., D) index
    independent orders, which share one buffer of ``step`` rows each (by
    default about ``PREFIX_BUDGET`` values in all).  Adding row by row gives
    the bits of ``np.cumsum(axis=-2)``, which wins only on narrow rows: one
    whole step (take, scale, running sum; timeit, best of 5, one Xeon core)
    took 36 us with cumsum against the loop's 67 us at (rows, width) =
    (65, 64) and 780 against 1,130 us at (1025, 64), but 854 against 165 us
    at (65, 1024) and 722 against 249 us at (103, 640), the wide rows of the
    larger systems.  A switch on width would be a tuning constant that the
    stock and the large verify configs pull opposite ways, so the loop stays.
    """
    batch, m = order.shape[:-1], order.shape[-1]
    step = step or max(1, PREFIX_BUDGET // (math.prod(batch) * V.shape[1]))
    restarts = set(restarts)
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
        # indices come from a prefix or a validated plan; "clip" skips a copy.
        # Every order's rows run the elementwise operations of a sweep of
        # that order alone, so an order's bits do not depend on its batch.
        np.take(V, idx, axis=0, out=buf[1:s + 1], mode="clip")
        np.multiply(coeffs[idx][..., None], buf[1:s + 1], out=buf[1:s + 1])
        for i in range(1, s + 1):
            buf[i] += start if lo + i - 1 in restarts else buf[i - 1]
        yield lo, buf[:s + 1].transpose(to_rows)
        buf[0] = buf[s]


def _sweep(V: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray, order: np.ndarray,
           edges=None, restart: bool = False, first_arg: bool = False):
    """Per segment [edges[j], edges[j+1]) of positions (by default one, all
    of ``order``) and per order (the leading axes of ``order``): the per-atom
    sup (at least 0) of the squared fiber norms of the sums ``_prefix_rows``
    forms there, the first prefix length i attaining it (None unless
    ``first_arg``), and the sum at the segment's end, segment axis first.
    The sums start from zero and run on across segments, or with ``restart``
    start again at each segment's first position (an empty segment's sum is
    then zero).  Each step of the one sweep is reduced into the segments it
    overlaps."""
    batch, m = order.shape[:-1], order.shape[-1]
    edges = (0, m) if edges is None else edges
    sup_sq = np.zeros((len(edges) - 1,) + batch + (offsets.size - 1,))
    arg = (np.add.outer(np.add(edges[:-1], 1), np.zeros(sup_sq.shape[1:], np.int64))
           if first_arg else None)
    zero = np.zeros(batch + V.shape[1:], dtype=V.dtype)
    final = np.zeros((len(edges) - 1,) + zero.shape, dtype=V.dtype)
    for lo, rows in _prefix_rows(V, coeffs, order, zero, restarts=edges[:-1] if restart else ()):
        end = lo + rows.shape[-2] - 1
        sq = _fiber_sq_norms(rows[..., 1:, :], offsets)
        for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            first, stop = max(a, lo), min(b, end)
            if first < stop:
                part = sq[..., first - lo:stop - lo, :]
                peak = part.max(axis=-2)
                if first_arg:
                    upd = peak > sup_sq[j]
                    arg[j][upd] = first + 1 + part.argmax(axis=-2)[upd]
                np.maximum(sup_sq[j], peak, out=sup_sq[j])
            if lo < b <= end and not (restart and a == b):
                final[j] = rows[..., b - lo, :]
    return sup_sq, arg, final


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


def prefix_sum(system: OrthonormalSystem, coeffs, j: int) -> DirectIntegralElement:
    """The element sum_{n<=j} a_n phi_n."""
    a = _coeff_array(coeffs, system, j)
    flat = a[:j] @ system.values[:j]
    return DirectIntegralElement(values=flat, fibers=system.fibers)


class PlanProvenance(Enum):
    IDENTITY = "identity"
    EXPLICIT = "explicit"
    SEEDED_SHUFFLE = "seeded-shuffle"
    GREEDY_ADVERSARIAL = "greedy-adversarial"
    BLOCK_REVERSAL = "block-reversal"


@dataclass(frozen=True)
class PermutationPlan:
    """A bijection on {1..N}, stored as the image tuple (sigma(1), ..., sigma(N))."""

    order: tuple[int, ...]
    provenance: PlanProvenance = PlanProvenance.EXPLICIT
    seed: object = None

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ContractError("order is not a permutation of 1..N")

    def __len__(self) -> int:
        return len(self.order)

    @classmethod
    def identity(cls, n: int) -> "PermutationPlan":
        return cls(order=tuple(range(1, n + 1)), provenance=PlanProvenance.IDENTITY)

    @classmethod
    def seeded_shuffle(cls, n: int, seed) -> "PermutationPlan":
        order = tuple(int(v) + 1 for v in seeded_rng(seed).permutation(n))
        return cls(order=order, provenance=PlanProvenance.SEEDED_SHUFFLE, seed=seed)

    def describe(self) -> str:
        tag = self.provenance.value
        if self.seed is not None:
            tag += f"({self.seed})"
        return tag


def permuted_majorant(system: OrthonormalSystem, coeffs, plan: PermutationPlan,
                      n: int | None = None) -> MajorantProfile:
    """Majorant of the rearranged series sum a_{sigma(n)} phi_{sigma(n)}.

    With the identity plan this is bitwise identical to ``majorant``.
    """
    a = _coeff_array(coeffs, system, n)
    n = a.size if n is None else n
    if len(plan) != n:
        raise ContractError(f"plan permutes {len(plan)} indices, prefix length is {n}")
    sup_sq, arg, _ = _sweep(system.values, system.fibers.offsets, a,
                            np.asarray(plan.order) - 1, first_arg=True)
    return MajorantProfile(values=np.sqrt(sup_sq[0]), argmax_prefix=arg[0],
                           l2_norm=float(_weighted_l2(system.space.weights, sup_sq[0])))


def all_orders_l2(system: OrthonormalSystem, coeffs, orders) -> np.ndarray:
    """``permuted_majorant(...).l2_norm`` for every row of ``orders``, a
    (P, n) array of 0-based permutations of the first n indices, bit for bit.

    The orders run through one sweep in chunks of
    max(1, PREFIX_BUDGET // (n * D)) rows, D the flat fiber dimension, so a
    chunk's prefix buffer holds about ``PREFIX_BUDGET`` values whatever P is.
    """
    orders = np.asarray(orders)
    if orders.ndim != 2 or orders.dtype.kind not in "iu":
        raise StructuralError("orders must be a two-dimensional integer array")
    n = orders.shape[1]
    a = _coeff_array(coeffs, system, n)
    V = system.values
    offsets = system.fibers.offsets
    weights = system.space.weights
    chunk = max(1, PREFIX_BUDGET // (n * V.shape[1]))
    l2 = np.empty(orders.shape[0])
    for lo in range(0, orders.shape[0], chunk):
        block = orders[lo:lo + chunk]
        if not np.all(np.sort(block, axis=1) == np.arange(n)):
            raise ContractError(f"orders must be permutations of 0..{n - 1}")
        l2[lo:lo + chunk] = _weighted_l2(weights, _sweep(V, offsets, a, block)[0][0])
    return l2


def majorant(system: OrthonormalSystem, coeffs, n: int | None = None) -> MajorantProfile:
    """Streaming majorant over the first ``n`` prefixes (default: all coefficients)."""
    a = _coeff_array(coeffs, system, n)
    n = a.size if n is None else n
    return permuted_majorant(system, a, PermutationPlan.identity(n), n)


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

    ``h`` is a sequence of j vectors in one fiber (scalars allowed).  The
    vectors are zero-padded to length 2^r, and the return value is

        lhs = || sum_{n<=j} h_n ||^2,
        rhs = (r+1) * sum_{k=0}^{r} sum_{p=0}^{2^k - 1}
                  || sum over the p-th length-2^(r-k) block ||^2.

    Callers assert lhs <= rhs.
    """
    if r < 0:
        raise ContractError("r must be >= 0")
    arr = np.atleast_2d(np.asarray(h))
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


def complete_block_length(n: int) -> int:
    """The least length 2^(K+1) - 1 >= n that ends on a complete dyadic block."""
    return (1 << n.bit_length()) - 1


def complete_block_form(n: int) -> int:
    """The exponent K with n = 2^(K+1) - 1, or raise with padding advice."""
    if n < 1 or complete_block_length(n) != n:
        raise ContractError(
            f"n={n} does not end on a complete dyadic block; zero-pad the "
            f"coefficients to n={complete_block_length(max(n, 1))}"
        )
    return (n + 1).bit_length() - 2


@dataclass(frozen=True)
class ChainingDiagnostics:
    """Everything the dyadic chaining argument measures for one prefix range.

    Block k covers indices [2^k, 2^(k+1) - 1].  ``block_norms`` are the L2
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


def chaining_diagnostics(system: OrthonormalSystem, coeffs, n: int) -> ChainingDiagnostics:
    """Two ``_sweep`` passes over positions 0..min(n, N) - 1 (N the system
    length, coefficients past it zero), cut at the block starts 2^k - 1: a
    running one gives each block's sup and the running sum at its end, one
    restarted at each block start the within-block sups and block sums."""
    K = complete_block_form(n)
    n_sys = len(system)
    a = _coeff_array(coeffs, system, min(n, n_sys))
    if a.size < n:
        raise StructuralError(f"need {n} coefficients, got {a.size}")
    if n > n_sys and np.any(a[n_sys:n] != 0):
        # padding to a complete dyadic block must not invent new terms
        raise ContractError(
            f"coefficients beyond the system length {n_sys} must be zero")
    V = system.values
    offsets = system.fibers.offsets
    weights = system.space.weights

    order = np.arange(min(n, n_sys))
    edges = [min((1 << k) - 1, order.size) for k in range(K + 2)]
    sup_sq, _, running = _sweep(V, offsets, a, order, edges)
    inner_sq, _, inner = _sweep(V, offsets, a, order, edges, restart=True)
    dyad_sq = _fiber_sq_norms(running, offsets).max(axis=0, initial=0.0)
    block_norms = _weighted_l2(weights, _fiber_sq_norms(inner, offsets))
    block_coeff_sq = np.array([compensated_sum(np.abs(a[(1 << k) - 1:(2 << k) - 1]) ** 2)
                               for k in range(K + 1)])
    inner_sup_norms = _weighted_l2(weights, inner_sq)

    weyl_mass = compensated_sum(weyl_terms(a[:n]))
    block_norm_sum = compensated_sum(block_norms)
    inner_sq_sum = compensated_sum(inner_sup_norms ** 2)
    return ChainingDiagnostics(
        n=n, k_max=K,
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
    on real coordinates (a complex fiber as its (re, im) pairs).  Blocks of
    at least ``FILTER_MIN_ROWS`` rows first drop, per atom, the rows that
    ``_candidates`` shows cannot attain it.  Since a distance's bits depend
    on its two rows alone, the maximum over the kept rows is bitwise the
    all-pairs one.  The (leading index, atom) pairs of one dimension are
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
        if m < FILTER_MIN_ROWS:
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


def block_oscillations(system: OrthonormalSystem, coeffs, plans, k: int,
                       n: int | None = None) -> BlockOscillation:
    """Oscillation diagnostics of block ``k`` for every rearrangement in
    ``plans`` in one pass, their arrays in plan order.

    Coefficients a_1 and a_2 are treated as zero (the usual normalization;
    the first block starts at index 3).  The exact per-atom diameter of the
    block's prefix sums: max - min on scalar real fibers, otherwise the
    largest direct-difference distance over the rows that can attain it
    (``_pointwise_diameters``).  The P plans' orders inside the block run
    through one ``_prefix_rows`` sweep as a (P, m) batch, and their
    (plan, atom) pairs through one diameter stack; each plan's row has the
    bits of a pass over that plan alone.  ``doubled_one_sided`` is returned
    unjudged, NaN and infinity included; tandori-block judges it.
    """
    a = _coeff_array(coeffs, system, n).copy()
    n = a.size if n is None else n
    for plan in plans:
        if len(plan) != n:
            raise ContractError(f"plan permutes {len(plan)} indices, prefix length is {n}")
    a[:min(2, n)] = 0
    blocks = tandori_blocks(n)
    if not 0 <= k <= blocks.k_max:
        raise ContractError(f"block {k} outside the {blocks.k_max + 1} blocks of n={n}")
    lo, hi = blocks.ranges[k]

    orders = np.array([plan.order for plan in plans])
    # every plan holds each index of the block once, so each row keeps hi - lo + 1
    src = orders[(orders >= lo) & (orders <= hi)].reshape(len(plans), -1) - 1

    V = system.values
    offsets = system.fibers.offsets
    zero = np.zeros((len(plans), V.shape[1]), dtype=V.dtype)
    if V.dtype.kind != "c" and np.all(system.fibers.dims == 1):
        # on a real line the diameter is max - min, taken a budget of rows at
        # a time; |x| keeps the bits that sqrt(x^2) would lose to underflow
        top, bottom = zero.copy(), zero.copy()
        for _, rows in _prefix_rows(V, a, src, zero):
            np.maximum(top, rows.max(axis=-2), out=top)
            np.minimum(bottom, rows.min(axis=-2), out=bottom)
        values = top - bottom
        doubled = 2.0 * np.maximum(top, np.abs(bottom))
    else:
        _, prefixes = next(_prefix_rows(V, a, src, zero, src.shape[1]))
        values = _pointwise_diameters(prefixes, offsets)
        doubled = 2.0 * np.sqrt(_fiber_sq_norms(prefixes[:, 1:], offsets).max(axis=-2))

    return BlockOscillation(lo=lo, hi=hi, values=values,
                            l2=_weighted_l2(system.space.weights, values ** 2),
                            doubled_one_sided=doubled,
                            bound=8.0 * math.sqrt(block_mass(a, lo, hi)))


def tandori_delta(system: OrthonormalSystem, coeffs, plan: PermutationPlan,
                  k: int, n: int | None = None) -> BlockOscillation:
    """Oscillation diagnostics of block ``k`` for one rearrangement: the
    row of ``block_oscillations`` for that plan alone."""
    osc = block_oscillations(system, coeffs, [plan], k, n)
    return replace(osc, values=osc.values[0], l2=float(osc.l2[0]),
                   doubled_one_sided=osc.doubled_one_sided[0])


class AdversarialStrategy(Enum):
    GREEDY_MAX_PREFIX = "greedy-max-prefix"
    BLOCK_REVERSAL = "block-reversal"


def adversarial_permutation(system: OrthonormalSystem, coeffs, n: int,
                            strategy: AdversarialStrategy) -> PermutationPlan:
    """Deterministic stress rearrangements.

    GREEDY_MAX_PREFIX picks, at each step, the unused index that maximizes
    the L2 norm of the resulting running prefix, ties breaking to the
    smallest index.  On an orthonormal system (every generated one is, to
    1e-10) Parseval makes that norm the sum of |a_n|^2 over the picks, so
    each step takes the largest remaining |a_n|: the plan is the stable
    decreasing-|a_n| order.  BLOCK_REVERSAL keeps indices 1, 2 fixed and
    reverses each Tandori block.  Both strategies are functions of
    (coefficients, n) alone.
    """
    if n < 2:
        raise ContractError("adversarial permutations need n >= 2")
    a = _coeff_array(coeffs, system, n)
    if strategy is AdversarialStrategy.BLOCK_REVERSAL:
        order = list(range(1, n + 1))
        if n >= 3:
            for lo, hi in tandori_blocks(n).ranges:
                order[lo - 1:hi] = order[lo - 1:hi][::-1]
        return PermutationPlan(order=tuple(order), provenance=PlanProvenance.BLOCK_REVERSAL)

    order = np.argsort(-np.abs(a[:n]), kind="stable") + 1
    return PermutationPlan(order=tuple(order.tolist()),
                           provenance=PlanProvenance.GREEDY_ADVERSARIAL)
