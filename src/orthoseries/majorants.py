"""Partial sums, their pointwise majorants, and the quantities the
maximal-inequality proofs factor through.

The central object is the finite majorant of partial sums

    S_N*(x) = max_{1 <= j <= N} || sum_{n<=j} a_n phi_n(x) ||,

computed by a single streaming pass that never materializes all N prefix
elements (an independent materializing oracle lives in ``verify``).  On
top of it sit:

* the binary-representation decomposition of a prefix length into at most
  r+1 dyadic blocks, and the pointwise bound it yields,
* chaining diagnostics: dyadic block sums, within-block majorants, and the
  three inequalities (block-norm sum, within-block square sum, and the
  final majorant bound with constant 4),
* blocked oscillations of a rearranged series (the quantity controlled by
  the Tandori blocks), and
* permutation plans, including two adversarial constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .coefficients import tandori_blocks
from .direct_integral import DirectIntegralElement, Field, OrthonormalSystem
from .errors import ContractError, StructuralError
from .summation import compensated_sum
from .systems import seeded_rng

# Widest block for which rearranged oscillations are computed by the exact
# all-pairs supremum; wider blocks fall back to the doubled one-sided
# estimate the proof itself uses.
EXACT_OSCILLATION_LIMIT = 4096


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
    mag = flat.real ** 2 + flat.imag ** 2 if flat.dtype.kind == "c" else flat ** 2
    return np.add.reduceat(mag, offsets[:-1])


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
    return DirectIntegralElement(values=flat, offsets=system.fibers.offsets)


def _stream_profile(system: OrthonormalSystem, coeffs: np.ndarray,
                    order: Sequence[int]) -> MajorantProfile:
    V = system.values
    offsets = system.fibers.offsets
    running = np.zeros(V.shape[1], dtype=V.dtype)
    best = None
    arg = None
    for pos, idx in enumerate(order):
        running += coeffs[idx] * V[idx]
        sq = _fiber_sq_norms(running, offsets)
        if best is None:
            best = sq
            arg = np.ones(sq.size, dtype=np.int64)
        else:
            upd = sq > best
            best[upd] = sq[upd]
            arg[upd] = pos + 1
    l2 = math.sqrt(max(float(np.sum(system.space.weights * best)), 0.0))
    return MajorantProfile(values=np.sqrt(best), argmax_prefix=arg, l2_norm=l2)


def majorant(system: OrthonormalSystem, coeffs, n: int | None = None) -> MajorantProfile:
    """Streaming majorant over the first ``n`` prefixes (default: all coefficients)."""
    a = _coeff_array(coeffs, system, n)
    n = a.size if n is None else n
    return _stream_profile(system, a, range(n))


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
    return _stream_profile(system, a, [s - 1 for s in plan.order])


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
    if r < 0:
        raise ContractError("r must be >= 0")
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

    running = np.zeros(V.shape[1], dtype=V.dtype)
    best_sq = np.zeros(weights.size)
    dyad_sq = np.zeros(weights.size)
    block_norms = np.empty(K + 1)
    block_coeff_sq = np.empty(K + 1)
    inner_sup_norms = np.empty(K + 1)

    def l2_of_sq(sq: np.ndarray) -> float:
        return math.sqrt(max(float(np.sum(weights * sq)), 0.0))

    for k in range(K + 1):
        lo, hi = 1 << k, (1 << (k + 1)) - 1
        inner = np.zeros_like(running)
        inner_sq = np.zeros(weights.size)
        for j in range(lo, min(hi, n_sys) + 1):
            # prefixes past n_sys repeat the last one (their terms are zero)
            term = a[j - 1] * V[j - 1]
            running += term
            inner += term
            np.maximum(best_sq, _fiber_sq_norms(running, offsets), out=best_sq)
            np.maximum(inner_sq, _fiber_sq_norms(inner, offsets), out=inner_sq)
        np.maximum(dyad_sq, _fiber_sq_norms(running, offsets), out=dyad_sq)
        block_norms[k] = l2_of_sq(_fiber_sq_norms(inner, offsets))
        block_coeff_sq[k] = compensated_sum(np.abs(a[lo - 1:hi]) ** 2)
        inner_sup_norms[k] = l2_of_sq(inner_sq)

    idx = np.arange(1, n + 1, dtype=float)
    weyl_mass = compensated_sum(np.abs(a) ** 2 * np.log2(idx + 1.0) ** 2)
    block_norm_sum = compensated_sum(block_norms)
    inner_sq_sum = compensated_sum(inner_sup_norms ** 2)
    return ChainingDiagnostics(
        n=n, k_max=K,
        block_norms=block_norms, block_coeff_sq=block_coeff_sq,
        inner_sup_norms=inner_sup_norms,
        dyadic_sup_l2=l2_of_sq(dyad_sq),
        majorant_l2=l2_of_sq(best_sq),
        weyl_mass=weyl_mass,
        block_norm_sum=block_norm_sum,
        block_norm_sum_bound=2.0 * math.sqrt(weyl_mass),
        inner_sq_sum=inner_sq_sum,
        inner_sq_bound=4.0 * weyl_mass,
        majorant_bound=4.0 * math.sqrt(weyl_mass),
    )


@dataclass(frozen=True)
class BlockOscillation:
    """Oscillation of one Tandori block of a rearranged series.

    ``values[i]`` is, at atom i, the supremum over segment sums (restricted
    to indices of this block, in rearranged order) of the fiber norm;
    ``doubled_one_sided`` is twice the one-sided prefix supremum, the
    estimate the proof uses; ``bound`` is
    8 * sqrt(sum_{n in block} |a_n|^2 log2^2 n).  ``mode`` records whether
    the exact all-pairs supremum ran or the doubled estimate stands in.
    """

    block_index: int
    lo: int
    hi: int
    indicator_count: int
    values: np.ndarray
    l2: float
    doubled_one_sided: np.ndarray
    bound: float
    mode: str


def _pointwise_diameters(prefixes: np.ndarray, offsets: np.ndarray,
                         chunk: int = 256) -> np.ndarray:
    """Per-atom diameter of the prefix point sets (rows of ``prefixes``)."""
    m1, total = prefixes.shape
    n_atoms = offsets.size - 1
    out = np.zeros(n_atoms)
    active_coord = np.any(prefixes != 0, axis=0)
    for i in range(n_atoms):
        seg = slice(offsets[i], offsets[i + 1])
        if not np.any(active_coord[seg]):
            continue
        pts = prefixes[:, seg]
        sq = np.real(np.sum(pts * np.conj(pts), axis=1))
        best = 0.0
        for start in range(0, m1, chunk):
            block = pts[start:start + chunk]
            cross = np.real(block @ np.conj(pts).T)
            d2 = sq[start:start + chunk, None] + sq[None, :] - 2.0 * cross
            best = max(best, float(d2.max()))
        out[i] = math.sqrt(max(best, 0.0))
    return out


def tandori_delta(system: OrthonormalSystem, coeffs, plan: PermutationPlan,
                  k: int, n: int | None = None) -> BlockOscillation:
    """Oscillation diagnostics of block ``k`` for one rearrangement.

    Coefficients a_1 and a_2 are treated as zero (the usual normalization;
    the first block starts at index 3).  Blocks wider than
    ``EXACT_OSCILLATION_LIMIT`` use the doubled one-sided estimate.
    """
    a = _coeff_array(coeffs, system, n).copy()
    n = a.size if n is None else n
    if len(plan) != n:
        raise ContractError(f"plan permutes {len(plan)} indices, prefix length is {n}")
    a[:min(2, n)] = 0
    blocks = tandori_blocks(n)
    if not 0 <= k <= blocks.k_max:
        raise ContractError(f"block {k} outside the {blocks.k_max + 1} blocks of n={n}")
    lo, hi = blocks.ranges[k]

    positions = [p for p in range(n) if lo <= plan.order[p] <= hi]
    count = len(positions)

    idx = np.arange(lo, hi + 1, dtype=float)
    mass = compensated_sum(np.abs(a[lo - 1:hi]) ** 2 * np.log2(idx) ** 2)
    bound = 8.0 * math.sqrt(mass)

    weights = system.space.weights
    n_atoms = weights.size
    if count == 0:
        zeros = np.zeros(n_atoms)
        return BlockOscillation(block_index=k, lo=lo, hi=hi, indicator_count=0,
                                values=zeros, l2=0.0, doubled_one_sided=zeros.copy(),
                                bound=bound, mode="exact")

    V = system.values
    offsets = system.fibers.offsets
    width = hi - lo + 1
    exact = width <= EXACT_OSCILLATION_LIMIT
    scalar_real = bool(np.all(system.fibers.dims == 1)) and V.dtype.kind != "c"

    if exact and scalar_real:
        running = np.zeros(n_atoms)
        hi_env = np.zeros(n_atoms)
        lo_env = np.zeros(n_atoms)
        one_sided = np.zeros(n_atoms)
        for p in positions:
            src = plan.order[p] - 1
            running = running + a[src].real * V[src]
            np.maximum(hi_env, running, out=hi_env)
            np.minimum(lo_env, running, out=lo_env)
            np.maximum(one_sided, np.abs(running), out=one_sided)
        values = hi_env - lo_env
        doubled = 2.0 * one_sided
        mode = "exact"
    elif exact:
        prefixes = np.zeros((count + 1, V.shape[1]), dtype=V.dtype)
        for row, p in enumerate(positions, start=1):
            src = plan.order[p] - 1
            prefixes[row] = prefixes[row - 1] + a[src] * V[src]
        values = _pointwise_diameters(prefixes, offsets)
        sup_sq = np.zeros(n_atoms)
        for row in range(1, count + 1):
            np.maximum(sup_sq, _fiber_sq_norms(prefixes[row], offsets), out=sup_sq)
        doubled = 2.0 * np.sqrt(sup_sq)
        mode = "exact"
    else:
        running = np.zeros(V.shape[1], dtype=V.dtype)
        sup_sq = np.zeros(n_atoms)
        for p in positions:
            src = plan.order[p] - 1
            running += a[src] * V[src]
            np.maximum(sup_sq, _fiber_sq_norms(running, offsets), out=sup_sq)
        doubled = 2.0 * np.sqrt(sup_sq)
        values = doubled
        mode = "doubled-one-sided"

    # NaN fails this comparison too, so it raises as well
    if mode == "exact" and not np.all(values <= doubled + 1e-12 * np.maximum(doubled, 1.0)):
        raise RuntimeError("oscillation exceeded its doubled one-sided bound")

    l2 = math.sqrt(max(float(np.sum(weights * values ** 2)), 0.0))
    return BlockOscillation(block_index=k, lo=lo, hi=hi, indicator_count=count,
                            values=values, l2=l2, doubled_one_sided=doubled,
                            bound=bound, mode=mode)


class AdversarialStrategy(Enum):
    GREEDY_MAX_PREFIX = "greedy-max-prefix"
    BLOCK_REVERSAL = "block-reversal"


def adversarial_permutation(system: OrthonormalSystem, coeffs, n: int,
                            strategy: AdversarialStrategy,
                            seed=None) -> PermutationPlan:
    """Deterministic stress rearrangements.

    GREEDY_MAX_PREFIX picks, at each step, the unused index that maximizes
    the L2 norm of the resulting running prefix (ties break to the
    smallest index).  BLOCK_REVERSAL keeps indices 1, 2 fixed and reverses
    each Tandori block.  ``seed`` is recorded but unused; both strategies
    are functions of (system, coefficients, n) alone.
    """
    if n < 2:
        raise ContractError("adversarial permutations need n >= 2")
    a = _coeff_array(coeffs, system, n)
    if strategy is AdversarialStrategy.BLOCK_REVERSAL:
        order = list(range(1, n + 1))
        if n >= 3:
            for lo, hi in tandori_blocks(n).ranges:
                order[lo - 1:hi] = order[lo - 1:hi][::-1]
        return PermutationPlan(order=tuple(order),
                               provenance=PlanProvenance.BLOCK_REVERSAL, seed=seed)

    V = system.values[:n]
    Vc = np.conj(V) if V.dtype.kind == "c" else V
    w = system.expanded_weights
    fn_sq = np.real(np.sum(w * np.abs(V) ** 2, axis=1))
    mask = np.ones(n, dtype=bool)
    v = np.zeros(V.shape[1], dtype=V.dtype)
    v_sq = 0.0
    order = []
    for _ in range(n):
        ips = (w * v) @ Vc.T
        scores = v_sq + 2.0 * np.real(np.conj(a[:n]) * ips) + np.abs(a[:n]) ** 2 * fn_sq
        scores[~mask] = -np.inf
        pick = int(np.argmax(scores))
        mask[pick] = False
        order.append(pick + 1)
        v = v + a[pick] * V[pick]
        v_sq = float(np.real(np.sum(w * np.abs(v) ** 2)))
    return PermutationPlan(order=tuple(order),
                           provenance=PlanProvenance.GREEDY_ADVERSARIAL, seed=seed)
