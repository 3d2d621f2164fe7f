"""Coefficient and weight sequences and their convergence conditions.

Four summability conditions drive everything downstream:

* the Menshov-Rademacher condition  sum |a_n|^2 log2^2(n+1)  (from n = 1),
* the Tandori blocked condition     sum_k (sum_{n in M_k} |a_n|^2 log2^2 n)^(1/2),
  with blocks M_k = {nu_k + 1, ..., nu_{k+1}} and thresholds nu_k = 2^(2^k),
* the Orlicz pair                   sum_{n>=2} |a_n|^2 (log2^2 n) w_n  and
                                    sum_{n>=2} 1 / (n (log2 n) w_n),
* the condensation chain that relates the last series to
  sum 1/(n w_{2^n}) and  c = sum 1/w_{nu_n}.

The blocked condition excludes n = 1, 2 (log2(1) = 0 and the first block
starts at 3 after the usual a_1 = a_2 = 0 normalization); the
Menshov-Rademacher sum uses log2(n+1) and starts at n = 1.

Convergence classification is analytic only: power-log coefficient
families and log-power weight families are classified by Bertrand-style
exponent rules; explicit (finite) sequences always report
``UNKNOWN_FROM_TRUNCATION`` together with their partial sums, since no
finite prefix decides an infinite series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError
from .summation import compensated_cumsum, compensated_sum
from .systems import MAX_SYSTEM_VALUES

# The condition sums take about 50 bytes per term at peak (check-orlicz:
# 227.0 MiB at 2^22 terms, 423.1 MiB at 2^23), so a truncation is held to
# the same 2^24 limit as the values of a generated system.
MAX_TRUNCATION = MAX_SYSTEM_VALUES


class Classification(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNKNOWN_FROM_TRUNCATION = "unknown-from-truncation"


class ConditionId(Enum):
    MR_WEYL = "mr-weyl"
    TANDORI_BLOCKED = "tandori-blocked"
    ORLICZ_COEFF = "orlicz-coeff"
    ORLICZ_WEIGHT = "orlicz-weight"
    CONDENSED_POW2 = "condensed-pow2"
    CONDENSED_DOUBLE_EXP = "condensed-double-exp"


@dataclass(frozen=True)
class SequenceSpec:
    """A coefficient sequence: an explicit finite list or a power-log family.

    The power-log family is a_n = scale * n^(-alpha) * log2(n+1)^(-beta).
    Explicit lists are treated as finitely supported sequences (zero beyond
    their length), but are never classified as convergent; see the module
    note on analytic-only classification.
    """

    explicit: tuple | None = None
    scale: float | None = None
    alpha: float | None = None
    beta: float | None = None

    @classmethod
    def from_values(cls, values) -> "SequenceSpec":
        return cls(explicit=_explicit(values, "sequence", "a"))

    @classmethod
    def power_log(cls, scale: float, alpha: float, beta: float) -> "SequenceSpec":
        if scale < 0:
            raise ContractError("power-log scale must be >= 0 (conditions use |a_n|)")
        return cls(scale=scale, alpha=alpha, beta=beta)

    @property
    def is_explicit(self) -> bool:
        return self.explicit is not None

    def coefficients(self, truncation: int) -> np.ndarray:
        """a_1 .. a_truncation (explicit lists zero-padded)."""
        _check_truncation(truncation, 1)
        if self.is_explicit:
            vals = np.asarray(self.explicit)
            out = np.zeros(truncation, dtype=vals.dtype if vals.dtype.kind == "c" else float)
            m = min(truncation, vals.size)
            out[:m] = vals[:m]
            return out
        n = np.arange(1, truncation + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self.scale * n ** (-self.alpha) * np.log2(n + 1.0) ** (-self.beta),
                           self)

    def describe(self) -> str:
        if self.is_explicit:
            return f"explicit[{len(self.explicit)}]"
        return f"power-log c={self.scale} alpha={self.alpha} beta={self.beta}"


@dataclass(frozen=True)
class WeightSpec:
    """A nondecreasing positive weight sequence.

    The log-power family is w_n = max(b_n^gamma, w_1) with
    b_n = max(log2(n + shift), 1).  The inner clamp keeps the base away
    from log(1) = 0, the outer clamp keeps the sequence nondecreasing even
    for gamma < 0 (where it degenerates to the constant w_1).  With
    shift = 0 and gamma = 2 this is exactly max(1, log2 n)^2.  ``values``
    and ``value_at`` run the same numpy operations, so they agree bit for
    bit at every n below 2^1024.
    """

    explicit: tuple | None = None
    gamma: float | None = None
    shift: float = 0.0

    @classmethod
    def from_values(cls, values) -> "WeightSpec":
        values = _explicit((float(v) for v in values), "weights", "w")
        if values[0] <= 0:
            raise ContractError("weights must be positive")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ContractError("explicit weights must be nondecreasing")
        return cls(explicit=values)

    @classmethod
    def log_power(cls, gamma: float, shift: float = 0.0) -> "WeightSpec":
        if shift < 0:
            raise ContractError("shift must be >= 0")
        return cls(gamma=gamma, shift=shift)

    @property
    def is_explicit(self) -> bool:
        return self.explicit is not None

    def value_at(self, n: int) -> float:
        """w_n for a single (possibly astronomically large) integer index:
        ``values(T)[n - 1]`` bit for bit wherever float(n) is finite."""
        if n < 1:
            raise ContractError("weight index must be >= 1")
        if self.is_explicit:
            if n > len(self.explicit):
                raise ContractError(
                    f"explicit weight of length {len(self.explicit)} has no index {n}"
                )
            return self.explicit[n - 1]
        try:
            logs = np.log2(np.array([1.0, float(n)]) + self.shift)
        except OverflowError:
            # n >= 2^1024: log2 of the exact integer; the fraction of shift
            # moves log2 n by under 2^-1000, far below an ulp of log2 n >= 1024
            logs = np.append(np.log2(np.array([1.0]) + self.shift),
                             math.log2(n + int(self.shift)))
        return float(self._log_power(logs)[-1])

    def _log_power(self, logs: np.ndarray) -> np.ndarray:
        """max(b^gamma, w_1) with b = max(logs, 1), for logs = log2(n + shift)
        at n = 1, ...; the floor w_1 is the first entry's power.  A power that
        overflows is a ContractError."""
        with np.errstate(over="ignore"):
            powers = _finite(np.maximum(logs, 1.0) ** self.gamma, self)
        return np.maximum(powers, powers[0])

    def values(self, truncation: int) -> np.ndarray:
        """w_1 .. w_truncation."""
        _check_truncation(truncation, 1)
        if self.is_explicit:
            if truncation > len(self.explicit):
                raise ContractError(
                    f"explicit weight of length {len(self.explicit)} cannot cover truncation {truncation}"
                )
            return np.asarray(self.explicit[:truncation], dtype=float)
        return self._log_power(np.log2(np.arange(1, truncation + 1, dtype=float) + self.shift))

    def describe(self) -> str:
        if self.is_explicit:
            return f"explicit[{len(self.explicit)}]"
        return f"log-power gamma={self.gamma} shift={self.shift}"


@dataclass(frozen=True)
class TandoriBlocks:
    """Double-exponential thresholds and the index blocks they cut.

    ``nu`` holds the thresholds 2, 4, 16, 256, ... that do not exceed the
    truncation; block k is the inclusive index range
    (nu_k, min(nu_{k+1}, truncation)].  The last block is flagged partial
    when the truncation cuts it short.
    """

    truncation: int
    nu: tuple[int, ...]
    ranges: tuple[tuple[int, int], ...]

    @property
    def k_max(self) -> int:
        return len(self.ranges) - 1

    @property
    def partial_last(self) -> bool:
        k = self.k_max
        return self.ranges[k][1] < self.nu[k] * self.nu[k]


@dataclass(frozen=True)
class ConditionReport:
    """Running partial sums of one condition plus its analytic classification."""

    condition_id: ConditionId
    partial_sums: np.ndarray
    classification: Classification
    truncation_length: int

    def __post_init__(self):
        # a running sum that reached inf or NaN stays there, so the total tells
        if not math.isfinite(self.total):
            raise ContractError(f"{self.condition_id.value}: the partial sums overflow float64")

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if len(self.partial_sums) else 0.0


def _explicit(values, what: str, symbol: str) -> tuple:
    """``values`` as a nonempty tuple of finite numbers, else a ContractError."""
    values = tuple(values)
    if not values:
        raise ContractError(f"explicit {what} must be nonempty")
    if (bad := np.flatnonzero(~np.isfinite(np.asarray(values)))).size:
        raise ContractError(f"explicit {what} must be finite (not at {symbol}_{bad[0] + 1})")
    return values


def _finite(values, spec):
    """``values`` unchanged when all finite, else a ContractError naming ``spec``."""
    if not np.all(np.isfinite(values)):
        raise ContractError(f"{spec.describe()}: a value overflows float64")
    return values


def _check_truncation(truncation: int, minimum: int) -> None:
    if truncation < minimum:
        raise ContractError(f"truncation must be >= {minimum}")
    if truncation > MAX_TRUNCATION:
        raise ContractError(f"truncation {truncation} over the limit of {MAX_TRUNCATION} terms")


def _bertrand(p: float, q: float) -> Classification:
    """sum n^-p (log n)^-q: converges iff p > 1, or p = 1 and q > 1."""
    if p > 1 or (p == 1 and q > 1):
        return Classification.CONVERGES
    return Classification.DIVERGES


def weyl_terms(coeffs: np.ndarray) -> np.ndarray:
    """The Menshov-Rademacher terms |a_n|^2 log2^2(n+1) of a_1, a_2, ..."""
    n = np.arange(1, len(coeffs) + 1, dtype=float)
    return np.abs(coeffs) ** 2 * np.log2(n + 1.0) ** 2


def weyl_sum(a: SequenceSpec, truncation: int) -> ConditionReport:
    """Partial sums of sum_n |a_n|^2 log2^2(n+1) from n = 1."""
    _check_truncation(truncation, 1)
    partials = compensated_cumsum(weyl_terms(a.coefficients(truncation)))
    if a.is_explicit:
        cls = Classification.UNKNOWN_FROM_TRUNCATION
    elif a.scale == 0:
        cls = Classification.CONVERGES
    else:
        cls = _bertrand(2 * a.alpha, 2 * a.beta - 2)
    return ConditionReport(ConditionId.MR_WEYL, partials, cls, truncation)


def tandori_blocks(truncation: int) -> TandoriBlocks:
    """Thresholds nu_k = 2^(2^k) capped at the truncation, and their blocks."""
    _check_truncation(truncation, 3)
    nu = [2]
    while nu[-1] * nu[-1] <= truncation:
        nu.append(nu[-1] * nu[-1])
    ranges = []
    for k, lo_threshold in enumerate(nu):
        lo = lo_threshold + 1
        if lo > truncation:
            break
        hi = min(lo_threshold * lo_threshold, truncation)
        ranges.append((lo, hi))
    return TandoriBlocks(truncation=truncation, nu=tuple(nu), ranges=tuple(ranges))


def block_mass(coeffs: np.ndarray, lo: int, hi: int) -> float:
    """sum_{n=lo}^{hi} |a_n|^2 log2^2 n, for the coefficients a_1, a_2, ..."""
    n = np.arange(lo, hi + 1, dtype=float)
    return compensated_sum(np.abs(coeffs[lo - 1:hi]) ** 2 * np.log2(n) ** 2)


def block_masses(a: SequenceSpec, blocks: TandoriBlocks) -> np.ndarray:
    """A_k = sum_{n in block k} |a_n|^2 log2^2 n for each block."""
    coeffs = a.coefficients(blocks.truncation)
    return np.array([block_mass(coeffs, lo, hi) for lo, hi in blocks.ranges])


def _tandori_classification(a: SequenceSpec) -> Classification:
    if a.is_explicit:
        return Classification.UNKNOWN_FROM_TRUNCATION
    if a.scale == 0 or a.alpha > 0.5:
        return Classification.CONVERGES
    if a.alpha == 0.5 and a.beta > 1.5:
        # a weight w_n = (log2 n)^g with 0 < g < 2*beta - 3 satisfies both
        # Orlicz conditions, so the blocked sum converges by the reduction
        return Classification.CONVERGES
    # block masses A_k stay bounded away from zero, so sqrt(A_k) cannot sum
    return Classification.DIVERGES


def tandori_sum(a: SequenceSpec, truncation: int) -> ConditionReport:
    """Partial sums over k of sqrt(A_k); indices n = 1, 2 are excluded."""
    blocks = tandori_blocks(truncation)
    masses = block_masses(a, blocks)
    partials = compensated_cumsum(np.sqrt(masses))
    return ConditionReport(ConditionId.TANDORI_BLOCKED, partials,
                           _tandori_classification(a), truncation)


def _orlicz_pass(a: SequenceSpec, w: WeightSpec, truncation: int) -> tuple:
    """From one draw of a_1..a_T and w_1..w_T: the n >= 2 terms
    |a_n|^2 log2^2 n and |a_n|^2 (log2^2 n) w_n, then the Orlicz pair's
    coefficient report and weight report."""
    _check_truncation(truncation, 2)
    # each n-length array is formed in place: the operations and their order
    # are those of |a_n|**2 * log2(n)**2 and 1 / (n * log2(n) * w_n)
    n = np.arange(2, truncation + 1, dtype=float)
    logs = np.log2(n)
    mass_terms = np.abs(a.coefficients(truncation)[1:])
    np.square(mass_terms, out=mass_terms)
    n *= logs
    mass_terms *= np.square(logs, out=logs)
    del logs
    weights = w.values(truncation)
    bad = np.flatnonzero(~(weights > 0) | (np.diff(weights, prepend=weights[0]) < 0))
    if bad.size:
        raise ContractError(f"weights must be positive and nondecreasing (not at w_{bad[0] + 1})")
    coeff_terms = mass_terms * weights[1:]
    n *= weights[1:]
    del weights
    weight_terms = np.divide(1.0, n, out=n)

    if w.is_explicit:
        weight_cls = Classification.UNKNOWN_FROM_TRUNCATION
    else:
        weight_cls = Classification.CONVERGES if w.gamma > 0 else Classification.DIVERGES

    if a.is_explicit or w.is_explicit:
        coeff_cls = Classification.UNKNOWN_FROM_TRUNCATION
    elif a.scale == 0:
        coeff_cls = Classification.CONVERGES
    else:
        # termwise ~ n^(-2 alpha) (log n)^(2 - 2 beta + max(gamma, 0))
        coeff_cls = _bertrand(2 * a.alpha, 2 * a.beta - 2 - max(w.gamma, 0.0))

    return (mass_terms, coeff_terms,
            ConditionReport(ConditionId.ORLICZ_COEFF, compensated_cumsum(coeff_terms),
                            coeff_cls, truncation),
            ConditionReport(ConditionId.ORLICZ_WEIGHT, compensated_cumsum(weight_terms),
                            weight_cls, truncation))


def orlicz_conditions(a: SequenceSpec, w: WeightSpec,
                      truncation: int) -> tuple[ConditionReport, ConditionReport]:
    """The weighted coefficient condition and the weight growth condition.

    Both sums start at n = 2; truncation must be >= 2, and the weights
    positive and nondecreasing.  Returns (coefficient report, weight
    report), the pair ``orlicz_reduction`` also reports.
    """
    return _orlicz_pass(a, w, truncation)[2:]


def condensation_chain(w: WeightSpec, terms: int) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """The three equivalent series of the condensation argument.

    Returns reports for (with T = ``terms`` summands each):

    1. sum_{n=2}^{T+1} 1 / (n (log2 n) w_n),
    2. sum_{n=1}^{T}   1 / (n w_{2^n}),
    3. c = sum_{n=0}^{T-1} 1 / w_{nu_n}  with nu_n = 2^(2^n).

    For log-power weights all three classifications agree (converges iff
    gamma > 0).  Explicit weights are rejected when the condensed indices
    2^n or nu_n exceed their length.
    """
    if terms < 1:
        raise ContractError("terms must be >= 1")

    n1 = np.arange(2, terms + 2, dtype=float)
    w1 = np.array([w.value_at(int(k)) for k in range(2, terms + 2)])
    series1 = 1.0 / (n1 * np.log2(n1) * w1)

    series2 = np.empty(terms)
    for i, n in enumerate(range(1, terms + 1)):
        series2[i] = 1.0 / (n * w.value_at(1 << n))

    series3 = np.empty(terms)
    nu = 2
    for i in range(terms):
        series3[i] = 1.0 / w.value_at(nu)
        nu = nu * nu

    if w.is_explicit:
        cls = [Classification.UNKNOWN_FROM_TRUNCATION] * 3
    else:
        # rule per series: all three reduce to gamma > 0
        one = Classification.CONVERGES if w.gamma > 0 else Classification.DIVERGES
        cls = [one, one, one]

    return (ConditionReport(ConditionId.ORLICZ_WEIGHT, compensated_cumsum(series1), cls[0], terms),
            ConditionReport(ConditionId.CONDENSED_POW2, compensated_cumsum(series2), cls[1], terms),
            ConditionReport(ConditionId.CONDENSED_DOUBLE_EXP, compensated_cumsum(series3), cls[2], terms))


@dataclass(frozen=True)
class ReductionReport:
    """The Orlicz pair and the Cauchy-Schwarz / monotonicity chain from it
    to the blocked Tandori sum, evaluated on a truncated range.

    ``coefficient`` and ``weight`` are the reports of ``orlicz_conditions``.
    The verified chain is

        (sum_k sqrt(A_k))^2  <=  c_partial * sum_k A_k w_{nu_k}
                             <=  c_partial * sum_{n=3}^{T} |a_n|^2 (log2^2 n) w_n,

    with c_partial = sum_k 1/w_{nu_k} over the blocks present.
    """

    coefficient: ConditionReport
    weight: ConditionReport
    sqrt_mass_sum: float
    c_partial: float
    lhs: float
    mid: float
    rhs: float
    cauchy_holds: bool
    monotonicity_holds: bool
    classification: Classification

    @property
    def all_hold(self) -> bool:
        return self.cauchy_holds and self.monotonicity_holds


DEFAULT_SLACK = 1e-12
ABSOLUTE_FLOOR = 1e-300


def leq_with_slack(lhs, rhs):
    """lhs <= rhs (1 + DEFAULT_SLACK) + ABSOLUTE_FLOOR; false on any NaN or
    infinity.  Two floats give a bool, two arrays a bool array, entry by entry."""
    if isinstance(lhs, np.ndarray):
        finite = np.isfinite(lhs) & np.isfinite(rhs)
    else:
        finite = math.isfinite(lhs) and math.isfinite(rhs)
    return finite & (lhs <= rhs * (1.0 + DEFAULT_SLACK) + ABSOLUTE_FLOOR)


def orlicz_reduction(a: SequenceSpec, w: WeightSpec, truncation: int) -> ReductionReport:
    """The Orlicz pair and the reduction chain on [1, truncation], from one
    draw of a_n and w_n; the chain needs truncation >= 3."""
    _check_truncation(truncation, 3)
    mass_terms, coeff_terms, coeff_rep, weight_rep = _orlicz_pass(a, w, truncation)
    blocks = tandori_blocks(truncation)
    # the term arrays start at n = 2
    masses = np.array([compensated_sum(mass_terms[lo - 2:hi - 1]) for lo, hi in blocks.ranges])
    w_nu = np.array([w.value_at(nu) for nu in blocks.nu[:len(blocks.ranges)]])
    sqrt_mass_sum = compensated_sum(np.sqrt(masses))
    c_partial = compensated_sum(1.0 / w_nu)
    lhs = sqrt_mass_sum ** 2
    mid = c_partial * compensated_sum(masses * w_nu)
    rhs = c_partial * compensated_sum(coeff_terms[1:])
    return ReductionReport(
        coefficient=coeff_rep, weight=weight_rep, sqrt_mass_sum=sqrt_mass_sum,
        c_partial=c_partial, lhs=lhs, mid=mid, rhs=rhs, cauchy_holds=leq_with_slack(lhs, mid),
        monotonicity_holds=leq_with_slack(mid, rhs), classification=_tandori_classification(a))
