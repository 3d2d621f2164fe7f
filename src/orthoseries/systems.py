"""Generators of orthonormal systems in the discrete direct-integral model.

Every generator is deterministic: identical specs (including seeds) yield
bit-identical systems.  Seeded randomness uses numpy's PCG64 bit generator
throughout the package, so trials reproduce across platforms for a fixed
numpy version.

Kinds
-----
``STANDARD_BASIS``  indicators of atoms under counting measure (exact).
``RADEMACHER``      sign patterns on the dyadic grid where they are piecewise
                    constant, weight 1/grid (exact).
``HAAR``            L2-normalized Haar wavelets on a dyadic grid (orthonormal
                    to machine precision; exact up to rounding of sqrt(2)
                    amplitudes).
``RANDOM_QR``       QR-orthonormalized seeded Gaussian columns on M atoms of
                    weight 1/M with a constant fiber dimension.
``TENSOR_VECTOR``   a scalar Haar base system tensored with cycling fiber
                    unit vectors: constant fiber dimension d, and for d = 1
                    bit-identical to the base system.
``VARYING_DIM``     block-diagonal Hadamard construction over atoms whose
                    fiber dimensions cycle through 1, 2, 3 (exact), so the
                    fiber dimension genuinely varies across atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .direct_integral import (Field, HilbertCollection, MeasureSpace,
                              OrthonormalSystem)
from .errors import ContractError

# The most values (functions x flat fiber coordinates) a generated system may
# hold: Haar n=4096, 128 MiB of float64.  Larger requests are refused before
# any array is allocated.
MAX_SYSTEM_VALUES = 1 << 24


class SystemKind(Enum):
    RANDOM_QR = "random-qr"
    RADEMACHER = "rademacher"
    HAAR = "haar"
    STANDARD_BASIS = "standard-basis"
    TENSOR_VECTOR = "tensor-vector"
    VARYING_DIM = "varying-dim"


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of one generated system.

    ``resolution`` is the grid/atom-count parameter (power of two where the
    kind requires it; defaults to the smallest admissible value).  Every kind
    reads ``n_functions`` and ``field``; beyond those, a kind reads only

        rademacher, haar   resolution
        random-qr          resolution, fiber_dim, seed
        tensor-vector      resolution, fiber_dim

    and refuses a ``fiber_dim`` other than 1 or a ``resolution`` it does not
    read (any kind takes a ``seed``).  Only RANDOM_QR draws genuinely complex
    values; the deterministic kinds embed their real values.
    """

    kind: SystemKind
    n_functions: int
    resolution: int | None = None
    fiber_dim: int = 1
    seed: int = 0
    field: Field = Field.REAL

    def __post_init__(self):
        if self.n_functions < 1:
            raise ContractError("n_functions must be >= 1")
        if self.fiber_dim < 1:
            raise ContractError("fiber_dim must be >= 1")
        if self.fiber_dim > 1 and self.kind not in (SystemKind.RANDOM_QR, SystemKind.TENSOR_VECTOR):
            raise ContractError(f"{self.kind.value} reads no 'fiber_dim' (got {self.fiber_dim})")
        if self.resolution is not None and self.kind in (SystemKind.STANDARD_BASIS,
                                                         SystemKind.VARYING_DIM):
            raise ContractError(f"{self.kind.value} reads no 'resolution' (got {self.resolution})")

    def describe(self) -> str:
        parts = [f"{self.kind.value}", f"n={self.n_functions}"]
        if self.resolution is not None:
            parts.append(f"res={self.resolution}")
        if self.fiber_dim != 1:
            parts.append(f"d={self.fiber_dim}")
        if self.kind is SystemKind.RANDOM_QR:
            parts.append(f"seed={self.seed}")
        if self.field is Field.COMPLEX:
            parts.append("complex")
        return " ".join(parts)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _check_size(spec: SystemSpec, width: int) -> None:
    """Refuse a system of n_functions x width values over MAX_SYSTEM_VALUES."""
    if spec.n_functions * width > MAX_SYSTEM_VALUES:
        raise ContractError(
            f"{spec.kind.value} n={spec.n_functions} needs {spec.n_functions} x {width} "
            f"values, over the limit of {MAX_SYSTEM_VALUES}")


def seeded_rng(seed) -> np.random.Generator:
    """The package's one seeded generator: PCG64 on SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def generate(spec: SystemSpec) -> tuple[MeasureSpace, HilbertCollection, OrthonormalSystem]:
    """Build the system described by ``spec``.

    Returns the measure space, the fiber collection, and the system; the
    system also carries references to both.  Every kind passes
    ``validate_ons`` at tolerance 1e-10 (exactly orthonormal kinds pass at
    much tighter tolerances).
    """
    builder = {
        SystemKind.STANDARD_BASIS: _standard_basis,
        SystemKind.RADEMACHER: _rademacher,
        SystemKind.HAAR: _haar,
        SystemKind.RANDOM_QR: _random_qr,
        SystemKind.TENSOR_VECTOR: _tensor_vector,
        SystemKind.VARYING_DIM: _varying_dim,
    }[spec.kind]
    space, fibers, values = builder(spec)
    if spec.field is Field.COMPLEX and values.dtype.kind != "c":
        values = values.astype(np.complex128)
        fibers = HilbertCollection(dims=fibers.dims, field=Field.COMPLEX)
    system = OrthonormalSystem(space, fibers, values)
    return space, fibers, system


def _standard_basis(spec: SystemSpec):
    n = spec.n_functions
    _check_size(spec, n)
    space = MeasureSpace(weights=np.ones(n))
    fibers = HilbertCollection(dims=np.ones(n, dtype=np.int64))
    return space, fibers, np.eye(n)


def _rademacher(spec: SystemSpec):
    n = spec.n_functions
    min_res = 1 << n
    res = spec.resolution if spec.resolution is not None else min_res
    if not _is_pow2(res):
        raise ContractError(f"rademacher resolution {res} is not a power of two")
    if res < min_res:
        raise ContractError(
            f"rademacher needs resolution >= 2^{n} = {min_res} for {n} exactly orthonormal functions"
        )
    _check_size(spec, res)
    i = np.arange(res, dtype=np.int64)
    rows = np.empty((n, res))
    for fn in range(1, n + 1):
        # sign of the fn-th Rademacher function, constant on runs of res/2^fn
        rows[fn - 1] = 1.0 - 2.0 * (((i << fn) // res) & 1)
    space = MeasureSpace(weights=np.full(res, 1.0 / res))
    fibers = HilbertCollection(dims=np.ones(res, dtype=np.int64))
    return space, fibers, rows


def _haar(spec: SystemSpec):
    n = spec.n_functions
    min_res = _next_pow2(n)
    res = spec.resolution if spec.resolution is not None else min_res
    if not _is_pow2(res):
        raise ContractError(f"haar resolution {res} is not a power of two")
    if res < min_res:
        raise ContractError(
            f"haar needs a power-of-two resolution >= {min_res} for {n} functions"
        )
    _check_size(spec, res)
    rows = np.zeros((n, res))
    rows[0] = 1.0
    for fn in range(2, n + 1):
        level = (fn - 1).bit_length() - 1
        k = fn - 1 - (1 << level)
        width = res >> level
        half = width >> 1
        start = k * width
        amp = math.sqrt(float(1 << level))
        rows[fn - 1, start:start + half] = amp
        rows[fn - 1, start + half:start + width] = -amp
    space = MeasureSpace(weights=np.full(res, 1.0 / res))
    fibers = HilbertCollection(dims=np.ones(res, dtype=np.int64))
    return space, fibers, rows


def _random_qr(spec: SystemSpec):
    n, d = spec.n_functions, spec.fiber_dim
    m = spec.resolution if spec.resolution is not None else -(-n // d)
    if m < 1:
        raise ContractError("random-qr needs at least one atom")
    total = m * d
    if n > total:
        raise ContractError(f"cannot fit {n} orthonormal functions in dimension {m}*{d}={total}")
    _check_size(spec, total)
    rng = seeded_rng(spec.seed)
    a = rng.standard_normal((total, n))
    if spec.field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal((total, n))
    q, r = np.linalg.qr(a, mode="reduced")
    # sign convention: make the triangular factor's diagonal nonnegative real
    diag = np.diagonal(r).copy()
    phase = np.where(np.abs(diag) == 0, 1.0, diag / np.abs(diag))
    q = q * np.conj(phase)
    # weight 1/M per atom, so rows scale by sqrt(M) to be unit norm
    rows = math.sqrt(m) * q.T
    space = MeasureSpace(weights=np.full(m, 1.0 / m))
    fibers = HilbertCollection(dims=np.full(m, d, dtype=np.int64), field=spec.field)
    return space, fibers, rows


def _tensor_vector(spec: SystemSpec):
    n, d = spec.n_functions, spec.fiber_dim
    n_scalar = -(-n // d)
    res = spec.resolution if spec.resolution is not None else _next_pow2(n_scalar)
    _check_size(spec, res * d)
    base_spec = SystemSpec(kind=SystemKind.HAAR, n_functions=n_scalar, resolution=res)
    space, _, base_rows = _haar(base_spec)
    rows = np.zeros((n, res * d))
    for fn in range(n):
        scalar_idx, fiber_idx = divmod(fn, d)
        rows[fn, fiber_idx::d] = base_rows[scalar_idx]
    fibers = HilbertCollection(dims=np.full(res, d, dtype=np.int64))
    return space, fibers, rows


# Rows of the 4x4 normalized Hadamard matrix: entries +-1/2, exactly orthonormal.
_H4 = 0.5 * np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def _varying_dim(spec: SystemSpec):
    n = spec.n_functions
    # dims cycle 1,2,3; an even number of cycles keeps the flat dimension a
    # multiple of 4 so the Hadamard blocks tile it exactly
    cycles = 2 * (-(-n // 12))
    _check_size(spec, 6 * cycles)
    dims = np.tile(np.array([1, 2, 3], dtype=np.int64), cycles)
    total = int(dims.sum())
    rows = np.zeros((n, total))
    for fn in range(n):
        blk, r = divmod(fn, 4)
        rows[fn, 4 * blk:4 * blk + 4] = _H4[r]
    space = MeasureSpace(weights=np.ones(dims.size))
    fibers = HilbertCollection(dims=dims)
    return space, fibers, rows
