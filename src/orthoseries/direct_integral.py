"""Discrete direct integrals of Hilbert spaces.

The ambient space is a direct integral over a finite atomic measure space:
each atom ``i`` carries a weight ``mu_i >= 0`` and a real or complex fiber
of dimension ``d_i >= 1``.  An element assigns one fiber vector per atom,
and the inner product is

    <f, g> = sum_i mu_i <f_i, g_i>,

conjugate-linear in the second slot for complex fibers.  Everything in the
package (orthonormal systems, partial-sum majorants, verification checks)
is built on the three primitives here: inner products, norms, and Gram
matrices with eigenvalue (Riesz) bounds, exact or from Gershgorin discs.

All value types are immutable after construction (their arrays are marked
read-only), so they can be shared freely across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import StructuralError

# gram_matrix's spectra come from the dense symmetric eigendecomposition, at
# every size.  Nothing in the package reads this name; it stays because the
# benchmark's eigen-path counter (perfbench/tracing.py) does.
DENSE_EIG_LIMIT = math.inf

GRAM_HERMITIAN_TOL = 1e-12

# Entries of a Gram matrix that _hermitian_gram's row-block loop forms at once.
GRAM_ROW_BUDGET = 1 << 16


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self is Field.COMPLEX else np.float64)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """A finite atomic measure space: atoms 0..M-1 with nonnegative masses.
    Equality and hashing are by identity, as for the fiber collection."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise StructuralError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise StructuralError("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise StructuralError("at least one atom must have positive mass")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True, eq=False)
class HilbertCollection:
    """Per-atom fiber dimensions and the common scalar field.  Equality and
    hashing are by identity (compare layouts with ``np.array_equal`` on
    ``dims``)."""

    dims: np.ndarray
    # derived from dims once: each atom's block start in the flat layout, then
    # the total.  Declared above ``field``, which shadows dataclasses.field.
    offsets: np.ndarray = field(init=False, repr=False)
    total_dim: int = field(init=False, repr=False)
    field: Field = Field.REAL

    def __post_init__(self):
        d = np.asarray(self.dims, dtype=np.int64)
        if d.ndim != 1 or d.size == 0:
            raise StructuralError("dims must be a nonempty 1-d array")
        if np.any(d < 1):
            bad = int(np.argmax(d < 1))
            raise StructuralError(f"atom {bad}: fiber dimension {int(d[bad])} < 1")
        offsets = np.concatenate(([0], np.cumsum(d)))
        object.__setattr__(self, "dims", _readonly(d))
        object.__setattr__(self, "offsets", _readonly(offsets))
        object.__setattr__(self, "total_dim", int(offsets[-1]))

    @property
    def n_atoms(self) -> int:
        return self.dims.size

    def matches(self, space: MeasureSpace) -> None:
        if self.n_atoms != space.n_atoms:
            raise StructuralError(
                f"fiber collection has {self.n_atoms} atoms, measure space has {space.n_atoms}"
            )

    def fit(self, values, ndim: int) -> np.ndarray:
        """``values`` as read-only ``ndim``-d rows of ``total_dim`` coordinates in
        the field's dtype; complex values need a complex field."""
        v = np.asarray(values)
        if v.ndim != ndim or v.shape[-1] != self.total_dim:
            raise StructuralError(
                f"values of shape {v.shape} are not {ndim}-d rows of {self.total_dim} coordinates"
            )
        if self.field is Field.REAL and v.dtype.kind == "c":
            raise StructuralError("complex values with a real fiber collection")
        return _readonly(v.astype(self.field.dtype, copy=False))


@dataclass(frozen=True, eq=False)
class DirectIntegralElement:
    """A section of a fiber collection: one fiber vector per atom, stored
    flat.  Equality and hashing are by identity, as for the collection."""

    values: np.ndarray
    fibers: HilbertCollection

    def __post_init__(self):
        object.__setattr__(self, "values", self.fibers.fit(self.values, 1))

    @classmethod
    def from_blocks(cls, blocks: Sequence, field: Field = Field.REAL) -> "DirectIntegralElement":
        blocks = [np.atleast_1d(np.asarray(b)) for b in blocks]
        fibers = HilbertCollection(dims=[b.size for b in blocks], field=field)
        return cls(values=np.concatenate(blocks), fibers=fibers)

    @classmethod
    def zero(cls, fibers: HilbertCollection) -> "DirectIntegralElement":
        return cls(values=np.zeros(fibers.total_dim), fibers=fibers)

    @property
    def n_atoms(self) -> int:
        return self.fibers.n_atoms

    def block(self, i: int) -> np.ndarray:
        return self.values[self.fibers.offsets[i]:self.fibers.offsets[i + 1]]

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.block(i) for i in range(self.n_atoms)]


@dataclass(frozen=True)
class GramReport:
    """Pairwise inner products of a system plus eigvalsh's rounded extreme eigenvalues
    (not guaranteed Riesz bounds, see ``gershgorin_bounds``; their bits follow BLAS threads)."""

    gram: np.ndarray
    max_offdiag_abs: float
    max_diag_dev: float
    riesz_lower: float
    riesz_upper: float

    def __post_init__(self):
        object.__setattr__(self, "gram", _readonly(np.asarray(self.gram)))


def expanded_weights(space: MeasureSpace, fibers: HilbertCollection) -> np.ndarray:
    """Measure mass repeated per flat coordinate: weight of atom(i) at coord i."""
    fibers.matches(space)
    return np.repeat(space.weights, fibers.dims)


def _shared_fibers(space: MeasureSpace, elements) -> HilbertCollection:
    """The layout all ``elements`` carry: an atom per atom of ``space``, one
    field, one fiber dimension per atom (the first atom that differs named)."""
    fibers = elements[0].fibers
    for el in elements:
        el.fibers.matches(space)
        if el.fibers.field is not fibers.field:
            raise StructuralError(
                f"{fibers.field.value} and {el.fibers.field.value} elements used together")
        if not np.array_equal(el.fibers.dims, fibers.dims):
            bad = int(np.argmax(el.fibers.dims != fibers.dims))
            raise StructuralError(f"atom {bad}: fiber dims {int(fibers.dims[bad])} "
                                  f"and {int(el.fibers.dims[bad])} differ")
    return fibers


def inner_product(f: DirectIntegralElement, g: DirectIntegralElement, space: MeasureSpace):
    """<f, g> = sum_i mu_i <f_i, g_i>, conjugate-linear in g."""
    fibers = _shared_fibers(space, (f, g))
    w = expanded_weights(space, fibers)
    if fibers.field is Field.REAL:
        return float(np.sum(f.values * g.values * w))
    # split into real arithmetic: the imaginary terms cancel exactly when
    # f is g (numpy's fused complex multiply would leave ~1e-17 residue)
    fr, fi = f.values.real, f.values.imag
    gr, gi = g.values.real, g.values.imag
    re = np.sum((fr * gr + fi * gi) * w)
    im = np.sum((fi * gr - fr * gi) * w)
    return complex(re, im)


def norm(f: DirectIntegralElement, space: MeasureSpace) -> float:
    w = expanded_weights(space, f.fibers)
    return float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))


class OrthonormalSystem:
    """An ordered finite system of direct-integral elements, stored as a matrix.

    Row ``n`` holds the flat coordinates of the n-th function.  The class
    does not assume orthonormality; ``validate_ons`` checks it against the
    Gram matrix under the system's own space and fibers.  Systems are
    immutable after construction.
    """

    def __init__(self, space: MeasureSpace, fibers: HilbertCollection, values: np.ndarray):
        fibers.matches(space)
        values = fibers.fit(values, 2)
        if values.shape[0] == 0:
            raise StructuralError("empty system")
        self.space = space
        self.fibers = fibers
        self.values = values

    @classmethod
    def from_elements(cls, space: MeasureSpace,
                      elements: Iterable[DirectIntegralElement]) -> "OrthonormalSystem":
        """The system of ``elements`` in order, on the fiber collection they carry."""
        elements = list(elements)
        if not elements:
            raise StructuralError("empty system")
        return cls(space, _shared_fibers(space, elements), np.stack([el.values for el in elements]))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, n: int) -> DirectIntegralElement:
        return DirectIntegralElement(values=self.values[n], fibers=self.fibers)


def _hermitian_rows(G: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of the Hermitian part H = (G^H + G) / 2, C-ordered."""
    herm = np.conj(G[:, rows].T, order="C")
    herm += G[rows]
    herm *= 0.5
    return herm


def _require_hermitian(worst) -> None:
    """Raises unless ``worst`` = max |G - G^H| <= GRAM_HERMITIAN_TOL (NaN passes)."""
    if worst > GRAM_HERMITIAN_TOL:
        raise StructuralError("gram matrix is not Hermitian to within 1e-12")


def _hermitian_gram(V: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G = (V w) V^H (the only n x n array formed), the diagonal of its
    Hermitian part H and the row sums sum_{j != i} |H_ij|; raises unless
    max |G - G^H| <= GRAM_HERMITIAN_TOL (NaN passes).  H, the sums and the
    max run a block of rows at a time."""
    # the .conj() method returns a real array itself, where np.conj copies it
    G = (V * w) @ V.conj().T
    worst, diag, radii = 0.0, np.empty(G.shape[0]), np.empty(G.shape[0])
    step = max(1, GRAM_ROW_BUDGET // G.shape[0])
    for rows in (slice(lo, lo + step) for lo in range(0, G.shape[0], step)):
        worst = np.maximum(worst, np.max(np.abs(G[rows] - G[:, rows].conj().T)))
        herm = _hermitian_rows(G, rows)
        diag[rows] = np.real(np.diagonal(herm[:, rows]))
        block = np.abs(herm)
        np.fill_diagonal(block[:, rows], 0.0)
        radii[rows] = block.sum(axis=1)
    _require_hermitian(worst)
    return G, diag, radii


def _sparse_discs(V: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re H_ii and the row sums sum_{j != i} |H_ij| of the Hermitian part H
    of G = (V w) V^H, as _hermitian_gram gives them, from G's entries at the
    pairs of rows that share a nonzero coordinate; raises as it does.  A
    coordinate with k nonzero values gives k^2 (row, row) pairs; each entry
    G_ij sums its pairs' products (V_ic w_c) conj(V_jc) one at a time in
    coordinate order, and a row's sum runs over its entries in column order,
    with no BLAS call.  Entries no pair reaches are exact zeros, short of an
    infinite value (inf * 0 is NaN in G)."""
    n, T = V.shape
    rows, cols = np.divmod(np.flatnonzero(V), T)
    by_coordinate = np.argsort(cols, kind="stable")
    rows, cols = rows[by_coordinate], cols[by_coordinate]
    vals = V[rows, cols]
    counts = np.bincount(cols, minlength=T)
    # value e, at coordinate c = cols[e], pairs with each of c's values
    # (numbered first[c] on), a run of reps[e] pairs from runs[e] on
    reps = counts[cols]
    runs = np.cumsum(reps) - reps
    first = np.cumsum(counts) - counts
    left = np.repeat(np.arange(len(vals)), reps)
    right = np.arange(reps.sum()) - np.repeat(runs - first[cols], reps)
    prods = (vals * w[cols])[left] * vals.conj()[right]
    keys = rows[left] * n + rows[right]
    del left, right
    # the stable sort keeps each entry's pairs in coordinate order
    by_entry = np.argsort(keys, kind="stable")
    keys, prods = keys[by_entry], prods[by_entry]
    del by_entry
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    entry = np.cumsum(new) - 1
    keys = keys[new]
    # np.add.at adds one value at a time, in the order given
    G = np.zeros(len(keys), dtype=V.dtype)
    np.add.at(G, entry, prods)
    del entry, prods
    i, j = np.divmod(keys, n)
    # a pair set is symmetric, so entry (j, i) is present for each (i, j)
    herm = G[np.searchsorted(keys, j * n + i)].conj()
    _require_hermitian(np.max(np.abs(G - herm), initial=0.0))
    # H_ij = (conj(G_ji) + G_ij) / 2, as _hermitian_rows forms it
    herm += G
    herm *= 0.5
    on = i == j
    diag, radii = np.zeros(n), np.zeros(n)
    diag[i[on]] = herm[on].real
    np.add.at(radii, i[~on], np.abs(herm[~on]))
    return diag, radii


def gram_matrix(system: OrthonormalSystem) -> GramReport:
    """Gram matrix G[m, n] = <phi_m, phi_n> under the system's own space and
    fibers, with its extreme eigenvalues (eigvalsh's)."""
    # Re H_ii = (Re G_ii + Re G_ii) / 2 = Re G_ii, short of overflow
    G, diag, _ = _hermitian_gram(system.values, expanded_weights(system.space, system.fibers))
    n = G.shape[0]
    # the entries of |G - diag(G)|: |G| off the diagonal, |G_ii - G_ii| on it
    # (0, or NaN where G_ii is not finite)
    scratch = np.abs(G)
    np.fill_diagonal(scratch, np.abs(np.diagonal(G) - np.diagonal(G)))
    max_offdiag = float(np.max(scratch)) if n > 1 else 0.0
    max_diag_dev = float(np.max(np.abs(diag - 1.0)))
    eig = np.linalg.eigvalsh(_hermitian_rows(G))
    return GramReport(gram=G, max_offdiag_abs=max_offdiag, max_diag_dev=max_diag_dev,
                      riesz_lower=float(eig[0]), riesz_upper=float(eig[-1]))


def gershgorin_bounds(system: OrthonormalSystem) -> tuple[float, float]:
    """Gershgorin bounds (min_i H_ii - r_i, max_i H_ii + r_i) on the spectrum of
    the Gram matrix's Hermitian part H, r_i = sum_{j != i} |H_ij| (1 + n 2^-53),
    ends with r_i > 0 rounded outward by one ulp; NaN in H gives NaN.

    A sparse system, whose P = sum_c nnz_c^2 coordinate-sharing pairs (nnz_c
    the nonzero values at flat coordinate c) satisfy 4 P <= n^2 and whose
    values are not infinite, takes H from those pairs alone
    (``_sparse_discs``, O(P log P), no BLAS call).  Its arrays take about 44
    bytes a pair (60 complex), so at 4 P = n^2 they hold less than the dense
    path's G and V w: 16 n^2 bytes or more (32 n^2 complex) for n
    orthonormal functions on T >= n coordinates.  Every other system forms
    all of G by one BLAS product, O(n^2 T)."""
    V, w = system.values, expanded_weights(system.space, system.fibers)
    counts = np.count_nonzero(V, axis=0)
    if 4 * int(counts @ counts) <= len(V) ** 2 and not np.isinf(V).any():
        diag, r = _sparse_discs(V, w)
    else:
        _, diag, r = _hermitian_gram(V, w)
    return _disc_ends(diag, r)


def _disc_ends(diag: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """The lowest and highest ends of the discs at ``diag`` of radii ``r``
    (in place) widened for their sums' rounding."""
    r *= 1.0 + len(diag) * 2.0 ** -53
    lower, upper = diag - r, diag + r
    np.nextafter(lower, -np.inf, out=lower, where=r > 0)
    np.nextafter(upper, np.inf, out=upper, where=r > 0)
    return float(np.min(lower)), float(np.max(upper))


def validate_ons(system: OrthonormalSystem, tol: float = 1e-10) -> tuple[bool, GramReport]:
    """True iff max |G - I| <= tol; the report is returned either way."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = gram_matrix(system)
    ok = max(report.max_offdiag_abs, report.max_diag_dev) <= tol
    return ok, report
