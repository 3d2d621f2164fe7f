"""System and element serialization (CSV and JSON).

JSON schema (version 1):

    {
      "schema_version": 1,
      "field": "real" | "complex",
      "weights": [mu_0, ...],
      "dims": [d_0, ...],
      "elements": [ [ [block_0 entries], [block_1 entries], ... ], ... ]
    }

Complex entries are [re, im] pairs.  CSV files carry one row per
(element, atom) pair with columns ``element, atom, weight`` followed by the
block entries; complex data uses paired ``re#/im#`` columns.  Per-atom
dimensions are recovered from the number of populated value cells, and the
weight column repeats each atom's mass on every row.

Floats are written with repr(), so every binary64 value round-trips
bit-exactly through both formats.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .direct_integral import (DirectIntegralElement, Field, HilbertCollection,
                              MeasureSpace, OrthonormalSystem)
from .errors import StructuralError

SCHEMA_VERSION = 1


def system_to_json(system: OrthonormalSystem) -> str:
    field = system.fibers.field
    elements = []
    for el in system.elements:
        if field is Field.COMPLEX:
            blocks = [[[float(v.real), float(v.imag)] for v in blk] for blk in el.blocks]
        else:
            blocks = [[float(v) for v in blk] for blk in el.blocks]
        elements.append(blocks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "field": field.value,
        "weights": [float(w) for w in system.space.weights],
        "dims": [int(d) for d in system.fibers.dims],
        "elements": elements,
    }
    return json.dumps(payload, sort_keys=True)


def _finite_system(space: MeasureSpace, fibers: HilbertCollection,
                   elements: list) -> OrthonormalSystem:
    system = OrthonormalSystem.from_elements(space, fibers, elements)
    bad = np.flatnonzero(~np.all(np.isfinite(system.values), axis=1))
    if bad.size:
        raise StructuralError(f"element {int(bad[0])} has a non-finite value")
    return system


def system_from_json(text: str) -> OrthonormalSystem:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    for key in ("field", "weights", "dims", "elements"):
        if key not in payload:
            raise StructuralError(f"system JSON missing key '{key}'")
    field = Field(payload["field"])
    space = MeasureSpace(weights=np.asarray(payload["weights"], dtype=float))
    fibers = HilbertCollection(dims=np.asarray(payload["dims"], dtype=np.int64), field=field)
    elements = []
    for blocks in payload["elements"]:
        if field is Field.COMPLEX:
            parsed = [np.array([complex(re, im) for re, im in blk], dtype=np.complex128)
                      for blk in blocks]
        else:
            parsed = [np.asarray(blk, dtype=float) for blk in blocks]
        elements.append(DirectIntegralElement.from_blocks(parsed, field=field))
    return _finite_system(space, fibers, elements)


def system_to_csv(system: OrthonormalSystem) -> str:
    field = system.fibers.field
    dmax = int(system.fibers.dims.max())
    if field is Field.COMPLEX:
        value_cols = [f"{part}{i}" for i in range(dmax) for part in ("re", "im")]
    else:
        value_cols = [f"v{i}" for i in range(dmax)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "atom", "weight"] + value_cols)
    for e, el in enumerate(system.elements):
        for atom in range(system.fibers.n_atoms):
            blk = el.block(atom)
            cells = []
            for v in blk:
                if field is Field.COMPLEX:
                    cells.extend([repr(float(v.real)), repr(float(v.imag))])
                else:
                    cells.append(repr(float(v)))
            pad = [""] * (len(value_cols) - len(cells))
            writer.writerow([e, atom, repr(float(system.space.weights[atom]))] + cells + pad)
    return buf.getvalue()


def system_from_csv(text: str) -> OrthonormalSystem:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise StructuralError("empty CSV") from None
    if header[:3] != ["element", "atom", "weight"]:
        raise StructuralError("CSV header must start with element,atom,weight")
    is_complex = any(c.startswith("re") for c in header[3:])
    field = Field.COMPLEX if is_complex else Field.REAL

    rows: dict[tuple[int, int], list[float]] = {}
    weights: dict[int, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            e, atom = int(row[0]), int(row[1])
            w = float(row[2])
            cells = [float(c) for c in row[3:] if c != ""]
        except ValueError as exc:
            raise StructuralError(f"malformed CSV at line {lineno}: {exc}") from exc
        if atom in weights and weights[atom] != w:
            raise StructuralError(f"line {lineno}: atom {atom} weight differs from earlier rows")
        weights[atom] = w
        rows[(e, atom)] = cells

    if not rows:
        raise StructuralError("CSV carries no data rows")
    n_elements = max(e for e, _ in rows) + 1
    n_atoms = max(a for _, a in rows) + 1
    dims = np.zeros(n_atoms, dtype=np.int64)
    for (e, atom), cells in rows.items():
        d = len(cells) // 2 if is_complex else len(cells)
        if is_complex and len(cells) % 2:
            raise StructuralError(f"element {e} atom {atom}: odd number of complex cells")
        if dims[atom] and dims[atom] != d:
            raise StructuralError(f"atom {atom}: inconsistent dimensions across elements")
        dims[atom] = d
    if np.any(dims < 1):
        raise StructuralError("every atom needs at least one populated value column")

    space = MeasureSpace(weights=np.array([weights.get(a, 0.0) for a in range(n_atoms)]))
    fibers = HilbertCollection(dims=dims, field=field)
    elements = []
    for e in range(n_elements):
        blocks = []
        for atom in range(n_atoms):
            cells = rows.get((e, atom))
            if cells is None:
                raise StructuralError(f"element {e} is missing atom {atom}")
            if is_complex:
                pairs = np.asarray(cells, dtype=float).reshape(-1, 2)
                blocks.append(pairs[:, 0] + 1j * pairs[:, 1])
            else:
                blocks.append(np.asarray(cells, dtype=float))
        elements.append(DirectIntegralElement.from_blocks(blocks, field=field))
    return _finite_system(space, fibers, elements)


def profile_to_json(profile) -> str:
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "values": [float(v) for v in profile.values],
        "argmax_prefix": [int(j) for j in profile.argmax_prefix],
        "l2_norm": float(profile.l2_norm),
    }, sort_keys=True)
