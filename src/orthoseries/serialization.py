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
bit-exactly through both formats.  Every JSON file the package writes goes
through ``dumps`` (or its piecewise form ``iterdumps``) and is strict
JSON: a NaN or an infinity is written as ``null``.  Its float arrays (the
check-* partial sums, profile values, system weights and element rows) are
listed by ``_list_floats`` through orjson, whose Ryu digits are repr's (the
shortest string that round-trips, the closest to the value); at |x| outside
[1e-4, 1e16), where the notations differ, repr writes the token itself.

It also holds the one JSON reader of system files, verify configs and
``gen-ons --spec`` files: ``loads``, then ``field`` with ``listed``, ``number``
(finite, not bool) and ``integer`` (no bool, float or str).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterator
from itertools import chain

import numpy as np
import orjson

from .direct_integral import Field, HilbertCollection, MeasureSpace, OrthonormalSystem
from .errors import StructuralError

SCHEMA_VERSION = 1

# Floats per piece when ``iterdumps`` lists an array: at most this much of it
# is ever held as text.
LIST_SLICE = 1 << 16


def dumps(payload, **kwargs) -> str:
    """``json.dumps(payload, **kwargs)`` as strict JSON: only a payload that
    holds a NaN or an infinity is encoded again, with those floats as null."""
    try:
        return json.dumps(payload, allow_nan=False, **kwargs)
    except ValueError:
        nulled = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        return json.dumps(nulled, allow_nan=False, **kwargs)


def _list_floats(a, values: np.ndarray) -> str:
    """``dumps`` of ``a``, a C-contiguous float64 array or a list of them, as
    nested lists; ``values`` is the 1-D array of its values in order.  orjson
    writes repr's digits, NaN and infinities as null, and one number per comma;
    where repr writes 1e-05 and 1e+16 (orjson 0.00001, 1e16), the token is repr's."""
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    mag = np.abs(values)
    odd = np.flatnonzero(((0 < mag) & (mag < 1e-4)) | ((1e16 <= mag) & (mag < np.inf)))
    if not odd.size:
        return text.replace(",", ", ")
    tokens = text.split(",")
    for i, x in zip(odd.tolist(), values[odd].tolist()):
        tokens[i] = tokens[i].replace(tokens[i].strip("[]"), repr(x))
    return ", ".join(tokens)


def iterdumps(payload):
    """The text of ``dumps(payload, sort_keys=True)``, yielded in pieces.

    Dicts are walked key by key.  A numpy array value, which must be a 1-D
    C-contiguous float64 array, is listed LIST_SLICE floats at a time by
    ``_list_floats``, so it is never held whole as a Python list or as one
    string.  An iterator value's items are JSON text, listed one at a time.
    Every other value is one piece, through ``dumps``.  The text is strict JSON.
    """
    if isinstance(payload, dict):
        sep = "{"
        for key in sorted(payload):
            yield f"{sep}{json.dumps(key)}: "
            yield from iterdumps(payload[key])
            sep = ", "
        yield "{}" if sep == "{" else "}"
    elif isinstance(payload, (np.ndarray, Iterator)):
        if isinstance(payload, np.ndarray):
            if payload.dtype != np.float64 or payload.ndim != 1:
                raise TypeError(f"iterdumps lists 1-D float64 arrays, not a "
                                f"{payload.ndim}-D {payload.dtype} array")
            pieces = (_list_floats(s, s)[1:-1] for s in
                      (payload[lo:lo + LIST_SLICE] for lo in range(0, len(payload), LIST_SLICE)))
        else:
            pieces = payload
        sep = "["
        for piece in pieces:
            yield sep + piece
            sep = ", "
        yield "[]" if sep == "[" else "]"
    else:
        yield dumps(payload, sort_keys=True)


def system_json_pieces(system: OrthonormalSystem):
    """``system_to_json``'s text in pieces, one element row at a time."""
    values, off = system.values.view(np.float64), system.fibers.offsets.tolist()
    blocks = values.reshape(len(system), -1, 2) if system.fibers.field is Field.COMPLEX else values
    return iterdumps({
        "schema_version": SCHEMA_VERSION,
        "field": system.fibers.field.value,
        "weights": system.space.weights,
        "dims": system.fibers.dims.tolist(),
        "elements": (_list_floats([b[lo:hi] for lo, hi in zip(off, off[1:])], row)
                     for b, row in zip(blocks, values)),
    })


def system_to_json(system: OrthonormalSystem) -> str:
    return "".join(system_json_pieces(system))


def loads(text: str, what: str):
    """``json.loads(text)``; malformed or too deeply nested JSON is a one-line
    StructuralError naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{what}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise StructuralError(f"{what}: JSON nested too deeply") from exc


_REQUIRED = object()


def field(entry, what: str, key: str, cast, default=_REQUIRED):
    """``cast(entry[key])``, or ``default`` when the key is absent; a non-object
    entry, a missing required key or a value that ``cast`` refuses is a
    one-line StructuralError that names the key and does not quote the value."""
    if not isinstance(entry, dict):
        raise StructuralError(f"{what} must be a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise StructuralError(f"{what} is missing '{key}'")
        return default
    try:
        return cast(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"{what}: '{key}' has a malformed value") from exc


def listed(value, types=(int, float)) -> list:
    """``value`` if it is a list whose entries' types are all among ``types``,
    by one type-set test (bool and str, which numpy would convert, are not)."""
    if type(value) is not list or not {type(v) for v in value} <= set(types):
        raise TypeError("not a list of the given types")
    return value


def number(value):
    """``value`` if it is a finite JSON number (not a bool), else an error."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError("not a finite JSON number")
    return value


def integer(value) -> int:
    """``value`` if it is a JSON integer (not a bool, float or str), else an error."""
    if type(value) is not int:
        raise TypeError("not a JSON integer")
    return value


def _finite_system(space: MeasureSpace, fibers: HilbertCollection,
                   values: np.ndarray) -> OrthonormalSystem:
    system = OrthonormalSystem(space, fibers, values)
    bad = np.flatnonzero(~np.all(np.isfinite(system.values), axis=1))
    if bad.size:
        raise StructuralError(f"element {int(bad[0])} has a non-finite value")
    return system


def _json_values(elements, fibers: HilbertCollection) -> np.ndarray:
    """The (n, total_dim) values of the JSON ``elements``: per function one block
    per atom, block i holding dims[i] numbers ([re, im] pairs when complex)."""
    is_complex, dims = fibers.field is Field.COMPLEX, fibers.dims.tolist()
    try:
        if any([len(block) for block in blocks] != dims for blocks in elements):
            raise ValueError("block lengths differ from dims")
        rows = [list(chain.from_iterable(blocks)) for blocks in elements]
        entries = chain.from_iterable(rows)
        listed(list(chain.from_iterable(entries) if is_complex else entries))
        values = np.array(rows, dtype=float)
        if values.shape != (len(elements), fibers.total_dim) + ((2,) * is_complex):
            raise ValueError("wrong entry shape")
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(
            "system JSON: 'elements' must hold, per function, one block of dims[i] "
            f"{'[re, im] pairs' if is_complex else 'numbers'} per atom, in float range") from exc
    return values.view(np.complex128)[..., 0] if is_complex else values


def system_from_json(text: str) -> OrthonormalSystem:
    what = "system JSON"
    payload = loads(text, what)
    space = MeasureSpace(weights=field(payload, what, "weights",
                                       lambda v: np.asarray(listed(v), dtype=float)))
    fibers = HilbertCollection(field=field(payload, what, "field", Field), dims=field(
        payload, what, "dims", lambda v: np.asarray(listed(v, (int,)), dtype=np.int64)))
    return _finite_system(space, fibers,
                          _json_values(field(payload, what, "elements", lambda v: v), fibers))


def system_to_csv(system: OrthonormalSystem) -> str:
    parts = ("re", "im") if system.fibers.field is Field.COMPLEX else ("v",)
    value_cols = [f"{part}{i}" for i in range(int(system.fibers.dims.max())) for part in parts]
    # complex values as the interleaved sequence re, im, ... at doubled offsets
    off = (len(parts) * system.fibers.offsets).tolist()
    atoms = [(atom, w, lo, hi, [""] * (len(value_cols) - (hi - lo))) for atom, (w, lo, hi)
             in enumerate(zip(system.space.weights.tolist(), off, off[1:]))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "atom", "weight"] + value_cols)
    for e, row in enumerate(system.values.view(np.float64).tolist()):
        writer.writerows([e, atom, w, *row[lo:hi], *pad] for atom, w, lo, hi, pad in atoms)
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

    rows: dict[tuple[int, int], list[float]] = {}
    weights: dict[int, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            e, atom, w, *cells = row
            e, atom, w = int(e), int(atom), float(w)
            cells = [float(c) for c in cells if c != ""]
            if min(e, atom) < 0:
                raise ValueError(f"negative index {min(e, atom)}")
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
    # before anything sized by the largest index is allocated: this scan meets
    # a missing (element, atom) pair within len(rows) + 1 steps
    for e in range(n_elements):
        for atom in range(n_atoms):
            if (e, atom) not in rows:
                raise StructuralError(f"element {e} is missing atom {atom}")
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

    space = MeasureSpace(weights=np.array([weights[a] for a in range(n_atoms)]))
    fibers = HilbertCollection(dims=dims, field=Field.COMPLEX if is_complex else Field.REAL)
    flat = np.array([list(chain.from_iterable(rows[(e, a)] for a in range(n_atoms)))
                     for e in range(n_elements)])
    return _finite_system(space, fibers, flat.view(np.complex128) if is_complex else flat)


def profile_to_json(profile) -> str:
    return "".join(iterdumps({
        "schema_version": SCHEMA_VERSION,
        "values": profile.values,
        "argmax_prefix": [int(j) for j in profile.argmax_prefix],
        "l2_norm": float(profile.l2_norm),
    }))
