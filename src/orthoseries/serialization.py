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
block entries, ``v0, v1, ...``; complex data uses paired ``re0, im0, ...``
columns.  Per-atom dimensions are recovered from the number of populated
value cells, and the weight column repeats each atom's mass on every row.
The readers refuse a JSON file without ``"schema_version": 1`` and a CSV
header with any other value-column names.

Floats are written with repr(), so every binary64 value round-trips
bit-exactly through both formats.  Every JSON file the package writes goes
through ``dumps`` (or its piecewise form ``iterdumps``) and is strict
JSON: a NaN or an infinity is written as ``null``.  Its float arrays (the
check-* partial sums, profile values, system weights and element rows) are
listed by ``_list_floats`` through orjson, whose Ryu digits are repr's (the
shortest string that round-trips, the closest to the value); at |x| outside
[1e-4, 1e16), where the notations differ, repr writes the token itself.
The CSV writer joins the same tokens, one element row at a time.

It also holds the one JSON reader of system files, verify configs and
``gen-ons --spec`` files: ``loads``, then ``field`` with ``listed``, ``number``
(finite, not bool) and ``integer`` (no bool, float or str), and ``known``,
which refuses a key that nothing reads.  System files
are parsed by orjson, which refuses NaN, Infinity and numbers past the
float range as malformed JSON.  Configs and specs are parsed by ``json``:
orjson reads an integer of 2^64 or more as a float, which ``integer``
would refuse (a config's ``"seed": 2**70`` runs).  The CSV reader converts
whole columns at a time and scans row by row only a file at fault.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterator
from itertools import chain, islice, zip_longest
from operator import itemgetter

import numpy as np
import orjson

from .direct_integral import Field, HilbertCollection, MeasureSpace, OrthonormalSystem
from .errors import StructuralError

SCHEMA_VERSION = 1

# Floats per piece when ``iterdumps`` lists an array: at most this much of it
# is ever held as text.
LIST_SLICE = 1 << 16

# Data rows per slice that ``system_from_csv`` converts: at most this many
# rows are held as csv.reader's lists of str cells.
CSV_SLICE = 1 << 12


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


def loads(text: str, what: str, parse=json.loads):
    """``parse(text)``, by default ``json.loads``; malformed or too deeply
    nested JSON is a one-line StructuralError naming ``what``.
    ``orjson.JSONDecodeError`` subclasses json's."""
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{what}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise StructuralError(f"{what}: JSON nested too deeply") from exc


_REQUIRED = object()


def field(entry, what: str, key: str, cast, default=_REQUIRED):
    """``cast(entry[key])``, or ``default`` when the key is absent; a non-object
    entry, a missing required key or a value that ``cast`` refuses (or recurses
    too deeply into: orjson parses any depth) is a one-line StructuralError
    that names the key and does not quote the value."""
    if not isinstance(entry, dict):
        raise StructuralError(f"{what} must be a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise StructuralError(f"{what} is missing '{key}'")
        return default
    try:
        return cast(entry[key])
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise StructuralError(f"{what}: '{key}' has a malformed value") from exc


def known(entry: dict, what: str, *keys: str) -> None:
    """Refuse a key of the JSON object ``entry`` outside ``keys``: nothing would read it."""
    for key in entry:
        if key not in keys:
            raise StructuralError(f"{what}: unknown key {key!r}")


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
        if any(list(map(len, blocks)) != dims for blocks in elements):
            raise ValueError("block lengths differ from dims")
        entries = list(chain.from_iterable(chain.from_iterable(elements)))
        if is_complex:
            if set(map(len, entries)) - {2}:
                raise ValueError("not an [re, im] pair")
            entries = list(chain.from_iterable(entries))
        values = np.array(listed(entries), dtype=float).reshape(
            (len(elements), fibers.total_dim) + ((2,) * is_complex))
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(
            "system JSON: 'elements' must hold, per function, one block of dims[i] "
            f"{'[re, im] pairs' if is_complex else 'numbers'} per atom") from exc
    return values.view(np.complex128)[..., 0] if is_complex else values


def system_from_json(text: str) -> OrthonormalSystem:
    what = "system JSON"
    payload = loads(text, what, orjson.loads)
    if field(payload, what, "schema_version", integer) != SCHEMA_VERSION:
        raise StructuralError(f"{what}: 'schema_version' must be {SCHEMA_VERSION}")
    known(payload, what, "schema_version", "field", "weights", "dims", "elements")
    space = MeasureSpace(weights=field(payload, what, "weights",
                                       lambda v: np.asarray(listed(v), dtype=float)))
    fibers = HilbertCollection(field=field(payload, what, "field", Field), dims=field(
        payload, what, "dims", lambda v: np.asarray(listed(v, (int,)), dtype=np.int64)))
    return _finite_system(space, fibers,
                          _json_values(field(payload, what, "elements", lambda v: v), fibers))


def system_csv_pieces(system: OrthonormalSystem):
    """The system as CSV, one row per (element, atom), as ``csv.writer`` writes
    it with repr's floats, in pieces: the header, then one element's rows at a
    time, each element row's tokens from ``_list_floats`` joined per atom
    behind an ``element,atom,weight,`` head."""
    parts = ("re", "im") if system.fibers.field is Field.COMPLEX else ("v",)
    width = len(parts) * int(system.fibers.dims.max())
    # complex values as the interleaved sequence re, im, ... at doubled offsets
    off = (len(parts) * system.fibers.offsets).tolist()
    atoms = [(f",{atom},{w!r},", lo, hi, "," * (width - (hi - lo)) + "\n") for atom, (w, lo, hi)
             in enumerate(zip(system.space.weights.tolist(), off, off[1:]))]
    yield ",".join(["element", "atom", "weight"] + [
        f"{part}{i}" for i in range(width // len(parts)) for part in parts]) + "\n"
    for e, row in enumerate(system.values.view(np.float64)):
        tokens = _list_floats(row, row)[1:-1].split(", ")
        for i in np.flatnonzero(~np.isfinite(row)).tolist():
            tokens[i] = repr(float(row[i]))  # orjson writes null
        yield "".join(f"{e}{head}{','.join(tokens[lo:hi])}{pad}" for head, lo, hi, pad in atoms)


def system_to_csv(system: OrthonormalSystem) -> str:
    return "".join(system_csv_pieces(system))


def _csv_fault(text: str) -> StructuralError:
    """The error of a system CSV known to be at fault: that of its first
    malformed data row, or of a row whose weight differs from an earlier row
    of its atom, by its line; else that of its first missing (element, atom)
    pair."""
    weights: dict[int, float] = {}
    pairs = set()
    rows = csv.reader(io.StringIO(text))
    next(rows)
    try:
        # an index past 2**62 leaves the first pass before later slices are
        # read, so this scan can meet a csv.Error that pass did not
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            try:
                e, atom, w, *cells = row
                e, atom, w = int(e), int(atom), float(w)
                list(map(float, filter(None, cells)))
                if min(e, atom) < 0:
                    raise ValueError(f"negative index {min(e, atom)}")
            except ValueError as exc:
                return StructuralError(f"malformed CSV at line {lineno}: {exc}")
            if atom in weights and weights[atom] != w:
                return StructuralError(
                    f"line {lineno}: atom {atom} weight differs from earlier rows")
            weights[atom] = w
            pairs.add((e, atom))
    except csv.Error as exc:
        return StructuralError(f"malformed CSV at line {rows.line_num}: {exc}")
    # this scan meets a missing pair within len(pairs) + 1 steps
    n_atoms = max(a for _, a in pairs) + 1
    return next(StructuralError(f"element {e} is missing atom {a}")
                for e in range(max(e for e, _ in pairs) + 1)
                for a in range(n_atoms) if (e, a) not in pairs)


def _csv_header(header: list[str] | None) -> bool:
    """Whether a CSV header is that of complex data; any header but the
    writer's, ``element,atom,weight`` then ``v0,v1,...`` or
    ``re0,im0,re1,im1,...``, is a StructuralError."""
    if header is None:
        raise StructuralError("empty CSV")
    if header[:3] != ["element", "atom", "weight"]:
        raise StructuralError("CSV header must start with element,atom,weight")
    names, parts = header[3:], ("re", "im") if header[3:4] == ["re0"] else ("v",)
    if names != [f"{p}{i}" for i in range(len(names) // len(parts)) for p in parts]:
        raise StructuralError("CSV value columns must be v0,v1,... or re0,im0,re1,im1,...")
    return len(parts) == 2


def _csv_columns(rows: list[list[str]]):
    """The (element, atom) indices, weights, populated value cell counts and
    values of nonblank data ``rows``, each column converted by one map.  A
    malformed cell, a negative index, or one past any count of rows (such a
    file leaves a pair out) is a ValueError."""
    elements, atoms, weights = islice(zip_longest(*rows, fillvalue=""), 3)
    index = list(map(int, chain(elements, atoms)))
    if min(index) < 0 or max(index) >= 1 << 62:
        raise ValueError("index out of range")
    # the row-major value cells, and how many of them each row holds
    cells = list(chain.from_iterable(map(itemgetter(slice(3, None)), rows)))
    ends = np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)) - 3)
    filled = np.cumsum(np.fromiter(map(bool, cells), np.int64, len(cells)))
    return (np.array(index).reshape(2, -1), np.array(list(map(float, weights))),
            np.diff(np.concatenate(([0], filled))[np.concatenate(([0], ends))]),
            np.array(list(map(float, filter(None, cells)))))


def system_from_csv(text: str) -> OrthonormalSystem:
    """The system of a CSV file.  Blank rows are skipped, "" cells are dropped
    wherever they sit, and of rows for the same (element, atom) the last wins.

    Rows are converted CSV_SLICE at a time, column by column, by
    ``_csv_columns``; the checks then run on whole arrays.  Only a file at
    fault is read again row by row, by ``_csv_fault``, to name its fault."""
    reader = csv.reader(io.StringIO(text))
    columns = []
    try:
        is_complex = _csv_header(next(reader, None))
        while rows := list(islice(reader, CSV_SLICE)):
            if rows := list(filter(None, rows)):
                columns.append(_csv_columns(rows))
    except csv.Error as exc:
        raise StructuralError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    except StructuralError:
        raise
    except ValueError:
        raise _csv_fault(text) from None
    if not columns:
        raise StructuralError("CSV carries no data rows")
    (elements, atoms), weights, counts, values = (np.concatenate(c, axis=-1)
                                                  for c in zip(*columns))
    n_elements, n_atoms = int(elements.max()) + 1, int(atoms.max()) + 1
    # a pair is missing when there are fewer rows than pairs: refused before
    # anything sized by the largest index is allocated
    if n_elements * n_atoms > len(weights):
        raise _csv_fault(text)
    order = np.arange(len(weights))
    first = np.full(n_atoms, len(weights))
    np.minimum.at(first, atoms, order)
    # the last row of each (element, atom) pair in row-major order, -1 if none
    last = np.full(n_elements * n_atoms, -1)
    np.maximum.at(last, elements * n_atoms + atoms, order)
    if np.any((weights != weights[first[atoms]]) & (first[atoms] != order)) or np.any(last < 0):
        raise _csv_fault(text)

    starts = (np.cumsum(counts) - counts)[last]
    counts = counts[last]
    if is_complex and np.any(counts % 2):
        e, a = divmod(int(np.argmax(counts % 2)), n_atoms)
        raise StructuralError(f"element {e} atom {a}: odd number of complex cells")
    per_atom = counts.reshape(n_elements, n_atoms)
    if np.any(per_atom != per_atom[0]):
        a = int(np.argmax(np.any(per_atom != per_atom[0], axis=0)))
        raise StructuralError(f"atom {a}: inconsistent dimensions across elements")
    if np.any(per_atom[0] < 1):
        raise StructuralError("every atom needs at least one populated value column")

    space = MeasureSpace(weights=weights[last.reshape(n_elements, n_atoms).max(axis=0)])
    fibers = HilbertCollection(dims=per_atom[0] // 2 if is_complex else per_atom[0],
                               field=Field.COMPLEX if is_complex else Field.REAL)
    # the kept rows' values, gathered in (element, atom) order
    flat = values[np.repeat(starts - np.cumsum(counts) + counts, counts)
                  + np.arange(counts.sum())].reshape(n_elements, -1)
    return _finite_system(space, fibers, flat.view(np.complex128) if is_complex else flat)


def profile_to_json(profile) -> str:
    return "".join(iterdumps({
        "schema_version": SCHEMA_VERSION,
        "values": profile.values,
        "argmax_prefix": [int(j) for j in profile.argmax_prefix],
        "l2_norm": float(profile.l2_norm),
    }))
