import csv
import io
import json
import math
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoseries import (Field, HilbertCollection, MeasureSpace, OrthonormalSystem,
                         StructuralError, SystemKind, SystemSpec, generate)
from orthoseries import serialization
from orthoseries.serialization import (_finite_system, dumps, field, listed, loads,
                                       system_from_csv, system_from_json, system_to_csv,
                                       system_to_json)


SPECS = [
    SystemSpec(SystemKind.STANDARD_BASIS, 3),
    SystemSpec(SystemKind.RADEMACHER, 3),
    SystemSpec(SystemKind.HAAR, 5),
    SystemSpec(SystemKind.RANDOM_QR, 6, resolution=4, fiber_dim=2, seed=11),
    SystemSpec(SystemKind.RANDOM_QR, 5, resolution=8, fiber_dim=1, seed=12,
               field=Field.COMPLEX),
    SystemSpec(SystemKind.TENSOR_VECTOR, 7, fiber_dim=3),
    SystemSpec(SystemKind.VARYING_DIM, 6),
]


def assert_same_system(a, b):
    assert np.array_equal(a.space.weights, b.space.weights)
    assert np.array_equal(a.fibers.dims, b.fibers.dims)
    assert a.fibers.field is b.fibers.field
    assert a.values.dtype == b.values.dtype
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_json_roundtrip_bit_exact(spec):
    system = generate(spec)[2]
    back = system_from_json(system_to_json(system))
    assert_same_system(system, back)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_csv_roundtrip_bit_exact(spec):
    system = generate(spec)[2]
    back = system_from_csv(system_to_csv(system))
    assert_same_system(system, back)


def test_irrational_entries_roundtrip():
    # Haar amplitudes include sqrt(2); the closest binary64 values must
    # survive both formats unchanged
    system = generate(SystemSpec(SystemKind.HAAR, 8))[2]
    assert math.sqrt(2.0) in set(np.abs(system.values).ravel())
    for text, reader in ((system_to_json(system), system_from_json),
                         (system_to_csv(system), system_from_csv)):
        assert np.array_equal(reader(text).values, system.values)


def test_json_error_reports_position():
    with pytest.raises(StructuralError, match="line 1"):
        system_from_json("{not json")


@pytest.mark.parametrize("version", [99, 0, 2, None, "1", 1.0, True, [1]])
def test_json_other_schema_version_raises(version):
    with pytest.raises(StructuralError, match="'schema_version'"):
        system_from_json(system_json(schema_version=version))


def test_json_missing_schema_version_raises():
    payload = json.loads(system_json())
    del payload["schema_version"]
    with pytest.raises(StructuralError, match="missing 'schema_version'"):
        system_from_json(json.dumps(payload))


def test_json_missing_key():
    with pytest.raises(StructuralError, match="weights"):
        system_from_json('{"schema_version": 1, "field": "real", "dims": [1], "elements": []}')


def test_csv_empty():
    with pytest.raises(StructuralError, match="^empty CSV$"):
        system_from_csv("")


def test_csv_bad_header():
    with pytest.raises(StructuralError, match="header"):
        system_from_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize("header", ["zz0", "V0", "v1", "v0,v2", "v0,v0", "re0", "im0,re0",
                                    "re0,v0", "re0,im0,re1", "re0,im0,v1"])
def test_csv_value_columns_other_than_the_writers_raise(header):
    for reader in (system_from_csv, row_csv):
        with pytest.raises(StructuralError, match="value columns must be"):
            reader(f"element,atom,weight,{header}\n0,0,1.0,1.0\n")


def test_csv_malformed_cell_names_line():
    system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))[2]
    text = system_to_csv(system).replace("1.0", "zap", 1)
    with pytest.raises(StructuralError, match="line"):
        system_from_csv(text)


def test_csv_missing_row():
    system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 2))[2]
    lines = system_to_csv(system).splitlines()
    with pytest.raises(StructuralError, match="missing"):
        system_from_csv("\n".join(lines[:-1]) + "\n")


def test_csv_inconsistent_dims():
    text = ("element,atom,weight,v0,v1\n"
            "0,0,1.0,1.0,\n"
            "1,0,1.0,1.0,2.0\n")
    with pytest.raises(StructuralError, match="inconsistent"):
        system_from_csv(text)


# -- the writers against per-element references -------------------------------

def element_json(system):
    """Reference JSON writer: one element object per function, one float at a time."""
    field = system.fibers.field
    elements = []
    for el in (system[n] for n in range(len(system))):
        if field is Field.COMPLEX:
            elements.append([[[float(v.real), float(v.imag)] for v in blk] for blk in el.blocks])
        else:
            elements.append([[float(v) for v in blk] for blk in el.blocks])
    return json.dumps({"schema_version": 1, "field": field.value,
                       "weights": [float(w) for w in system.space.weights],
                       "dims": [int(d) for d in system.fibers.dims],
                       "elements": elements}, sort_keys=True)


def element_csv(system):
    """Reference CSV writer: one row per (element, atom), one cell at a time."""
    field = system.fibers.field
    dmax = int(system.fibers.dims.max())
    if field is Field.COMPLEX:
        value_cols = [f"{part}{i}" for i in range(dmax) for part in ("re", "im")]
    else:
        value_cols = [f"v{i}" for i in range(dmax)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "atom", "weight"] + value_cols)
    for e in range(len(system)):
        el = system[e]
        for atom in range(system.fibers.n_atoms):
            cells = []
            for v in el.block(atom):
                if field is Field.COMPLEX:
                    cells.extend([repr(float(v.real)), repr(float(v.imag))])
                else:
                    cells.append(repr(float(v)))
            pad = [""] * (len(value_cols) - len(cells))
            writer.writerow([e, atom, repr(float(system.space.weights[atom]))] + cells + pad)
    return buf.getvalue()


WRITER_SPECS = SPECS + [SystemSpec(SystemKind.RANDOM_QR, 6, resolution=3, fiber_dim=4,
                                   seed=13, field=Field.COMPLEX)]


@pytest.mark.parametrize("spec", WRITER_SPECS, ids=lambda s: s.describe())
def test_writers_match_the_per_element_references(spec):
    system = generate(spec)[2]
    assert system_to_json(system) == element_json(system)
    assert system_to_csv(system) == element_csv(system)
    # the header, then one piece per element
    assert len(list(serialization.system_csv_pieces(system))) == 1 + len(system)



def test_csv_writer_lists_non_finite_values_as_repr():
    # orjson lists NaN and the infinities as null; the CSV holds repr's tokens
    values = np.array([[np.nan, 1e-300, -np.inf], [np.inf, 1e17, -0.0]])
    system = OrthonormalSystem(MeasureSpace(weights=np.array([1.0, 1e-5])),
                               HilbertCollection(dims=[1, 2]), values)
    assert system_to_csv(system) == element_csv(system)

def test_signed_zeros_roundtrip_in_both_formats():
    space = MeasureSpace(weights=np.array([1.0, 0.5]))
    for field, row in ((Field.REAL, [-0.0, 1.0, -0.0]),
                       (Field.COMPLEX, [complex(-0.0, 0.5), complex(1.0, -0.0),
                                        complex(-0.0, -0.0)])):
        system = OrthonormalSystem(space, HilbertCollection(dims=[1, 2], field=field),
                                   np.array([row]))
        for text, reader in ((system_to_json(system), system_from_json),
                             (system_to_csv(system), system_from_csv)):
            assert reader(text).values.tobytes() == system.values.tobytes()


# -- malformed structure is a StructuralError ---------------------------------

def system_json(**changes):
    payload = {"schema_version": 1, "field": "real", "weights": [1.0, 1.0], "dims": [1, 2],
               "elements": [[[1.0], [0.0, 1.0]]]}
    return json.dumps({**payload, **changes})


@pytest.mark.parametrize("text", [
    "5", "[]", "null",
    system_json(elements=5),
    system_json(elements=[5]),
    system_json(elements=[[[1.0]]]),
    system_json(elements=[[[1.0], [0.0, 1.0], [1.0]]]),
    system_json(elements=[[[1.0], [0.0]]]),
    system_json(elements=[[[1.0], [0.0, [1.0]]]]),
    system_json(elements=[[1.0, [0.0, 1.0]]]),
    system_json(elements=[]),
    system_json(dims=None),
    system_json(dims=[[1, 2]]),
    system_json(dims=[1]),
    system_json(weights=None),
    system_json(weights={"a": 1}),
    system_json(field="complex"),
    system_json(field="complex", dims=[1, 1], elements=[[[1.0], [2.0]]]),
    system_json(field="complex", dims=[1, 1], elements=[[[[1.0, 0.0, 0.0]], [[2.0, 0.0]]]]),
], ids=lambda t: t if len(t) < 60 else t[t.index('"elements"'):])
def test_malformed_json_structure_raises(text):
    with pytest.raises(StructuralError):
        system_from_json(text)


@pytest.mark.parametrize("rows", [
    ["0,0"],
    ["0"],
    ["-1,0,1.0,1.0"],
    ["0,-1,1.0,1.0"],
    ["0,0,1.0,1.0", "0,-1,1.0,1.0"],
])
def test_malformed_csv_rows_raise(rows):
    with pytest.raises(StructuralError, match="line"):
        system_from_csv("element,atom,weight,v0\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("rows,message", [
    (["0,0,1.0,1.0", "", "0,1,1.0,x"], "malformed CSV at line 4:"),
    (["0,0,1.0,1.0", "1,0,2.0,1.0"], "line 3: atom 0 weight differs"),
    (["0,0,nan,1.0", "1,0,nan,1.0"], "line 3: atom 0 weight differs"),
    (["0,0,1.0,1.0", "0,1,1.0,1.0", "", "1,1,1.0,1.0"], "element 1 is missing atom 0"),
    ([f"{2 ** 70},0,1.0,1.0"], "element 0 is missing atom 0"),
    (["0,0,1.0,,1.0", "1,0,1.0,1.0,,2.0"], "atom 0: inconsistent dimensions"),
    # an atom whose first row is empty: refused, not left to numpy's ragged array
    (["0,0,1.0,,", "1,0,1.0,1.0"], "atom 0: inconsistent dimensions"),
    (["0,0,1.0,,", "1,0,1.0,,"], "every atom needs at least one"),
    ([], "no data rows"),
])
def test_faulty_csv_names_the_fault(rows, message):
    with pytest.raises(StructuralError, match=message):
        system_from_csv("element,atom,weight,v0,v1\n" + "\n".join(rows) + "\n")


def test_odd_complex_cells_name_the_pair():
    text = "element,atom,weight,re0,im0\n0,0,1.0,1.0,0.0\n1,0,1.0,1.0\n"
    with pytest.raises(StructuralError, match="element 1 atom 0: odd number"):
        system_from_csv(text)


@pytest.mark.parametrize("text,line", [
    ("element,atom,weight,v0\n0,0,1.0,1.0\n1,0,1.0," + "1" * 200_000 + "\n", 3),
    ("element,atom,weight," + "v" * 200_000 + "\n0,0,1.0,1.0\n", 1),
    ("element,atom,weight,v0\r,v1\n0,0,1.0,1.0\n", 1),
])
def test_csv_module_error_names_its_line(text, line):
    # csv.reader refuses a field over 131,072 characters, or a stray carriage
    # return in an unquoted field, with a csv.Error
    with pytest.raises(StructuralError, match=f"malformed CSV at line {line}: "):
        system_from_csv(text)


def test_csv_ragged_duplicate_and_blank_rows():
    # blank rows skipped, "" cells dropped wherever they sit, the last row of
    # a pair wins, and the weight is the last row's (-0.0 equals 0.0)
    text = ("element,atom,weight,v0,v1\n\n1,0,-0.0,,3.0\n0,1,1.0,2.0\n0,0,0.0,9.0\n"
            "\n0,0,0.0,,1.0,\n1,1,1.0,4.0,,\n")
    system = system_from_csv(text)
    assert system.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert system.space.weights.tobytes() == np.array([0.0, 1.0]).tobytes()


# -- strict JSON ---------------------------------------------------------------

def test_dumps_writes_non_finite_floats_as_null():
    # numpy scalars and tuples too; finite payloads are a property test
    payload = {"r": float("nan"), "v": [1.0, float("inf"), (float("-inf"), 2.0)],
               "d": {"k": np.float64("nan"), "n": 3}}
    assert json.loads(dumps(payload, sort_keys=True)) == {
        "r": None, "v": [1.0, None, [None, 2.0]], "d": {"k": None, "n": 3}}


# -- the readers against per-row references ------------------------------------

def row_csv(text):
    """Reference CSV reader: one row at a time, dicts keyed by (element, atom).

    The reader before the column-wise one, with one mend: an atom whose first
    row has no populated cell was left to numpy's ragged-array ValueError; here
    it is the inconsistent-dimensions error."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise StructuralError("empty CSV") from None
    if header[:3] != ["element", "atom", "weight"]:
        raise StructuralError("CSV header must start with element,atom,weight")
    is_complex = header[3:4] == ["re0"]
    width = (len(header) - 3) // 2 if is_complex else len(header) - 3
    names = [f"re{i},im{i}" if is_complex else f"v{i}" for i in range(width)]
    if ",".join(header[3:]) != ",".join(names):
        raise StructuralError("CSV value columns must be v0,v1,... or re0,im0,re1,im1,...")
    rows, weights = {}, {}
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
    for e in range(n_elements):
        for atom in range(n_atoms):
            if (e, atom) not in rows:
                raise StructuralError(f"element {e} is missing atom {atom}")
    dims = np.full(n_atoms, -1, dtype=np.int64)
    for (e, atom), cells in rows.items():
        d = len(cells) // 2 if is_complex else len(cells)
        if is_complex and len(cells) % 2:
            raise StructuralError(f"element {e} atom {atom}: odd number of complex cells")
        if dims[atom] >= 0 and dims[atom] != d:
            raise StructuralError(f"atom {atom}: inconsistent dimensions across elements")
        dims[atom] = d
    if np.any(dims < 1):
        raise StructuralError("every atom needs at least one populated value column")
    space = MeasureSpace(weights=np.array([weights[a] for a in range(n_atoms)]))
    fibers = HilbertCollection(dims=dims, field=Field.COMPLEX if is_complex else Field.REAL)
    flat = np.array([list(chain.from_iterable(rows[(e, a)] for a in range(n_atoms)))
                     for e in range(n_elements)])
    return _finite_system(space, fibers, flat.view(np.complex128) if is_complex else flat)


def json_reference(text):
    """Reference JSON reader: ``json.loads``, then the elements through one
    nested list per element row."""
    what = "system JSON"
    payload = loads(text, what)
    space = MeasureSpace(weights=field(payload, what, "weights",
                                       lambda v: np.asarray(listed(v), dtype=float)))
    fibers = HilbertCollection(field=field(payload, what, "field", Field), dims=field(
        payload, what, "dims", lambda v: np.asarray(listed(v, (int,)), dtype=np.int64)))
    elements = field(payload, what, "elements", lambda v: v)
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
        raise StructuralError("system JSON: malformed 'elements'") from exc
    return _finite_system(space, fibers,
                          values.view(np.complex128)[..., 0] if is_complex else values)


def _raw_system(draw):
    """A system of any finite floats, of drawn dims, not orthonormal."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    is_complex = draw(st.booleans())
    n = draw(st.integers(2, 4))
    values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n * sum(dims) * (1 + is_complex),
                                    max_size=n * sum(dims) * (1 + is_complex))))
    weights = draw(st.lists(st.floats(0.0, 1e300), min_size=len(dims), max_size=len(dims)))
    return OrthonormalSystem(
        MeasureSpace(weights=np.array(weights) + 1e-300),
        HilbertCollection(dims=dims, field=Field.COMPLEX if is_complex else Field.REAL),
        values.view(np.complex128).reshape(n, -1) if is_complex else values.reshape(n, -1))


@st.composite
def systems(draw):
    """A generated system of every kind and both fields, or a raw one."""
    kind = draw(st.sampled_from(list(SystemKind) + ["raw"]))
    if kind == "raw":
        return _raw_system(draw)
    # fiber_dim only for the kinds that read it
    vector = kind in (SystemKind.RANDOM_QR, SystemKind.TENSOR_VECTOR)
    return generate(SystemSpec(kind, draw(st.integers(2, 5)),
                               fiber_dim=draw(st.integers(1, 3)) if vector else 1,
                               seed=draw(st.integers(0, 9)),
                               field=draw(st.sampled_from(list(Field)))))[2]


def _same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() and x.dtype == y.dtype for x, y in (
        (a.values, b.values), (a.space.weights, b.space.weights), (a.fibers.dims, b.fibers.dims)))


def _mutated_csv(text, rnd):
    """``text`` with its rows shuffled, some repeated, blank lines inserted
    and some trailing pads stripped: the same system."""
    header, *rows = text.splitlines()
    rows += rnd.sample(rows, rnd.randint(0, min(3, len(rows))))
    rnd.shuffle(rows)
    rows = [row.rstrip(",") if rnd.random() < 0.5 else row for row in rows]
    for _ in range(rnd.randint(0, 3)):
        rows.insert(rnd.randint(0, len(rows)), "")
    return "\n".join([header] + rows) + rnd.choice(["\n", "", "\n\n"])


def _corrupted_csv_rows(text, rnd):
    """The rows of ``text`` (header first) with one fault that every reader
    refuses: a malformed or non-finite cell, a negative index, a weight that
    differs within an atom, a missing pair or a changed count of value cells."""
    rows = [line.split(",") for line in text.splitlines()]
    header, data = rows[0], rows[1:]
    row = rnd.choice(data)
    n_values = sum(c != "" for c in row[3:])
    how = rnd.choice(["cell", "index", "weight", "missing", "count", "header"])
    if how == "cell":
        row[rnd.randrange(3 + n_values)] = rnd.choice(
            ["x", "nan", "-inf", "1e400", "1.0.0"])
    elif how == "index":
        row[rnd.randrange(2)] = rnd.choice(["-1", "1.5", "", str(10 ** 12), str(2 ** 70)])
    elif how == "weight":
        row[2] = repr(float(row[2]) * 2 + 1)
    elif how == "missing":
        last = max(int(r[0]) for r in data)
        pair = rnd.choice([r[:2] for r in data if int(r[0]) < last])
        data = [r for r in data if r[:2] != pair]
    elif how == "count":
        del row[3 + rnd.randrange(n_values)]
        if header[3] == "re0" and n_values > 2 and rnd.random() < 0.5:
            del row[3]
    else:
        header[rnd.randrange(3)] = "index"
    return "".join(",".join(r) + "\n" for r in [header] + data)


def _corrupted_json(text, rnd):
    """``text`` with one number of its weights or elements replaced by a token
    every reader refuses there, or cut short."""
    if rnd.random() < 0.2:
        return text[:rnd.randrange(len(text))]
    payload = json.loads(text)
    leaves = [(payload["weights"], i) for i in range(len(payload["weights"]))]
    for row in payload["elements"]:
        for block in row:
            for i, entry in enumerate(block):
                leaves += [(entry, j) for j in range(2)] if type(entry) is list else [(block, i)]
    parent, key = rnd.choice(leaves)
    parent[key] = "CORRUPT"
    token = rnd.choice(["NaN", "Infinity", "-Infinity", "1e400", f"-{10 ** 400}", '"0.5"',
                        "true", "null", "[0.5]", "{}", "[" * 3000 + "]" * 3000])
    return json.dumps(payload).replace('"CORRUPT"', token)


@settings(max_examples=120)
@given(systems(), st.randoms(use_true_random=False),
       st.sampled_from([1, 2, 3, serialization.CSV_SLICE]))
def test_csv_reader_equals_the_row_reference(system, rnd, csv_slice):
    # at 1-3 rows a slice, pairs, weights and blank runs span the slices
    text = system_to_csv(system)
    mutated = _mutated_csv(text, rnd)
    corrupted = _mutated_csv(_corrupted_csv_rows(text, rnd), rnd)
    with mock.patch.object(serialization, "CSV_SLICE", csv_slice):
        assert _same_bytes(system_from_csv(mutated), row_csv(mutated))
        assert _same_bytes(system_from_csv(text), system)
        for reader in (system_from_csv, row_csv):
            with pytest.raises(StructuralError):
                reader(corrupted)


def test_csv_module_error_past_a_huge_index_in_an_earlier_slice():
    # the index stops the first pass before the second slice is read; the
    # scan that names the fault then meets the oversized field
    text = f"element,atom,weight,v0\n0,{2 ** 63},1.0,1.0\n0,0,1.0,{'1' * 200_000}\n"
    with mock.patch.object(serialization, "CSV_SLICE", 1):
        with pytest.raises(StructuralError, match="malformed CSV at line 3: field larger"):
            system_from_csv(text)


@settings(max_examples=120)
@given(systems(), st.randoms(use_true_random=False))
def test_json_reader_equals_the_json_loads_reference(system, rnd):
    text = system_to_json(system)
    # indented, and whole floats written as integers: the same values
    payload = json.loads(text)
    reformed = json.dumps(payload, indent=rnd.choice([None, 1, 2])).replace(".0,", ",")
    for variant in (text, reformed):
        assert _same_bytes(system_from_json(variant), json_reference(variant))
    assert _same_bytes(system_from_json(text), system)
    corrupted = _corrupted_json(text, rnd)
    for reader in (system_from_json, json_reference):
        with pytest.raises(StructuralError):
            reader(corrupted)
