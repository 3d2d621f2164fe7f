import csv
import io
import json
import math

import numpy as np
import pytest

from orthoseries import (Field, HilbertCollection, MeasureSpace, OrthonormalSystem,
                         StructuralError, SystemKind, SystemSpec, generate)
from orthoseries.serialization import (dumps, system_from_csv, system_from_json,
                                       system_to_csv, system_to_json)


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


def test_json_missing_key():
    with pytest.raises(StructuralError, match="weights"):
        system_from_json('{"field": "real", "dims": [1], "elements": []}')


def test_csv_bad_header():
    with pytest.raises(StructuralError, match="header"):
        system_from_csv("a,b,c\n1,2,3\n")


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
    payload = {"field": "real", "weights": [1.0, 1.0], "dims": [1, 2],
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


# -- strict JSON ---------------------------------------------------------------

def test_dumps_writes_non_finite_floats_as_null():
    # numpy scalars and tuples too; finite payloads are a property test
    payload = {"r": float("nan"), "v": [1.0, float("inf"), (float("-inf"), 2.0)],
               "d": {"k": np.float64("nan"), "n": 3}}
    assert json.loads(dumps(payload, sort_keys=True)) == {
        "r": None, "v": [1.0, None, [None, 2.0]], "d": {"k": None, "n": 3}}
