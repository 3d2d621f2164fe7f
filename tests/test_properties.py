"""Property tests: the dyadic partition, the adversarial orders, the
streaming majorant against its materializing oracle, the exact diameter
kernel's candidate filter, bit-exact system round trips, strict JSON and
float listings (arrays and system JSON) with repr's bytes.  The hypothesis
profile in conftest.py derandomizes them."""

import json
import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoseries import majorants, serialization
from orthoseries import (AdversarialStrategy, Field, HilbertCollection, MeasureSpace,
                         OrthonormalSystem, SystemKind, SystemSpec,
                         adversarial_permutation, dyadic_decomposition, generate,
                         majorant, oracle_majorant, tandori_blocks)
from orthoseries.serialization import (dumps, system_from_csv, system_from_json,
                                       system_to_csv, system_to_json)

# finite floats with signed zeros, and no magnitude below 1e-100 but zero, so
# that no square underflows into the subnormal range
finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(-1e3, 1e3).map(lambda x: math.copysign(0.0, x) if abs(x) < 1e-100 else x)


@lru_cache(maxsize=None)
def _system(kind: SystemKind, n: int, field: Field = Field.REAL) -> OrthonormalSystem:
    kw = {}
    if kind is SystemKind.RANDOM_QR:
        kw = {"resolution": n, "fiber_dim": 2 - (field is Field.COMPLEX), "seed": n,
              "field": field}
    elif kind is SystemKind.TENSOR_VECTOR:
        kw = {"fiber_dim": 3}
    return generate(SystemSpec(kind, n, **kw))[2]


# -- the dyadic partition ------------------------------------------------------

@st.composite
def prefix_lengths(draw):
    r = draw(st.integers(0, 40))
    return draw(st.integers(1, 1 << r)), r


@given(prefix_lengths())
def test_dyadic_blocks_tile_the_prefix_in_decreasing_powers_of_two(jr):
    j, r = jr
    blocks = dyadic_decomposition(j, r).blocks
    assert len(blocks) == bin(j).count("1") <= r + 1
    assert blocks[0][0] == 0 and blocks[-1][1] == j
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert all(s & (s - 1) == 0 for s in sizes)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


# -- the adversarial orders ----------------------------------------------------

# few distinct magnitudes, so ties are common
tied = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0]) | moderate


@given(st.lists(tied, min_size=2, max_size=64))
def test_greedy_plan_is_the_stable_decreasing_magnitude_order(coeffs):
    n = len(coeffs)
    order = adversarial_permutation(_system(SystemKind.STANDARD_BASIS, n), np.array(coeffs), n,
                                    AdversarialStrategy.GREEDY_MAX_PREFIX).tolist()
    assert sorted(order) == list(range(n))
    mags = [abs(coeffs[i]) for i in order]
    for (i, a), (j, b) in zip(zip(order, mags), zip(order[1:], mags[1:])):
        assert a > b or (a == b and i < j)


@given(st.integers(2, 4096))
def test_block_reversal_fixes_0_1_and_maps_each_block_onto_itself(n):
    # the plan reads only the length of the system: one scalar atom will do
    system = OrthonormalSystem(MeasureSpace(weights=np.ones(1)),
                               HilbertCollection(dims=np.ones(1, dtype=int)), np.ones((n, 1)))
    order = adversarial_permutation(system, np.ones(n), n,
                                    AdversarialStrategy.BLOCK_REVERSAL).tolist()
    assert order[:2] == [0, 1]
    # block [lo, hi] of the 1-based indices holds positions lo - 1 .. hi - 1
    for lo, hi in tandori_blocks(n).ranges if n >= 3 else ():
        assert order[lo - 1:hi] == list(range(hi - 1, lo - 2, -1))


# -- the streaming majorant ----------------------------------------------------

KINDS = [(SystemKind.STANDARD_BASIS, Field.REAL), (SystemKind.HAAR, Field.REAL),
         (SystemKind.RANDOM_QR, Field.REAL), (SystemKind.RANDOM_QR, Field.COMPLEX),
         (SystemKind.TENSOR_VECTOR, Field.REAL), (SystemKind.VARYING_DIM, Field.REAL)]


@st.composite
def systems_and_coefficients(draw):
    kind, field = draw(st.sampled_from(KINDS))
    system = _system(kind, draw(st.sampled_from([1, 2, 5, 8, 16, 33])), field)
    n = len(system)
    b = np.array(draw(st.lists(moderate, min_size=n, max_size=n)))
    if field is Field.COMPLEX:
        b = b + 1j * np.array(draw(st.lists(moderate, min_size=n, max_size=n)))
    return system, b, draw(st.integers(1, n))


@given(systems_and_coefficients())
def test_streaming_majorant_matches_the_oracle(case):
    system, b, n = case
    fast, slow = majorant(system, b[:n]), oracle_majorant(system, b[:n])
    assert np.all(np.abs(fast.values - slow.values) <= 1e-13 * slow.values)
    assert abs(fast.l2_norm - slow.l2_norm) <= 1e-13 * slow.l2_norm


# -- the candidate filter of the exact diameter kernel -------------------------

@st.composite
def point_sets(draw):
    """Prefix rows (m, T) of atoms of dimension 1-5, or 16-48 (d >> m for
    few rows), and their offsets: a walk, an iid cloud, small integers (many
    tied rows and distances) or rows on a sphere about a point, scaled by
    2^-600 to 2^500."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)
                | st.lists(st.integers(16, 48), min_size=1, max_size=2))
    m = draw(st.integers(2, 80))
    offsets = np.concatenate([[0], np.cumsum(dims)])
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    P = gen.standard_normal((m, offsets[-1]))
    kind = draw(st.sampled_from(["walk", "cloud", "ties", "sphere"]))
    if kind == "walk":
        P = np.cumsum(P, axis=0)
    elif kind == "ties":
        P = np.round(P)
    elif kind == "sphere":
        for a, b in zip(offsets[:-1], offsets[1:]):
            P[:, a:b] /= np.linalg.norm(P[:, a:b], axis=1, keepdims=True)
            P[:, a:b] += gen.standard_normal(b - a)
    return np.ldexp(P, draw(st.integers(-600, 500))), offsets


@given(point_sets())
def test_candidate_filter_keeps_the_all_pairs_diameter_bits(case):
    P, offsets = case
    with mock.patch.object(majorants, "_filtered", lambda m, d: True):
        filtered = majorants._pointwise_diameters(P, offsets)
    with mock.patch.object(majorants, "_filtered", lambda m, d: False):
        all_pairs = majorants._pointwise_diameters(P, offsets)
    assert filtered.tobytes() == all_pairs.tobytes()


# -- bit-exact round trips -----------------------------------------------------

@st.composite
def hand_built_systems(draw, entries=finite | st.sampled_from([0.0, -0.0])):
    # ragged dims, or one dim on every atom
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                | st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda dm: [dm[0]] * dm[1]))
    weights = draw(st.lists(st.floats(0.0, 1e300), min_size=len(dims), max_size=len(dims)))
    weights[draw(st.integers(0, len(dims) - 1))] = draw(st.floats(1e-300, 1e300))
    field = draw(st.sampled_from(Field))
    rows = draw(st.integers(1, 4))
    width = sum(dims) * (2 if field is Field.COMPLEX else 1)
    values = np.array(draw(st.lists(entries, min_size=rows * width, max_size=rows * width)))
    values = values.reshape(rows, width)
    if field is Field.COMPLEX:
        values = values.view(np.complex128)
    return OrthonormalSystem(MeasureSpace(weights=np.array(weights)),
                             HilbertCollection(dims=np.array(dims), field=field), values)


@given(hand_built_systems())
def test_json_and_csv_round_trips_are_bit_exact(system):
    for text, reader in ((system_to_json(system), system_from_json),
                         (system_to_csv(system), system_from_csv)):
        back = reader(text)
        assert back.fibers.field is system.fibers.field
        assert np.array_equal(back.fibers.dims, system.fibers.dims)
        assert back.space.weights.tobytes() == system.space.weights.tobytes()
        assert back.values.dtype == system.values.dtype
        assert back.values.tobytes() == system.values.tobytes()


# -- strict JSON ---------------------------------------------------------------

keys = st.text("abc", max_size=2)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | keys,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=8)


def _nulled(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_nulled(v) for v in value]
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    return value


@given(json_values)
def test_dumps_is_strict_json_that_nulls_only_non_finite_floats(payload):
    # a finite payload keeps the bytes of json.dumps
    assert dumps(payload, sort_keys=True) == json.dumps(_nulled(payload), sort_keys=True)


# -- float listings: orjson's digits are repr's --------------------------------

# repr writes plain decimals for 1e-4 <= |x| < 1e16; these sit on both sides
# of both ends, with the extremes and the values written as null
EDGES = [0.0, -0.0, 1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e16, 0)),
         1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
bit_patterns = st.integers(0, (1 << 64) - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
listed = bit_patterns | st.sampled_from(EDGES) | st.sampled_from(EDGES).map(float.__neg__)


@given(st.lists(listed, max_size=12))
def test_float_listing_is_the_bytes_of_dumps(values):
    a = np.array(values, dtype=np.float64)
    # pieces of three floats put the repr tokens on both sides of piece edges
    with mock.patch.object(serialization, "LIST_SLICE", 3):
        text = "".join(serialization.iterdumps({"x": a}))
    assert text == dumps({"x": values}, sort_keys=True)


def test_float_listing_of_in_range_bit_patterns_is_repr():
    # random sign and mantissa bits under every exponent from 2^-14 to 2^53:
    # each float of the range repr writes in plain decimals is reachable
    g = np.random.default_rng(20181)
    n = 250_000
    bits = (g.integers(0, 1 << 52, n, dtype=np.uint64)
            | (g.integers(1009, 1077, n, dtype=np.uint64) << np.uint64(52))
            | (g.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)))
    a = bits.view(np.float64)
    a = a[(1e-4 <= np.abs(a)) & (np.abs(a) < 1e16)]
    assert len(a) > 200_000
    listed = "".join(serialization.iterdumps({"x": a}))
    assert listed == '{"x": [' + ", ".join(map(float.__repr__, a.tolist())) + "]}"


@pytest.mark.parametrize("a", [np.arange(3), np.ones(3, dtype=np.float32), np.ones((2, 2)),
                               np.array([True])], ids=["int64", "float32", "2-D", "bool"])
def test_float_listing_refuses_other_arrays(a):
    with pytest.raises(TypeError, match="1-D float64"):
        "".join(serialization.iterdumps({"x": a}))


def _nested_payload(system):
    """The system as nested Python lists, one ``tolist()`` per element row: the
    per-row listing that ``system_json_pieces`` replaced, kept as its reference."""
    values, off = system.values, system.fibers.offsets.tolist()
    if system.fibers.field is Field.COMPLEX:
        values = values.view(np.float64).reshape(len(system), -1, 2)
    return {"schema_version": 1, "field": system.fibers.field.value,
            "weights": system.space.weights.tolist(), "dims": system.fibers.dims.tolist(),
            "elements": [[row[lo:hi] for lo, hi in zip(off, off[1:])] for row in values.tolist()]}


@given(hand_built_systems(listed))
def test_system_json_is_the_bytes_of_dumps(system):
    text = "".join(serialization.system_json_pieces(system))
    assert text == dumps(_nested_payload(system), sort_keys=True)


def test_system_json_weights_in_pieces_are_the_bytes_of_dumps():
    weights = np.array([1e-5, 0.25, 3e20, 0.0, 5e-324])
    fibers = HilbertCollection(dims=np.array([1, 2, 1, 3, 1]), field=Field.COMPLEX)
    values = np.array(EDGES + [1e-7, 3e20, -2.5e-300, 0.5, 1e16 + 2.0]).view(np.complex128)
    system = OrthonormalSystem(MeasureSpace(weights=weights), fibers, values.reshape(1, 8))
    whole = list(serialization.system_json_pieces(system))
    with mock.patch.object(serialization, "LIST_SLICE", 2):
        pieces = list(serialization.system_json_pieces(system))
    # the five weights come out as three pieces, not one
    assert len(pieces) == len(whole) + 2
    assert "".join(pieces) == "".join(whole) == dumps(_nested_payload(system), sort_keys=True)
