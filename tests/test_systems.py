import numpy as np
import pytest

from orthoseries import (ContractError, Field, SystemKind, SystemSpec,
                         generate, gram_matrix, validate_ons)


ALL_KINDS = list(SystemKind)


def spec_for(kind, n, **kw):
    if kind is SystemKind.RANDOM_QR:
        kw.setdefault("fiber_dim", 2)
        kw.setdefault("resolution", max(1, -(-n // 2)))
        kw.setdefault("seed", 7)
    if kind is SystemKind.TENSOR_VECTOR:
        kw.setdefault("fiber_dim", 3)
    return SystemSpec(kind, n, **kw)


def test_standard_basis_is_identity():
    space, fibers, system = generate(SystemSpec(SystemKind.STANDARD_BASIS, 3))
    assert space.n_atoms == 3
    assert np.array_equal(gram_matrix(system).gram, np.eye(3))


def test_rademacher_sign_patterns():
    # direct enumeration for two functions on the 4-atom grid
    space, fibers, system = generate(SystemSpec(SystemKind.RADEMACHER, 2))
    assert space.n_atoms == 4
    assert np.allclose(space.weights, 0.25)
    assert np.array_equal(system.values[0], [1, 1, -1, -1])
    assert np.array_equal(system.values[1], [1, -1, 1, -1])
    assert np.array_equal(gram_matrix(system).gram, np.eye(2))


def test_random_qr_spec_example():
    spec = SystemSpec(SystemKind.RANDOM_QR, 8, resolution=16, fiber_dim=2, seed=42)
    space, fibers, system = generate(spec)
    ok, _ = validate_ons(system, tol=1e-10)
    assert ok
    assert space.n_atoms == 16
    assert np.all(fibers.dims == 2)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_every_kind_validates(kind, n):
    space, fibers, system = generate(spec_for(kind, n))
    ok, report = validate_ons(system, tol=1e-10)
    assert ok, f"{kind} n={n}: offdiag {report.max_offdiag_abs}"
    assert len(system) == n


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism(kind):
    a = generate(spec_for(kind, 6))[2]
    b = generate(spec_for(kind, 6))[2]
    assert np.array_equal(a.values, b.values)


def test_random_qr_seed_changes_system():
    a = generate(SystemSpec(SystemKind.RANDOM_QR, 4, resolution=4, seed=1))[2]
    b = generate(SystemSpec(SystemKind.RANDOM_QR, 4, resolution=4, seed=2))[2]
    assert not np.array_equal(a.values, b.values)


def test_tensor_vector_dim_one_reduces_to_base():
    tensor = generate(SystemSpec(SystemKind.TENSOR_VECTOR, 5, fiber_dim=1))[2]
    base = generate(SystemSpec(SystemKind.HAAR, 5))[2]
    assert np.array_equal(tensor.values, base.values)
    assert np.array_equal(tensor.fibers.dims, base.fibers.dims)
    assert np.array_equal(tensor.space.weights, base.space.weights)


def test_varying_dim_has_multiple_fiber_dims():
    space, fibers, system = generate(SystemSpec(SystemKind.VARYING_DIM, 9))
    positive = fibers.dims[np.asarray(space.weights) > 0]
    assert len(set(int(d) for d in positive)) >= 2


def test_complex_random_qr():
    spec = SystemSpec(SystemKind.RANDOM_QR, 6, resolution=8, fiber_dim=1,
                      seed=3, field=Field.COMPLEX)
    space, fibers, system = generate(spec)
    assert system.values.dtype.kind == "c"
    assert np.abs(system.values.imag).max() > 0
    ok, _ = validate_ons(system, tol=1e-10)
    assert ok


def test_complex_embedding_of_real_kinds():
    space, fibers, system = generate(
        SystemSpec(SystemKind.HAAR, 4, field=Field.COMPLEX))
    assert system.values.dtype.kind == "c"
    assert np.all(system.values.imag == 0)
    assert validate_ons(system, tol=1e-10)[0]


def test_haar_default_resolution_is_smallest_power_of_two():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (9, 16)]:
        space, _, _ = generate(SystemSpec(SystemKind.HAAR, n))
        assert space.n_atoms == want


def test_haar_rejects_too_small_or_non_pow2_resolution():
    with pytest.raises(ContractError):
        generate(SystemSpec(SystemKind.HAAR, 5, resolution=4))
    with pytest.raises(ContractError):
        generate(SystemSpec(SystemKind.HAAR, 5, resolution=12))


def test_rademacher_resolution_rules():
    with pytest.raises(ContractError):
        generate(SystemSpec(SystemKind.RADEMACHER, 3, resolution=4))
    with pytest.raises(ContractError):
        generate(SystemSpec(SystemKind.RADEMACHER, 2, resolution=6))
    space, _, system = generate(SystemSpec(SystemKind.RADEMACHER, 2, resolution=16))
    assert space.n_atoms == 16
    assert validate_ons(system, 1e-12)[0]


def test_random_qr_capacity():
    with pytest.raises(ContractError):
        generate(SystemSpec(SystemKind.RANDOM_QR, 9, resolution=4, fiber_dim=2))


def test_bad_spec_values():
    with pytest.raises(ContractError):
        SystemSpec(SystemKind.HAAR, 0)
    with pytest.raises(ContractError):
        SystemSpec(SystemKind.RANDOM_QR, 4, fiber_dim=0)


@pytest.mark.parametrize("kind,key,value", [
    (SystemKind.STANDARD_BASIS, "fiber_dim", 3),
    (SystemKind.RADEMACHER, "fiber_dim", 2),
    (SystemKind.HAAR, "fiber_dim", 3),
    (SystemKind.VARYING_DIM, "fiber_dim", 2),
    (SystemKind.STANDARD_BASIS, "resolution", 99),
    (SystemKind.VARYING_DIM, "resolution", 8),
], ids=lambda v: v.value if isinstance(v, SystemKind) else str(v))
def test_a_field_the_kind_does_not_read_is_refused(kind, key, value):
    with pytest.raises(ContractError, match=f"{kind.value} reads no '{key}' \\(got {value}\\)"):
        SystemSpec(kind, 8, **{key: value})
    # the same kind takes the field at its default
    SystemSpec(kind, 8, **{key: 1 if key == "fiber_dim" else None})


@pytest.mark.parametrize("kind,fits,over", [
    (SystemKind.STANDARD_BASIS, {"n_functions": 8}, {"n_functions": 9}),
    (SystemKind.HAAR, {"n_functions": 8}, {"n_functions": 9}),
    (SystemKind.RADEMACHER, {"n_functions": 4}, {"n_functions": 5}),
    (SystemKind.RANDOM_QR, {"n_functions": 8, "resolution": 4, "fiber_dim": 2},
     {"n_functions": 9, "resolution": 5, "fiber_dim": 2}),
    (SystemKind.TENSOR_VECTOR, {"n_functions": 8, "fiber_dim": 2},
     {"n_functions": 9, "fiber_dim": 2}),
    (SystemKind.VARYING_DIM, {"n_functions": 5}, {"n_functions": 6}),
], ids=lambda v: v.value if isinstance(v, SystemKind) else None)
def test_every_builder_checks_the_size_limit(monkeypatch, kind, fits, over):
    # at a limit of 64 values each kind builds its largest system within it
    # (64 values; 60 for varying-dim, whose width grows by 12) and refuses
    # the next size up
    import orthoseries.systems as systems
    monkeypatch.setattr(systems, "MAX_SYSTEM_VALUES", 64)
    _, _, system = generate(SystemSpec(kind, **fits))
    assert system.values.size == (60 if kind is SystemKind.VARYING_DIM else 64)
    with pytest.raises(ContractError, match="limit"):
        generate(SystemSpec(kind, **over))
