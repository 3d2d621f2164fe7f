"""The two-scan compensated_cumsum against the per-term Neumaier loop it
replaced, compared bit for bit."""

import math
import warnings

import numpy as np
import pytest

from orthoseries import SequenceSpec, WeightSpec, coefficients
from orthoseries.coefficients import orlicz_conditions, weyl_sum
from orthoseries.summation import compensated_cumsum, compensated_sum

from conftest import rng


def loop_cumsum(terms):
    """The reference: Neumaier's recurrence, one term at a time."""
    terms = np.asarray(terms, dtype=float)
    out = np.empty_like(terms)
    total = 0.0
    comp = 0.0
    for i, x in enumerate(terms):
        s = total + x
        if abs(total) >= abs(x):
            comp += (total - s) + x
        else:
            comp += (x - s) + total
        total = s
        out[i] = total + comp
    return out


def both(terms):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return loop_cumsum(terms), compensated_cumsum(terms)


INF, NAN = float("inf"), float("nan")

EDGE_CASES = [
    [], [0.0], [-0.0], [5e-324], [INF], [-INF], [NAN],
    [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, 1.0, -1.0, -0.0],
    [5e-324, -5e-324, -0.0],
    [1.0, 1e100, 1.0, -1e100], [1e-300, 1e300, -1e300, 1e-300],
    # overflow to inf, and inf - inf inside the correction
    [1e308, 1e308, -1e308], [1e308, 1e308, 1.0], [-1e308, -1e308, 1e308],
    [INF, 1.0, -INF], [1.0, INF, 2.0], [-INF, 3.0],
    # a NaN term poisons every later sum
    [1.0, NAN, 2.0], [NAN, -0.0], [0.1, 0.2, NAN],
]


@pytest.mark.parametrize("terms", EDGE_CASES, ids=repr)
def test_bitwise_equal_to_the_loop_on_edge_cases(terms):
    want, got = both(terms)
    assert got.tobytes() == want.tobytes()


def test_bitwise_equal_on_magnitudes_from_1e_minus_300_to_1e300():
    gen = rng(31)
    for trial in range(300):
        n = int(gen.integers(0, 120))
        terms = gen.standard_normal(n) * 10.0 ** gen.integers(-300, 301, size=n)
        if trial % 4 == 0 and n:
            terms[gen.integers(0, n, size=n // 6)] = -0.0
        want, got = both(terms)
        assert got.tobytes() == want.tobytes(), trial


def test_bitwise_equal_across_blocks():
    # long enough to cross many block boundaries, with signed zeros, a
    # cancellation and an overflow placed on and around them
    gen = rng(32)
    n = 5 * 4096 + 17
    for trial in range(4):
        terms = gen.standard_normal(n) * 10.0 ** gen.integers(-300, 301, size=n)
        if trial == 1:
            terms[:5000] = -0.0
        if trial == 2:
            terms[4094:4099] = [1e300, -1e300, -0.0, 1e-300, -1e-300]
        if trial == 3:
            terms[8190:8194] = [1e308, 1e308, -1e308, 1.0]
        want, got = both(terms)
        assert got.tobytes() == want.tobytes(), trial


def test_mixed_nan_sources_agree_except_for_the_sign_of_nan():
    # A NaN term and an inf - inf NaN differ in sign; which of the two an
    # addition keeps depends on the operand order the compiler chose for the
    # scalar loop.  Every other bit, and where the NaNs are, must agree.
    for terms in ([NAN, INF, -INF, 1.0], [INF, -INF, NAN, 2.0], [1e308, 1e308, -1e308, NAN]):
        want, got = both(terms)
        nan = np.isnan(want)
        assert np.array_equal(nan, np.isnan(got))
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_bitwise_equal_on_the_condition_sums_at_2_to_the_19(monkeypatch):
    """The three running sums the conditions benchmark lists at 2^19 terms:
    the Weyl sum and both Orlicz sums of a_n = 1/(n log2^2(n+1)), w_n = log2^1.5."""
    seen = []

    def record(terms):
        seen.append(np.array(terms))
        return compensated_cumsum(terms)

    monkeypatch.setattr(coefficients, "compensated_cumsum", record)
    a = SequenceSpec.power_log(1.0, 1.0, 2.0)
    weyl_sum(a, 1 << 19)
    orlicz_conditions(a, WeightSpec.log_power(1.5), 1 << 19)
    assert [t.size for t in seen] == [1 << 19, (1 << 19) - 1, (1 << 19) - 1]
    for terms in seen:
        want, got = both(terms)
        assert got.tobytes() == want.tobytes()


def test_compensated_sum_overflow_is_the_plain_sum():
    # math.fsum raises on intermediate overflow; the sum is then +-inf
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert compensated_sum(np.full(4, -1e308)) == -math.inf
    assert compensated_sum([1e308, 1e-300, -1e308]) == 1e-300


@pytest.mark.parametrize("case", ["random", "mixed-magnitude", "strided-2d", "scalar", "overflow"])
def test_compensated_sum_is_fsum_of_the_listed_floats(case):
    # fsum reads the array through a memoryview: the same floats as a list
    # of them, so the same sum, or the same OverflowError and the np.sum
    # fallback
    gen = rng(81)
    terms = {
        "random": gen.standard_normal(1 << 12),
        "mixed-magnitude": gen.standard_normal(1 << 12) * 10.0 ** gen.integers(-300, 300, 1 << 12),
        "strided-2d": gen.standard_normal((64, 96))[::3, ::-2],
        "scalar": np.float64(0.1),
        "overflow": np.concatenate([np.full(8, 1e308), gen.standard_normal(64), [-1e308]]),
    }[case]
    listed = np.asarray(terms, dtype=float).ravel().tolist()
    if case == "overflow":
        with pytest.raises(OverflowError):
            math.fsum(listed)
        with np.errstate(over="ignore"):
            assert compensated_sum(terms) == float(np.sum(terms)) == math.inf
    else:
        assert compensated_sum(terms) == math.fsum(listed)
