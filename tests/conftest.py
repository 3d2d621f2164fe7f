import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from orthoseries import (Field, HilbertCollection, MeasureSpace, OrthonormalSystem,
                         SystemKind, SystemSpec, generate, run_suite, verify)


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def run_check(cfg, check, threads=None):
    """One check's result, run alone: the suite of ``cfg`` with only ``check``."""
    return run_suite(replace(cfg, checks={check}), threads=threads).results[check]


def run_plan(setup, cfg, systems):
    """The one result of ``setup``'s plan on the given ``systems`` (which a
    test may have tampered with), at one worker."""
    [result] = verify._run_plans([setup(cfg, systems)], 1, [0.0])
    return result


@pytest.fixture
def std3():
    """Standard basis on 3 atoms, counting measure."""
    return generate(SystemSpec(SystemKind.STANDARD_BASIS, 3))


def non_hermitian_gram_system():
    """Two functions on one atom of mass 0.3 whose Gram matrix is not
    Hermitian to 1e-12: G[0, 1] = (a w) b and G[1, 0] = (b w) a round 1.9e-6
    apart for a = 1e6/3, b = 1e6/7 (one product per entry, so no summation
    order enters)."""
    return OrthonormalSystem(MeasureSpace(weights=np.array([0.3])),
                             HilbertCollection(dims=np.array([1])),
                             np.array([[1e6 / 3], [1e6 / 7]]))


def random_space(gen, max_atoms=6, max_dim=3, complex_field=False):
    """A random conforming (space, fibers) pair for property tests."""
    m = int(gen.integers(1, max_atoms + 1))
    weights = gen.random(m) * 2.0
    weights[int(gen.integers(0, m))] += 0.5  # keep at least one positive
    dims = gen.integers(1, max_dim + 1, size=m)
    field = Field.COMPLEX if complex_field else Field.REAL
    return MeasureSpace(weights=weights), HilbertCollection(dims=dims, field=field)


def random_element(gen, fibers):
    flat = gen.standard_normal(fibers.total_dim)
    if fibers.field is Field.COMPLEX:
        flat = flat + 1j * gen.standard_normal(fibers.total_dim)
    from orthoseries import DirectIntegralElement
    return DirectIntegralElement(values=flat, fibers=fibers)


# one derandomized hypothesis profile: every run draws the same examples and
# no example database is written
settings.register_profile("orthoseries", derandomize=True, database=None, deadline=None)
settings.load_profile("orthoseries")
# hypothesis still caches the constants it reads from the source at collection:
# in the temporary directory, not in a .hypothesis/ of the working directory
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "orthoseries-hypothesis"))
