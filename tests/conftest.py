import os

import numpy as np
import pytest
from hypothesis import settings

from dirac_surface.corpus import load_corpus
from dirac_surface.expr import parse_immersion_file

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


# periodic fixture with a genuinely varying metric (the corpus periodic
# surfaces are all flat-metric), used by the summation-by-parts tests
RING_TORUS = """
name: ring-torus
params: u v
x1: (2 + 0.5*cos(u))*cos(v)
x2: (2 + 0.5*cos(u))*sin(v)
x3: 0.5*sin(u)
x4: 0
domain: u 0 2*pi v 0 2*pi
periodic: true true
"""


def rng_seed() -> int:
    return int(os.environ.get("DIRAC_SURFACE_SEED", "20260808"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(rng_seed())


@pytest.fixture(scope="session")
def plane():
    return load_corpus("plane")


@pytest.fixture(scope="session")
def plane_torus():
    return load_corpus("plane-torus")


@pytest.fixture(scope="session")
def graph():
    return load_corpus("graph")


@pytest.fixture(scope="session")
def sphere():
    return load_corpus("sphere")


@pytest.fixture(scope="session")
def clifford():
    return load_corpus("clifford")


@pytest.fixture(scope="session")
def clifford_rotated():
    return load_corpus("clifford-rotated")


@pytest.fixture(scope="session")
def moebius_clifford():
    return load_corpus("moebius-clifford")


@pytest.fixture(scope="session")
def bump_torus():
    return load_corpus("bump-torus")


@pytest.fixture(scope="session")
def ring_torus():
    return parse_immersion_file(RING_TORUS)


def interior_lattice(spec, n1, n2):
    (lo1, hi1), (lo2, hi2) = spec.domain
    return [
        (
            lo1 + (hi1 - lo1) * (i + 1) / (n1 + 1),
            lo2 + (hi2 - lo2) * (j + 1) / (n2 + 1),
        )
        for i in range(n1)
        for j in range(n2)
    ]
