"""Shared test oracles, handed to the test modules as fixtures."""

import collections
import functools
import itertools
from fractions import Fraction

import pytest

from toroidal.cones import Cone


@functools.cache
def _relations_up_to_degree_6(cone: Cone):
    """Binomial relations among Hilbert elements up to total degree 6.

    The validator before the exact face-lattice check: a bounded sample of
    relations, kept as a reference.  Each relation is a pair of exponent
    tuples ((h, e), ...) with equal weighted sums; each monomial is paired
    with the first monomial of the same weighted sum.
    """
    buckets = {}
    for size in range(7):
        for combo in itertools.combinations_with_replacement(cone.hilbert_basis, size):
            total = tuple(sum(c[k] for c in combo) for k in range(cone.dim))
            buckets.setdefault(total, []).append(combo)
    rels = []
    for combos in buckets.values():
        base = _exponents(combos[0])
        rels.extend((base, _exponents(other)) for other in combos[1:])
    return tuple(rels)


def _exponents(combo):
    return tuple(sorted(collections.Counter(combo).items()))


def _oracle_accepts(cone: Cone, values) -> bool:
    """Whether a value map satisfies every relation up to degree 6."""

    def monomial(exponents):
        out = Fraction(1)
        for h, e in exponents:
            out *= values[h] ** e
        return out

    return all(monomial(l) == monomial(r) for l, r in _relations_up_to_degree_6(cone))


@pytest.fixture(scope="session")
def relations_up_to_degree_6():
    return _relations_up_to_degree_6


@pytest.fixture(scope="session")
def oracle_accepts():
    return _oracle_accepts
