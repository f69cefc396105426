"""Fixtures shared by the test modules."""

import pytest

from maxreg import boundary, polygons

# the exact derivations the package keeps for the life of the process
EXACT_CACHES = (
    polygons.order_function_of,
    polygons.polygon_of,
    polygons._elementary_pieces,
    polygons.chg_shape,
    polygons.trace_order_function,
    polygons._vertex_terms,
    boundary.dirichlet_pair,
    boundary.neumann_pair_13,
)


@pytest.fixture
def exact_caches():
    """The exact caches, emptied: a test that counts calls sees every
    derivation its code asks for made once, whatever ran before it."""
    for fn in EXACT_CACHES:
        fn.cache_clear()
    return EXACT_CACHES
