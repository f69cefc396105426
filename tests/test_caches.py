"""Values the package derives once per process and hands to every caller:
each equals what its uncached function computes, and none can be changed
through the copy a caller holds."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from maxreg import halfspace, polygons
from maxreg.boundary import _default_chi, bc_from_jsonable, dirichlet_pair, neumann_pair_13
from maxreg.factorization import MU_D, MU_MINUS, T1_ORDER
from maxreg.halfspace import HalfGrid, derivative_matrix
from maxreg.polygons import elementary_decomposition

README = Path(__file__).resolve().parents[1] / "README.md"
BOUNDARY_FILE = re.search(r"^  ```json\n(.*?)^  ```", README.read_text(), re.M | re.S).group(1)
README_OPS, _, README_NU = bc_from_jsonable(json.loads(BOUNDARY_FILE))

ORDERS = {"mu_D": MU_D, "mu_minus": MU_MINUS, "T1": T1_ORDER,
          "README neumann file": MU_D + README_NU}


@pytest.mark.parametrize("mu", ORDERS.values(), ids=ORDERS)
def test_cached_derivations_equal_their_uncached_functions(exact_caches, mu):
    for _ in range(2):  # the call that fills the cache, then a hit
        poly = polygons.polygon_of(mu)
        assert poly == polygons.polygon_of.__wrapped__(mu)
        assert polygons.order_function_of(poly) \
            == polygons.order_function_of.__wrapped__(poly) == mu
        assert polygons._elementary_pieces(mu) \
            == polygons._elementary_pieces.__wrapped__(mu)
        shape = polygons.chg_shape(mu)
        assert shape == polygons.chg_shape.__wrapped__(mu) is not None
        for j in range(shape.r1):
            assert polygons.trace_order_function(mu, j) \
                == polygons.trace_order_function.__wrapped__(mu, j)


def test_cached_pairs_equal_their_uncached_functions(exact_caches):
    for pair in (dirichlet_pair, neumann_pair_13):
        assert pair() == pair.__wrapped__() and pair() is pair()
    # the README's Neumann file targets the spaces of the builtin pair
    assert [_default_chi(op, README_NU) for op in README_OPS] \
        == [op.chi for op in neumann_pair_13.__wrapped__()]


def test_cached_failures_raise_every_time(exact_caches):
    for _ in range(2):
        with pytest.raises(ValueError, match="trace index 4 outside"):
            polygons.trace_order_function(MU_D, 4)
    assert polygons.trace_order_function.cache_info().currsize == 0


def test_decomposition_list_is_the_callers_own(exact_caches):
    want = list(polygons._elementary_pieces.__wrapped__(MU_D))
    first = elementary_decomposition(MU_D)
    first.append((0, 0))
    first[0] = None
    assert elementary_decomposition(MU_D) == want


def test_cached_arrays_are_read_only():
    grid = HalfGrid(K=2, n=2, N=4, Nn=64)
    index, tau, xi = grid.column_mesh()
    cached = [*index, tau, xi, *(grid.trace_stencil(j) for j in range(4)),
              derivative_matrix(grid.Nn, grid.h, 1)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    fresh = HalfGrid._mesh.func(grid)
    for got, want in zip((*index, tau, xi), (*fresh[0], *fresh[1:])):
        np.testing.assert_array_equal(got, want)
    for j in range(4):
        np.testing.assert_array_equal(
            grid.trace_stencil(j), halfspace._trace_stencil.__wrapped__(grid.Ln, grid.Nn, j))
    # built once per grid, and the stencils once per (Ln, Nn, j)
    assert grid.column_mesh() is grid.column_mesh()
    other = HalfGrid(K=5, n=1, Nn=64)
    assert other.Ln == grid.Ln and other.trace_stencil(3) is grid.trace_stencil(3)
