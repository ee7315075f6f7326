"""Shared fixtures and finite-difference oracles for the test suite.

The engine carries derivatives exactly; every derivative-dependent claim in
the tests is cross-checked against central finite differences computed here,
so the oracle never shares code with the path it verifies.
"""

import pytest

from frame_kahler import catalog
from frame_kahler.central import csc_verdict
from frame_kahler.frames import max_abs_on_grid, plane_laplacian_log_abs
from frame_kahler.kahler import X, Y, build_chain
from frame_kahler.warped import einstein_verdict, ke_ode_residual


def central_diff(fn, point, i, h=1e-5):
    """Central finite difference of a point function along coordinate i."""
    lo = list(point)
    hi = list(point)
    lo[i] -= h
    hi[i] += h
    return (fn(tuple(hi)) - fn(tuple(lo))) / (2.0 * h)


def second_diff(fn, point, i, j, h=1e-4):
    """Second mixed central difference."""
    if i == j:
        lo = list(point)
        hi = list(point)
        lo[i] -= h
        hi[i] += h
        return (fn(tuple(hi)) - 2.0 * fn(tuple(point)) + fn(tuple(lo))) / (h * h)
    return central_diff(lambda p: central_diff(fn, p, j, h), tuple(point), i, h)


def fd_plane_laplacian(fn, point, ix, iy, h=1e-4):
    return second_diff(fn, point, ix, ix, h) + second_diff(fn, point, iy, iy, h)


def ke_family(family, interval, **options):
    """The ``WarpedFamily`` of the ``ke`` family ``family`` with the options
    of ``catalog.family_document``, parsed from its warped document."""
    doc = catalog.family_document(family, interval, **options)
    return catalog.entry_from_document(family, "ke family %s" % family, doc, {}).family


def ricci_route_gap(chain, grid):
    """Forms-route Ricci (``chain.ric``) against the tensor-route Ricci, all
    frame pairs."""
    return max_abs_on_grid((chain.ric[u][v] - chain.curv.ricci[u][v] for u in range(4) for v in range(4)), grid)


@pytest.fixture(scope="session")
def entries():
    """All catalog entries, loaded once."""
    return {eid: catalog.load(eid) for eid in catalog.catalog_ids()}


class BuiltEntry:
    """Catalog entry with its induced metric and both curvature routes."""

    def __init__(self, entry):
        self.entry = entry
        self.data = entry.data
        self.grid = entry.grid()
        self.chain = build_chain(entry.data)
        self.kahler = self.chain.kahler
        self.conn_k = self.chain.conn
        self.gforms = self.chain.gforms
        self.rho = self.chain.rho
        self.curv_k = self.chain.curv

    def csc(self):
        """``csc_verdict`` of a central entry, with the twist's plane
        Laplacian built as ``central_suite`` builds it."""
        A = self.data
        return csc_verdict(self.chain, self.grid, plane_laplacian_log_abs(A.structure, A.iota, X, Y))

    def einstein(self, lam):
        """``einstein_verdict`` of a warped entry with Einstein constant
        ``lam`` and the entry's own ODE residual, fiber (on the one-point
        fiber grid of a constant twist) and C."""
        fam = self.entry.family
        ode = ke_ode_residual(fam, self.data.constants.alpha)
        return einstein_verdict(self.chain, lam, self.grid, ode, self.entry.fiber, [()], fam.C)


@pytest.fixture(scope="session")
def built(entries):
    cache = {}

    def get(eid):
        if eid not in cache:
            cache[eid] = BuiltEntry(entries[eid])
        return cache[eid]

    return get
