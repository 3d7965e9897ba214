"""Shared manufactured-solution helpers and fixtures for the test suite."""

import numpy as np
import pytest

import eigenball as eb


class Manufactured:
    """Radial test profile u(r) = base + cos(pi r / R).

    Even in r with all odd derivatives vanishing at r = 0 and r = R, so it
    is smooth as a function of |x|, compatible with the Neumann condition,
    and free of odd-order boundary truncation terms.
    """

    def __init__(self, R=1.0, N=2, base=2.0):
        self.R = R
        self.N = N
        self.base = base

    def u(self, r):
        return self.base + np.cos(np.pi * np.asarray(r, dtype=float) / self.R)

    def du(self, r):
        r = np.asarray(r, dtype=float)
        return -(np.pi / self.R) * np.sin(np.pi * r / self.R)

    def d2u(self, r):
        r = np.asarray(r, dtype=float)
        return -((np.pi / self.R) ** 2) * np.cos(np.pi * r / self.R)

    def tangential(self, r):
        """(N-1) u'/r with the symmetric limit at r = 0."""
        r = np.asarray(r, dtype=float)
        safe = np.where(r > 0, r, 1.0)
        return (self.N - 1) * np.where(r > 0, self.du(r) / safe, self.d2u(r))

    def laplacian_forcing(self, c=-1.0):
        """g with u as exact solution of Delta u + c u = g."""

        def g(r):
            return self.d2u(r) + self.tangential(r) + c * self.u(r)

        return g

    def plap_forcing(self, p, c=-1.0):
        """g with u as exact solution of Delta_p u + c |u|^{p-2} u = g."""
        alpha = p - 2.0

        def g(r):
            r = np.asarray(r, dtype=float)
            F = np.abs(self.du(r)) ** alpha * (
                (p - 1.0) * self.d2u(r) + self.tangential(r)
            )
            uu = self.u(r)
            return F + c * np.sign(uu) * np.abs(uu) ** (alpha + 1.0)

        return g

    def weighted_forcing(self, w_rad, w_tan, alpha, c=-1.0):
        """g for the radial form |u'|^alpha (w_rad u'' + w_tan (N-1) u'/r)."""

        def g(r):
            r = np.asarray(r, dtype=float)
            F = np.abs(self.du(r)) ** alpha * (
                w_rad * self.d2u(r) + w_tan * self.tangential(r)
            )
            uu = self.u(r)
            return F + c * np.sign(uu) * np.abs(uu) ** (alpha + 1.0)

        return g


@pytest.fixture
def mfg2d():
    return Manufactured(R=1.0, N=2)


@pytest.fixture
def singular_factor(monkeypatch):
    """LAPACK gttrf reports every tridiagonal matrix singular (info = 1)."""
    from eigenball import solver

    gttrf = solver._gttrf

    def singular_gttrf(*args):
        *lu, _ = gttrf(*args)
        return (*lu, 1)

    monkeypatch.setattr(solver, "_gttrf", singular_gttrf)


def nested_solve(op, coeff, lam, g_profile, grids, tol=1e-9):
    """Solve on successively finer grids, warm-starting from the coarse
    solution (nested iteration); returns the list of reports."""
    reports = []
    prev = None
    for grid in grids:
        init = None
        if prev is not None:
            init = np.interp(grid.nodes, prev.grid.nodes, prev.values)
        rep = eb.solve_neumann(
            op, coeff, lam, g_profile, grid, eb.SolveOptions(tol=tol, initial=init)
        )
        reports.append(rep)
        prev = rep.solution
    return reports
