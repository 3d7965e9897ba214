"""Uniform radial grids on balls and discrete radial calculus.

A grid covers [0, R] with n equally spaced nodes and represents radial
functions on the ball B(0, R) in R^N.  The derivative stencils encode the
homogeneous Neumann condition at r = R and the symmetry condition at r = 0
through second-order ghost-node reflection, so u'(0) = u'(R) = 0 holds
exactly for every grid function.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RadialGrid",
    "GridFunction",
    "build_grid",
    "discrete_derivatives",
    "derivative_arrays",
    "lipschitz_quotient",
]


class RadialGrid:
    """Uniform node set r_i = i*h on [0, R], h = R/(n-1)."""

    __slots__ = ("R", "N_dim", "n", "h", "nodes")

    def __init__(self, R: float, N_dim: int, n: int):
        if not R > 0:
            raise ValueError(f"grid: R must be > 0, got {R}")
        if int(N_dim) < 1:
            raise ValueError(f"grid: N_dim must be >= 1, got {N_dim}")
        if int(n) < 3:
            raise ValueError(f"grid: n must be ≥ 3, got {n}")
        self.R = float(R)
        self.N_dim = int(N_dim)
        self.n = int(n)
        self.h = self.R / (self.n - 1)
        nodes = np.linspace(0.0, self.R, self.n)
        nodes.flags.writeable = False
        self.nodes = nodes

    def boundary_distance(self) -> np.ndarray:
        """d(r) = R - r, the distance to the boundary sphere."""
        return self.R - self.nodes

    def refine(self) -> "RadialGrid":
        """Grid with spacing h/2 (n -> 2n - 1), same ball."""
        return RadialGrid(self.R, self.N_dim, 2 * self.n - 1)

    def __repr__(self):
        return f"RadialGrid(R={self.R}, N_dim={self.N_dim}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, RadialGrid)
            and self.R == other.R
            and self.N_dim == other.N_dim
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.R, self.N_dim, self.n))


def build_grid(R: float, N_dim: int, n: int) -> RadialGrid:
    """Construct the uniform radial grid; rejects n < 3 and R <= 0."""
    return RadialGrid(R, N_dim, n)


class GridFunction:
    """Node values of a radial function, tied to its grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: RadialGrid, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n,):
            raise ValueError(
                f"grid function: expected {grid.n} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function: values must be finite")
        self.grid = grid
        self.values = v

    @classmethod
    def constant(cls, grid: RadialGrid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(value)))

    @classmethod
    def from_callable(cls, grid: RadialGrid, f) -> "GridFunction":
        return cls(grid, np.asarray(f(grid.nodes), dtype=float))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))

    def to_csv(self, path) -> None:
        """Write `r,u` rows at full double precision (17 significant digits)."""
        # Python floats format as np.float64 does, at a fraction of the cost
        rows = "".join(
            f"{r:.17g},{u:.17g}\n"
            for r, u in zip(self.grid.nodes.tolist(), self.values.tolist())
        )
        with open(path, "w", newline="\n") as fh:
            fh.write("r,u\n" + rows)

    @classmethod
    def from_csv(cls, path, N_dim: int) -> "GridFunction":
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
            raise ValueError(f"grid function csv: malformed file {path}")
        r, u = data[:, 0], data[:, 1]
        grid = RadialGrid(float(r[-1]), N_dim, len(r))
        if not np.allclose(r, grid.nodes, rtol=0, atol=1e-12 * max(1.0, grid.R)):
            raise ValueError(f"grid function csv: nodes in {path} are not uniform")
        return cls(grid, u)

    def __repr__(self):
        return f"GridFunction(n={self.grid.n}, sup={self.sup_norm():.6g})"


def derivative_arrays(values: np.ndarray, h: float):
    """Central first/second differences with reflected ghost nodes.

    Interior: standard second-order central stencils.  At i = 0 the ghost
    u_{-1} := u_1 (radial symmetry) gives u1 = 0, u2 = 2(u_1 - u_0)/h^2.
    At i = n-1 the ghost u_n := u_{n-2} (Neumann reflection) gives u1 = 0,
    u2 = 2(u_{n-2} - u_{n-1})/h^2.
    """
    v = values
    u1 = np.empty_like(v)
    u2 = np.empty_like(v)
    u1[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    u2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    u1[0] = 0.0
    u2[0] = 2.0 * (v[1] - v[0]) / (h * h)
    u1[-1] = 0.0
    u2[-1] = 2.0 * (v[-2] - v[-1]) / (h * h)
    return u1, u2


def discrete_derivatives(u: GridFunction):
    """First and second radial derivatives as grid functions.

    The boundary stencils impose the structural conditions u'(0) = u'(R) = 0;
    the tangential Hessian term (N-1) u'/r is evaluated by the caller, with
    the r = 0 limit (N-1) u''(0).
    """
    u1, u2 = derivative_arrays(u.values, u.grid.h)
    return GridFunction(u.grid, u1), GridFunction(u.grid, u2)


def lipschitz_quotient(u: GridFunction) -> float:
    """max_i |u_{i+1} - u_i| / h; equals the max over all node pairs."""
    if u.grid.n < 2:
        raise ValueError("lipschitz_quotient needs at least 2 nodes")
    return float(np.max(np.abs(np.diff(u.values))) / u.grid.h)
