"""Domain geometry and discrete measure representations.

Two carriers are used throughout: absolutely continuous measures stored as
cell values on a regular box grid, and purely atomic measures stored as
(point, mass) lists. Grids are cell-centered so that midpoint quadrature
and the discrete transport oracle share one discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NegativeDensity,
    NonpositiveMass,
    NotProbability,
    UnboundedDomain,
    ZeroMass,
)

# Probability tolerance for user-supplied measures.
INPUT_PROB_TOL = 1e-8

# PGM gray levels 0..255 as text.
_GRAY_LEVELS = tuple(str(level) for level in range(256))


@dataclass(frozen=True)
class Domain:
    """A box subset of R^n, or all of R^n when ``bounds`` is None."""

    dim: int
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.bounds is not None:
            if len(self.bounds) != self.dim:
                raise ValueError("bounds must give one interval per axis")
            for lo, hi in self.bounds:
                if not lo < hi:
                    raise ValueError(f"empty interval [{lo}, {hi}]")

    @classmethod
    def box(cls, bounds) -> "Domain":
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        return cls(dim=len(bounds), bounds=bounds)

    @classmethod
    def unbounded(cls, dim: int) -> "Domain":
        return cls(dim=dim, bounds=None)

    @property
    def is_bounded(self) -> bool:
        return self.bounds is not None

    @property
    def widths(self) -> np.ndarray:
        self._require_bounded()
        return np.array([hi - lo for lo, hi in self.bounds])

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.widths))

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def lower(self) -> np.ndarray:
        self._require_bounded()
        return np.array([lo for lo, _ in self.bounds])

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box (all True if unbounded)."""
        points = np.atleast_2d(points)
        if self.bounds is None:
            return np.ones(len(points), dtype=bool)
        lo = self.lower
        hi = lo + self.widths
        return np.all((points >= lo) & (points <= hi), axis=1)

    def _require_bounded(self):
        if self.bounds is None:
            raise UnboundedDomain("operation requires a bounded domain")


def per_axis(resolution, dim: int) -> tuple[int, ...]:
    """One cell count per axis from an int (every axis) or a per-axis sequence."""
    return (int(resolution),) * dim if np.isscalar(resolution) else tuple(int(r) for r in resolution)


@dataclass(frozen=True)
class Grid:
    """A regular cell-centered grid over a bounded box domain.

    ``resolution`` is one cell count per axis, or one int for every axis.
    """

    domain: Domain
    resolution: tuple[int, ...]

    def __post_init__(self):
        self.domain._require_bounded()
        res = per_axis(self.resolution, self.domain.dim)
        object.__setattr__(self, "resolution", res)
        if len(res) != self.domain.dim:
            raise ValueError("resolution must give one cell count per axis")
        if any(r < 1 for r in res):
            raise ValueError("resolution must be >= 1 per axis")

    @property
    def spacing(self) -> np.ndarray:
        return self.domain.widths / np.array(self.resolution)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def cell_diameter(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))

    def axes(self) -> list[np.ndarray]:
        lo = self.domain.lower
        h = self.spacing
        return [
            lo[a] + h[a] * (np.arange(self.resolution[a]) + 0.5)
            for a in range(self.domain.dim)
        ]

    def cell_centers(self) -> np.ndarray:
        """All cell centers, row-major, shape (n_cells, dim)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True, eq=False)
class GridDensity:
    """An absolutely continuous measure discretized as cell-center values,
    each finite and nonnegative."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.grid.resolution)
        if not np.isfinite(values).all():
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise NegativeDensity("density values must be nonnegative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def domain(self) -> Domain:
        return self.grid.domain

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.grid.resolution

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def is_probability(self, tol: float = INPUT_PROB_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def with_values(self, values) -> "GridDensity":
        return GridDensity(self.grid, values)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        """Write row-major cell values under a 3-line header (dim, bounds, resolution)."""
        lines = [
            "dim," + str(self.domain.dim),
            "bounds," + ",".join(f"{b!r}" for pair in self.domain.bounds for b in pair),
            "resolution," + ",".join(str(r) for r in self.resolution),
        ]
        cells = list(map(repr, self.values.ravel().tolist()))
        width = len(cells) // self.resolution[0]
        lines += [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "GridDensity":
        lines = Path(path).read_text().strip().splitlines()
        dim = int(lines[0].split(",")[1])
        raw = [float(t) for t in lines[1].split(",")[1:]]
        bounds = tuple((raw[2 * a], raw[2 * a + 1]) for a in range(dim))
        resolution = tuple(int(t) for t in lines[2].split(",")[1:])
        values = np.array(
            [[float(t) for t in line.split(",")] for line in lines[3:]]
        ).reshape(resolution)
        return cls(Grid(Domain.box(bounds), resolution), values)

    def to_pgm(self, path) -> None:
        """Write a P2 grayscale image, max value scaled to 255 (dim <= 2)."""
        if self.domain.dim > 2:
            raise ValueError("PGM export supports dim <= 2 only")
        img = self.values if self.domain.dim == 2 else self.values[None, :]
        peak = img.max()
        scaled = np.zeros_like(img, dtype=int) if peak <= 0 else np.rint(img / peak * 255).astype(int)
        h, w = scaled.shape
        lines = ["P2", f"{w} {h}", "255"]
        lines += [" ".join(map(_GRAY_LEVELS.__getitem__, row)) for row in scaled.tolist()]
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A finite sum of Dirac masses: positive masses at pairwise distinct points."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        masses = np.asarray(self.masses, dtype=float).ravel()
        if len(points) != len(masses):
            raise ValueError("points and masses must have equal length")
        if len(points) == 0:
            raise ValueError("an atomic measure needs at least one atom")
        if np.any(masses <= 0):
            raise NonpositiveMass("atom masses must be strictly positive")
        if len(np.unique(points, axis=0)) != len(points):
            raise ValueError("atom points must be pairwise distinct")
        points = points.copy()
        masses = masses.copy()
        points.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return len(self.masses)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def is_probability(self, tol: float = INPUT_PROB_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class WeightedPointCloud:
    """A discrete probability: points with positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if len(points) != len(weights):
            raise ValueError("points and weights must have equal length")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("points and weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > INPUT_PROB_TOL:
            raise NotProbability(f"weights sum to {weights.sum()}, expected 1")
        points = points.copy()
        weights = weights.copy()
        points.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def make_grid_density(domain: Domain, resolution, cell_values) -> GridDensity:
    """Build a GridDensity on a bounded box; rejects non-finite and negative cell values."""
    if not domain.is_bounded:
        raise UnboundedDomain("grid densities need a bounded domain")
    return GridDensity(Grid(domain, resolution), cell_values)


def normalize(density: GridDensity) -> GridDensity:
    """Rescale to total mass 1 (within 1e-12); raises ZeroMass on zero input."""
    total = density.total_mass
    if total <= 0:
        raise ZeroMass("cannot normalize a measure with zero total mass")
    return density.with_values(density.values / total)


def to_point_cloud(density: GridDensity, tol: float = INPUT_PROB_TOL) -> WeightedPointCloud:
    """One weighted point per positive-mass cell, placed at the cell center."""
    if not density.is_probability(tol):
        raise NotProbability(
            f"total mass {density.total_mass} is not 1 within {tol}"
        )
    centers = density.grid.cell_centers()
    flat = density.values.ravel()
    keep = flat > 0
    weights = flat[keep] * density.cell_volume
    return WeightedPointCloud(centers[keep], weights / weights.sum())
