"""Axis-aligned space-time grids, quadrature and the boundary measure.

The boundary of the cylinder Q = Omega x (t1, t2) carries the measure

    dmu = dsigma dt      on the lateral boundary, and
    dx delta_t           on the two time caps,

so integrating over the whole of dQ adds a lateral surface-time quadrature
to two volume integrals at the end times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BoxDomain",
    "SpaceTimeGrid",
    "ScalarField",
    "VectorField",
    "build_grid",
    "integrate_interior",
    "integrate_dmu",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    h = coords[1] - coords[0]
    w = np.full(coords.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a uniform node lattice, 1 <= n <= 3."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    nodes_per_axis: tuple[int, ...]

    def __post_init__(self):
        n = len(self.lows)
        if not 1 <= n <= 3:
            raise ValueError(f"spatial dimension must be 1..3, got {n}")
        if len(self.highs) != n or len(self.nodes_per_axis) != n:
            raise ValueError("lows/highs/nodes_per_axis lengths disagree")
        for lo, hi, m in zip(self.lows, self.highs, self.nodes_per_axis):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("endpoints must be finite")
            if hi <= lo:
                raise ValueError(f"empty extent: [{lo}, {hi}]")
            if m < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {m}")

    @property
    def n(self) -> int:
        return len(self.lows)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (m - 1) for lo, hi, m in zip(self.lows, self.highs, self.nodes_per_axis)
        )

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(self.lows[axis], self.highs[axis], self.nodes_per_axis[axis])

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= np.asarray(self.lows)) and np.all(x <= np.asarray(self.highs)))


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Node lattice on Omega x [t1, t2] with face bookkeeping.

    Faces are indexed ``2*axis + side`` with side 0 the low end.  Every
    boundary node is *owned* by exactly one face (the lowest face index it
    lies on); quadrature over a face always uses the full geometric node set
    of that face so the lateral measure is exact for trapezoid rules.
    """

    domain: BoxDomain
    t1: float
    t2: float
    nt: int

    def __post_init__(self):
        if self.t2 <= self.t1:
            raise ValueError(f"empty time extent: [{self.t1}, {self.t2}]")
        if self.nt < 3:
            raise ValueError(f"need at least 3 time levels, got {self.nt}")

    # -- basic geometry ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def space_shape(self) -> tuple[int, ...]:
        return self.domain.nodes_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return self.space_shape + (self.nt,)

    @property
    def dt(self) -> float:
        return (self.t2 - self.t1) / (self.nt - 1)

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(self.t1, self.t2, self.nt)

    @cached_property
    def space_points(self) -> np.ndarray:
        """Node coordinates, shape ``(*space_shape, n)``."""
        axes = [self.domain.axis_coords(i) for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    # -- quadrature weights ----------------------------------------------------

    @cached_property
    def space_weights(self) -> np.ndarray:
        w = _trapezoid_weights(self.domain.axis_coords(0))
        for i in range(1, self.n):
            w = np.multiply.outer(w, _trapezoid_weights(self.domain.axis_coords(i)))
        return w

    @cached_property
    def time_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.times)

    # -- faces -----------------------------------------------------------------

    @property
    def num_faces(self) -> int:
        return 2 * self.n

    def face_axis_side(self, face: int) -> tuple[int, int]:
        return face // 2, face % 2

    def face_normal(self, face: int) -> np.ndarray:
        axis, side = self.face_axis_side(face)
        nu = np.zeros(self.n)
        nu[axis] = -1.0 if side == 0 else 1.0
        return nu

    def face_mask(self, face: int) -> np.ndarray:
        """Geometric membership mask over space nodes (corners on 2+ faces).

        Cached per face and read-only."""
        return self._face_masks[face]

    @cached_property
    def _face_masks(self) -> tuple[np.ndarray, ...]:
        masks = []
        for face in range(self.num_faces):
            axis, side = self.face_axis_side(face)
            mask = np.zeros(self.space_shape, dtype=bool)
            idx = [slice(None)] * self.n
            idx[axis] = 0 if side == 0 else -1
            mask[tuple(idx)] = True
            masks.append(_read_only(mask))
        return tuple(masks)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.space_shape, dtype=bool)
        for f in range(self.num_faces):
            mask |= self.face_mask(f)
        return mask

    @cached_property
    def owner_face(self) -> np.ndarray:
        """Exclusive face assignment: lowest adjacent face index, -1 interior."""
        owner = np.full(self.space_shape, -1, dtype=int)
        for f in range(self.num_faces - 1, -1, -1):
            owner[self.face_mask(f)] = f
        return owner

    def face_weights(self, face: int) -> np.ndarray:
        """Tangential trapezoid weights on the face nodes, 0 elsewhere.

        Cached per face and read-only."""
        return self._face_weights[face]

    @cached_property
    def _face_weights(self) -> tuple[np.ndarray, ...]:
        weights = []
        for face in range(self.num_faces):
            axis, side = self.face_axis_side(face)
            w = np.array(1.0)
            for i in range(self.n):
                wi = (
                    np.ones(1)
                    if i == axis
                    else _trapezoid_weights(self.domain.axis_coords(i))
                )
                w = np.multiply.outer(w, wi)
            full = np.zeros(self.space_shape)
            idx = [slice(None)] * self.n
            idx[axis] = slice(0, 1) if side == 0 else slice(-1, None)
            full[tuple(idx)] = w.reshape(full[tuple(idx)].shape)
            weights.append(_read_only(full))
        return tuple(weights)

    @cached_property
    def lateral_weights(self) -> np.ndarray:
        """Sum of per-face dsigma weights over all faces (space nodes)."""
        return sum(self.face_weights(f) for f in range(self.num_faces))


def build_grid(
    lows,
    highs,
    nodes_per_axis,
    t1: float,
    t2: float,
    nt: int,
) -> SpaceTimeGrid:
    """Build a space-time grid; rejects empty extents and resolutions < 3."""
    domain = BoxDomain(tuple(float(v) for v in lows), tuple(float(v) for v in highs),
                       tuple(int(v) for v in nodes_per_axis))
    return SpaceTimeGrid(domain=domain, t1=float(t1), t2=float(t2), nt=int(nt))


@dataclass
class ScalarField:
    """Values on grid nodes; space-only or space-time depending on shape."""

    values: np.ndarray
    grid: SpaceTimeGrid
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape not in (self.grid.space_shape, self.grid.shape):
            raise ValueError(
                f"field shape {self.values.shape} matches neither space shape "
                f"{self.grid.space_shape} nor space-time shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite entries in field {self.name!r}")

    @property
    def is_space_time(self) -> bool:
        return self.values.shape == self.grid.shape


@dataclass
class VectorField:
    """Per-node vectors with a fixed component count."""

    values: np.ndarray
    grid: SpaceTimeGrid
    components: int = field(default=0)
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.components == 0:
            self.components = self.values.shape[-1]
        base = self.values.shape[:-1]
        if self.values.shape[-1] != self.components or base not in (
            self.grid.space_shape,
            self.grid.shape,
        ):
            raise ValueError("vector field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite entries in field {self.name!r}")


def _values(f) -> np.ndarray:
    return np.asarray(getattr(f, "values", f))


def integrate_interior(f, grid: SpaceTimeGrid) -> float:
    """Composite trapezoid approximation of the integral of f over Q."""
    vals = _values(f)
    if vals.shape != grid.shape:
        raise ValueError(f"expected space-time shape {grid.shape}, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite values in interior integrand")
    w = grid.space_weights[..., None] * grid.time_weights
    return float(np.sum(vals * w))


def integrate_space(f, grid: SpaceTimeGrid) -> float:
    """Trapezoid integral of a spatial field over Omega."""
    vals = _values(f)
    if vals.shape != grid.space_shape:
        raise ValueError(f"expected space shape {grid.space_shape}, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite values in spatial integrand")
    return float(np.sum(vals * grid.space_weights))


def integrate_lateral(g, grid: SpaceTimeGrid) -> float:
    """Surface-time integral over the lateral boundary Sigma."""
    vals = _values(g)
    if vals.shape != grid.shape:
        raise ValueError(f"expected space-time shape {grid.shape}, got {vals.shape}")
    total = 0.0
    for f in range(grid.num_faces):
        mask = grid.face_mask(f)
        w = grid.face_weights(f)[mask]
        face_vals = vals[mask, :]
        if not np.all(np.isfinite(face_vals)):
            raise ValueError(f"non-finite values on lateral face {f}")
        total += float(np.sum(face_vals * w[:, None] * grid.time_weights))
    return total


def integrate_dmu(g, grid: SpaceTimeGrid) -> float:
    """Integral of g over dQ with respect to dmu (lateral + two time caps)."""
    vals = _values(g)
    if vals.shape != grid.shape:
        raise ValueError(f"expected space-time shape {grid.shape}, got {vals.shape}")
    caps = vals[..., 0], vals[..., -1]
    for c, label in zip(caps, ("t1", "t2")):
        if not np.all(np.isfinite(c)):
            raise ValueError(f"missing cap data at {label}")
    cap_total = float(np.sum(caps[0] * grid.space_weights)) + float(
        np.sum(caps[1] * grid.space_weights)
    )
    return integrate_lateral(vals, grid) + cap_total
