"""Axis-aligned space-time grids, quadrature, the boundary measure and
separable test fields.

The boundary of the cylinder Q = Omega x (t1, t2) carries the measure

    dmu = dsigma dt      on the lateral boundary, and
    dx delta_t           on the two time caps,

so integrating over the whole of dQ adds a lateral surface-time quadrature
to two volume integrals at the end times.  ``SpaceTimeGrid.dmu_nodes`` holds
these node sets with their weights; the audit sums over them.

Test fields (sine modes, cutoff windows, C-infinity bumps) are products of
1-D profiles of the unit coordinates, built by ``separable``.
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BoxDomain",
    "SpaceTimeGrid",
    "build_grid",
    "separable",
    "sine_profile",
    "smooth_bump",
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

    Faces are indexed ``2*axis + side`` with side 0 the low end.  Quadrature
    over a face always uses the full geometric node set of that face so the
    lateral measure is exact for trapezoid rules.
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
    def per_field(self) -> weakref.WeakKeyDictionary:
        """Work that depends on this grid and one coefficient field alone,
        keyed by the field and dropped with it."""
        return weakref.WeakKeyDictionary()

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

    # -- the boundary measure dmu ------------------------------------------------

    def dmu_nodes(self, spatial: bool = False) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The node sets of dmu as (flat indices, weights) pairs, read-only.

        The first pair is Sigma: the boundary nodes at every level with their
        dsigma dt weights.  The second holds the two time caps, every space
        node at the first and the last level with its dx weight.  With
        ``spatial`` the indices address space arrays: Sigma is dOmega with its
        dsigma weights, and there are no caps.
        """
        return self._dmu_nodes[bool(spatial)]

    @cached_property
    def _dmu_nodes(self) -> dict[bool, tuple]:
        lat = np.flatnonzero(self.boundary_mask)
        lat_w = self.lateral_weights.ravel()[lat]
        sw = self.space_weights.ravel()
        out = {}
        for spatial, nt, tw in ((False, self.nt, self.time_weights), (True, 1, np.ones(1))):
            sets = [((lat[:, None] * nt + np.arange(nt)).ravel(), np.outer(lat_w, tw).ravel())]
            if not spatial:  # levels 0 and nt - 1 of every space node
                caps = (np.arange(sw.size)[:, None] * nt + np.array([0, nt - 1])).ravel()
                sets.append((caps, np.repeat(sw, 2)))
            out[spatial] = tuple((_read_only(i), _read_only(w)) for i, w in sets)
        return out


def build_grid(
    lows,
    highs,
    nodes_per_axis,
    t1: float,
    t2: float,
    nt: int,
) -> SpaceTimeGrid:
    """Build a space-time grid; rejects empty extents, resolutions < 3 and
    node or level counts that are not integers (a float is not truncated)."""
    nodes = tuple(_count(v, "nodes must be an integer per axis") for v in nodes_per_axis)
    domain = BoxDomain(tuple(float(v) for v in lows), tuple(float(v) for v in highs), nodes)
    return SpaceTimeGrid(domain=domain, t1=float(t1), t2=float(t2),
                         nt=_count(nt, "nt must be an integer"))


def _count(value, message: str) -> int:
    """``value`` as an int; a float or a bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def separable(grid: SpaceTimeGrid, profiles, time_profile=None) -> np.ndarray:
    """Product of 1-D profiles of the unit coordinates, one per axis.

    Each profile maps the axis nodes, rescaled onto [0, 1], to values.  With
    ``time_profile`` the spatial product is extended to a space-time array by
    the profile of the unit time (t - t1) / (t2 - t1).
    """
    if len(profiles) != grid.n:
        raise ValueError(f"need one profile per axis ({grid.n}), got {len(profiles)}")
    u = np.ones(grid.space_shape)
    for ax, profile in enumerate(profiles):
        c = grid.domain.axis_coords(ax)
        u = u * profile((c - c[0]) / (c[-1] - c[0])).reshape(
            [-1 if i == ax else 1 for i in range(grid.n)]
        )
    if time_profile is None:
        return u
    return u[..., None] * time_profile((grid.times - grid.t1) / (grid.t2 - grid.t1))


def sine_profile(k):
    """The profile s -> sin(k pi s), the k-th Dirichlet sine mode of [0, 1]."""
    return lambda s: np.sin(k * np.pi * s)


def smooth_bump(s, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump in one variable, exactly zero outside (lo, hi)."""
    z = (np.asarray(s, dtype=float) - lo) / (hi - lo)
    out = np.zeros_like(z)
    inside = (z > 0.0) & (z < 1.0)
    zz = 2.0 * z[inside] - 1.0
    out[inside] = np.exp(-1.0 / (1.0 - zz**2))
    return out
