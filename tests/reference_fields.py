"""Frozen per-site test-field builders, kept as a reference oracle.

Before ``carleman.geometry.separable`` each site that needed a product of
1-D profiles of the unit coordinates built it with its own loop: the audit
window and ensemble modes, the CLI's sine-mode data and identities bumps,
and the worst-case estimator's seed datum.  These are those loops, as they
were; ``test_geometry.py`` checks that the shared builder reproduces every
one of them bit for bit.
"""

from __future__ import annotations

import numpy as np

from carleman.audit import _smooth_once


def window(grid, spatial: bool) -> np.ndarray:
    """``audit._window``: sin^2 cutoff with exact zeros on the boundary."""
    def profile(s: np.ndarray) -> np.ndarray:
        p = np.sin(np.pi * s) ** 2
        p[0] = p[-1] = 0.0
        return p

    pieces = []
    for ax in range(grid.n):
        c = grid.domain.axis_coords(ax)
        pieces.append(profile((c - c[0]) / (c[-1] - c[0])))
    w = pieces[0]
    for p in pieces[1:]:
        w = np.multiply.outer(w, p)
    if spatial:
        return w
    t = (grid.times - grid.t1) / (grid.t2 - grid.t1)
    return np.multiply.outer(w, profile(t))


def default_ensemble(grid, seed: int, count: int = 20, complex_fields: bool = False,
                     spatial: bool = False) -> list[np.ndarray]:
    """``audit.default_ensemble``: windowed sine modes and smoothed noise."""
    shape = grid.space_shape if spatial else grid.shape
    w = window(grid, spatial)
    rng = np.random.default_rng(seed)
    members: list[np.ndarray] = []
    n_modes = count // 2
    for m in range(n_modes):
        u = np.ones(shape)
        for ax in range(grid.n):
            c = grid.domain.axis_coords(ax)
            s = (c - c[0]) / (c[-1] - c[0])
            k = 1 + (m + ax) % 3
            vals = np.sin(k * np.pi * s)
            u = u * vals.reshape([-1 if i == ax else 1 for i in range(u.ndim)])
        if not spatial:
            t = (grid.times - grid.t1) / (grid.t2 - grid.t1)
            kt = 1 + m % 3
            u = u * np.sin(kt * np.pi * t).reshape([1] * grid.n + [-1])
        if complex_fields:
            u = u * np.exp(1j * (m + 1) * np.pi / 7.0)
        members.append(u)
    for _ in range(count - n_modes):
        if complex_fields:
            raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:
            raw = rng.standard_normal(shape)
        raw = _smooth_once(_smooth_once(raw))
        members.append(raw)
    out = []
    for u in members:
        u = u * w
        peak = float(np.max(np.abs(u)))
        out.append(u / peak if peak > 0 else u)
    return out


def mode_data(grid, mode) -> np.ndarray:
    """``cli._mode_data``: the sine mode of the solve and observability data."""
    u = np.ones(grid.space_shape)
    for ax in range(grid.n):
        coords = grid.domain.axis_coords(ax)
        s = (coords - coords[0]) / (coords[-1] - coords[0])
        k = int(mode[ax]) if ax < len(mode) else 1
        u = u * np.sin(k * np.pi * s).reshape(
            [-1 if i == ax else 1 for i in range(grid.n)]
        )
    return u


def first_sine_mode(grid) -> np.ndarray:
    """The ``bump`` of ``cli._cmd_identities``; ``experiments.worst_case_ratio``
    built its default seed datum ``u0`` with the same loop."""
    u = np.ones(grid.space_shape)
    for ax in range(grid.n):
        c = grid.domain.axis_coords(ax)
        s = (c - c[0]) / (c[-1] - c[0])
        u = u * np.sin(np.pi * s).reshape([-1 if i == ax else 1 for i in range(grid.n)])
    return u


def margin_bump(s):
    """The 1-D ``margin_bump`` of ``cli._cmd_identities``."""
    z = (s - 0.15) / 0.7
    out = np.zeros_like(z)
    m = (z > 0.0) & (z < 1.0)
    zz = 2.0 * z[m] - 1.0
    out[m] = np.exp(-1.0 / (1.0 - zz**2))
    return out


def identities_member(grid, kind: str) -> np.ndarray:
    """The conjugation-residual member of ``cli._cmd_identities``."""
    member = np.ones(grid.space_shape)
    for ax in range(grid.n):
        c = grid.domain.axis_coords(ax)
        s = (c - c[0]) / (c[-1] - c[0])
        member = member * margin_bump(s).reshape(
            [-1 if i == ax else 1 for i in range(grid.n)]
        )
    if kind != "elliptic":
        t = (grid.times - grid.t1) / (grid.t2 - grid.t1)
        member = member[..., None] * margin_bump(t)
    return member



def interior_bump(grid, spacetime: bool) -> np.ndarray:
    """``interior_bump_space``/``_spacetime`` of the test suite's conftest."""
    def bump(s, lo=0.12, hi=0.88):
        z = (np.asarray(s, dtype=float) - lo) / (hi - lo)
        out = np.zeros_like(z)
        inside = (z > 0.0) & (z < 1.0)
        zz = 2.0 * z[inside] - 1.0
        out[inside] = np.exp(-1.0 / (1.0 - zz**2))
        return out

    u = np.ones(grid.space_shape)
    for ax in range(grid.n):
        c = grid.domain.axis_coords(ax)
        s = (c - c[0]) / (c[-1] - c[0])
        u = u * bump(s).reshape([-1 if i == ax else 1 for i in range(grid.n)])
    if not spacetime:
        return u
    t = (grid.times - grid.t1) / (grid.t2 - grid.t1)
    return u[..., None] * bump(t)
