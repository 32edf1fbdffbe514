"""Workload definitions: the operations each workload runs, built from a seed.

An operation is one CLI command, called in-process through
``carleman.cli.main(argv)``, or one library call.  Every operation carries a
family (the end-to-end metric its wall time is summed into), the exit
status the workload expects from it, and the config it runs on, so the
oracle checks in ``oracles.py`` can recompute its outputs independently.

The seed only moves numerical values (coefficient amplitudes, weight
centres, ensemble seeds, sine modes, time samples); the shapes of all
grids, the number of cells and members and the command list are fixed per
workload, so the work done per pass does not depend on the seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

FAMILIES = ("audit", "certify", "observability", "solve", "smoothing")

WORKLOADS = ("sweep-2d", "fields-3d", "evolve")

# Probes run this many times per pass, spread between the main operations,
# so their short timings are sampled often enough to give steady medians.
PROBE_ROUNDS = 2


@dataclass
class Op:
    """One benchmark operation."""

    name: str
    family: str
    expected: int = 0
    command: str | None = None  # CLI command; None for a library call
    config: dict | None = None
    # library call (smoothing_bound_check): grid description and t samples
    nodes: list[int] | None = None
    t_samples: list[float] | None = None
    # extra facts the oracle needs (e.g. the paired coarse op of a refinement check)
    meta: dict = field(default_factory=dict)
    probe: bool = False  # a small member of a family the workload does not stress


def _shipped(root: Path, name: str) -> dict:
    return yaml.safe_load((root / "configs" / name).read_text())


def _unit_grid(n: int, m: int, t1: float, t2: float, nt: int) -> dict:
    return {"lows": [0.0] * n, "highs": [1.0] * n, "nodes": [m] * n,
            "t1": t1, "t2": t2, "nt": nt}


def _entry(k: int, l: int, terms) -> dict:
    return {"k": k, "l": l,
            "terms": [{"powers": list(p), "coeff": float(c)} for p, c in terms]}


def _poly_field_2d(rng: np.random.Generator) -> dict:
    """Variable 2x2 A with an off-diagonal entry; amplitudes from the seed."""
    a, b, c, d = rng.uniform(0.05, 0.1, size=4)
    return {"family": "polynomial", "entries": [
        _entry(0, 0, [((0, 0), 1.0), ((1, 0), a)]),
        _entry(0, 1, [((0, 0), 0.5 * b), ((1, 1), 0.5 * c)]),
        _entry(1, 1, [((0, 0), 1.0), ((0, 1), d)]),
    ]}


def _poly_field_3d(rng: np.random.Generator) -> dict:
    """Variable symmetric 3x3 A with cubic terms; amplitudes from the seed."""
    u = rng.uniform(0.5, 1.0, size=10)
    return {"family": "polynomial", "entries": [
        _entry(0, 0, [((0, 0, 0), 1.0), ((1, 0, 0), 0.1 * u[0]), ((0, 1, 1), 0.05 * u[1])]),
        _entry(1, 1, [((0, 0, 0), 1.0), ((0, 1, 0), 0.1 * u[2]), ((2, 0, 0), 0.05 * u[3])]),
        _entry(2, 2, [((0, 0, 0), 1.0), ((0, 0, 1), 0.1 * u[4]), ((1, 1, 1), 0.05 * u[5])]),
        _entry(0, 1, [((0, 0, 0), 0.05 * u[6]), ((0, 0, 1), 0.03 * u[7])]),
        _entry(0, 2, [((1, 0, 0), 0.03 * u[8])]),
        _entry(1, 2, [((0, 0, 0), 0.02 * u[9]), ((1, 1, 0), 0.02)]),
    ]}


def _observability_cfg(n: int, m: int, nt: int, kind: str, x0, modes: int,
                       worst: int, seed: int, alpha: float = 0.5) -> dict:
    return {
        "seed": seed,
        "grid": _unit_grid(n, m, 0.0, 2.0, nt),
        "coefficients": {"family": "identity"},
        "weight": {"family": "example", "x0": [float(v) for v in x0], "lambda": 1.0},
        "equation": {"kind": "wave"},
        "observability": {"kind": kind, "alpha": float(alpha), "t_obs": 2.0,
                          "modes": modes, "worst_case_iterations": worst},
    }


def _solve_cfg(n: int, m: int, nt: int, kind: str, mode, x0, seed: int) -> dict:
    return {
        "seed": seed,
        "grid": _unit_grid(n, m, 0.0, 1.0, nt),
        "coefficients": {"family": "identity"},
        "weight": {"family": "example", "x0": [float(v) for v in x0], "lambda": 1.0},
        "equation": {"kind": "wave"},
        "solve": {"kind": kind, "mode": [int(k) for k in mode]},
    }


def _x0_outside(rng: np.random.Generator, n: int) -> list[float]:
    """Weight centre left of the unit box, mid-height in the other axes."""
    x0 = [float(-0.5 - 0.25 * rng.random())]
    x0 += [float(0.5 + 0.1 * (rng.random() - 0.5)) for _ in range(n - 1)]
    return x0


def _smoothing_samples(rng: np.random.Generator) -> list[float]:
    ts = np.geomspace(1e-5, 1.0, 40) * np.exp(0.1 * rng.standard_normal(40))
    return [float(t) for t in ts]


def _probes(rng: np.random.Generator, seed: int, root: Path, skip: tuple) -> list[Op]:
    """Small members of the families a workload does not stress.

    Every end-to-end metric is reported on every workload, so each workload
    runs a little of each command family; each probe takes at most a few
    tenths of a second, enough for its summed time to be read steadily.
    """
    ops: list[Op] = []
    canon = _shipped(root, "wave_audit.yaml")
    if "audit" not in skip:
        cfg = copy.deepcopy(canon)
        cfg["audit"].update(ensemble=8, refine=False)
        ops.append(Op("probe-audit-17", "audit", 0, "carleman-audit", cfg,
                      meta={"seed": seed, "sample": 3}))
    if "certify" not in skip:
        cfg = copy.deepcopy(canon)
        cfg["grid"] = _unit_grid(3, 21, -1.0, 1.0, 3)
        cfg["coefficients"] = _poly_field_3d(rng)
        cfg["weight"]["x0"] = _x0_outside(rng, 3)
        cfg["theta"] = {"points": [[0.5, 0.5, 0.5]]}
        ops.append(Op("probe-certify-21", "certify", 0, "certify", cfg))
        ops.append(Op("probe-theta-21", "certify", 0, "theta", copy.deepcopy(cfg)))
    if "observability" not in skip:
        cfg = _observability_cfg(2, 41, 241, "wave", _x0_outside(rng, 2), 3, 0, seed)
        ops.append(Op("probe-observability-41", "observability", 2, "observability", cfg))
    if "solve" not in skip:
        mode = rng.integers(1, 3, size=2)
        cfg = _solve_cfg(2, 41, 97, "wave", mode, _x0_outside(rng, 2), seed)
        ops.append(Op("probe-solve-41", "solve", 0, "solve", cfg))
    if "smoothing" not in skip:
        ops.append(Op("probe-smoothing-29", "smoothing", nodes=[29, 29],
                      t_samples=_smoothing_samples(rng)))
    for op in ops:
        op.probe = True
    return ops


def schedule(ops: list[Op]) -> list[Op]:
    """Execution order of one pass: main operations in PROBE_ROUNDS chunks,
    each chunk followed by every probe."""
    main = [op for op in ops if not op.probe]
    probes = [op for op in ops if op.probe]
    order: list[Op] = []
    for chunk in np.array_split(np.arange(len(main)), PROBE_ROUNDS):
        order += [main[i] for i in chunk] + probes
    return order


def build_ops(workload: str, seed: int, root: Path) -> list[Op]:
    """The operation list of one workload pass, in execution order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    audit_seed = int(rng.integers(1, 2**31))
    if workload == "sweep-2d":
        return _sweep_2d(rng, audit_seed, root)
    if workload == "fields-3d":
        return _fields_3d(rng, audit_seed, root)
    if workload == "evolve":
        return _evolve(rng, audit_seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_2d(rng, seed: int, root: Path) -> list[Op]:
    canon = _shipped(root, "wave_audit.yaml")
    ops = [Op("audit-canonical", "audit", 0, "carleman-audit", canon,
              meta={"seed": seed, "sample": 4})]

    poly = copy.deepcopy(canon)
    poly["grid"]["nodes"] = [33, 33]
    poly["coefficients"] = _poly_field_2d(rng)
    poly["audit"].update(taus=[2.0, 4.0], lambdas=[1.0, 2.0], ensemble=4, refine=True)
    ops.append(Op("audit-poly-33-refined", "audit", 0, "carleman-audit", poly,
                  meta={"seed": seed, "sample": 4}))

    for kind in ("wave_boundary", "parabolic_full", "schrodinger_full"):
        cfg = copy.deepcopy(canon)
        cfg["grid"]["nodes"] = [33, 33]
        cfg["equation"]["kind"] = kind.split("_")[0]
        cfg["audit"].update(kind=kind, lambdas=[1.0, 2.0], ensemble=4, refine=False)
        ops.append(Op(f"audit-{kind}-33", "audit", 0, "carleman-audit", cfg,
                      meta={"seed": seed, "sample": 4}))

    neg = copy.deepcopy(canon)
    neg["weight"]["gamma"] = 1.0
    neg["audit"].update(ensemble=8, refine=False)
    ops.append(Op("audit-negative-control", "audit", 2, "carleman-audit", neg,
                  meta={"seed": seed, "negative": True}))
    return ops + _probes(rng, seed, root, skip=("audit",))


def _fields_3d(rng, seed: int, root: Path) -> list[Op]:
    canon = _shipped(root, "wave_audit.yaml")
    field3 = _poly_field_3d(rng)
    x0 = _x0_outside(rng, 3)

    audit = copy.deepcopy(canon)
    audit["grid"] = _unit_grid(3, 17, -1.0, 1.0, 33)
    audit["coefficients"] = copy.deepcopy(field3)
    audit["weight"]["x0"] = x0
    audit["audit"].update(taus=[4.0, 8.0], lambdas=[2.0], ensemble=10, refine=False)
    ops = [Op("audit-3d-17", "audit", 0, "carleman-audit", audit,
              meta={"seed": seed, "sample": 3})]

    for m in (25, 33):
        cfg = copy.deepcopy(canon)
        cfg["grid"] = _unit_grid(3, m, -1.0, 1.0, 3)
        cfg["coefficients"] = copy.deepcopy(field3)
        cfg["weight"]["x0"] = x0
        cfg["theta"] = {"points": [[0.5, 0.5, 0.5], [0.25, 0.75, 0.5]]}
        ops.append(Op(f"certify-{m}", "certify", 0, "certify", cfg))
        ops.append(Op(f"theta-{m}", "certify", 0, "theta", copy.deepcopy(cfg)))
        ident = copy.deepcopy(cfg)
        # spatial conjugation keeps the 3D residual arrays free of a time axis
        ident["equation"] = {"kind": "elliptic"}
        ident["identities"] = {"tau": 1.0}
        ops.append(Op(f"identities-{m}", "certify", 0, "identities", ident,
                      meta={"pair": "identities-25"} if m == 33 else {}))

    flat = copy.deepcopy(canon)
    flat["grid"] = _unit_grid(3, 9, -1.0, 1.0, 3)
    flat["coefficients"] = copy.deepcopy(field3)
    flat["weight"]["x0"] = x0
    curv = rng.uniform(0.1, 0.3, size=2)
    flat["flatten"] = {"radius": 0.5, "surface_terms": [
        {"powers": [2, 0], "coeff": float(curv[0])},
        {"powers": [0, 2], "coeff": float(curv[1])}]}
    ops.append(Op("flatten", "certify", 0, "flatten", flat))

    ucp = copy.deepcopy(canon)
    ucp["ucp"] = {"c": 1.0, "eps": float(rng.uniform(0.05, 0.1)),
                  "t_span": float(rng.uniform(2.5, 3.5)),
                  "lambda": float(rng.uniform(0.5, 2.0)), "shift": 0.0}
    ops.append(Op("ucp-certificate", "certify", 0, "ucp-certificate", ucp))
    return ops + _probes(rng, seed, root, skip=("certify",))


def _evolve(rng, seed: int, root: Path) -> list[Op]:
    ops = [Op("observability-1d-shipped", "observability", 2, "observability",
              _shipped(root, "wave_observability_1d.yaml"))]
    # a fixed centre: the estimator's iteration count depends on it
    ops.append(Op("observability-wave-41", "observability", 2, "observability",
                  _observability_cfg(2, 41, 129, "wave", [-0.5, 0.5], 3, 6, seed)))
    for kind in ("heat_final", "schrodinger"):
        ops.append(Op(f"observability-{kind}-65", "observability", 2, "observability",
                      _observability_cfg(2, 65, 65, kind, _x0_outside(rng, 2), 2, 0, seed)))
    for kind in ("wave", "heat", "schrodinger"):
        mode = rng.integers(1, 4, size=2)
        ops.append(Op(f"solve-{kind}-41", "solve", 0, "solve",
                      _solve_cfg(2, 41, 65, kind, mode, _x0_outside(rng, 2), seed)))
    for m in (33, 41, 49):
        ops.append(Op(f"smoothing-{m}", "smoothing", nodes=[m, m],
                      t_samples=_smoothing_samples(rng)))
    return ops + _probes(rng, seed, root, skip=("observability", "solve", "smoothing"))
