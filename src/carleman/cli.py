"""Config-driven command line front end.

Commands read a YAML config of named blocks (grid, coefficients, weight,
equation, plus a command block), run the requested certification or
experiment, and write a manifest, JSON/CSV reports and SVG plots into the
output directory.  Exit status: 0 all requested checks pass, 2 a check
failed, 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .audit import (
    INEQUALITY_KINDS,
    compare_refinement,
    default_ensemble,
    negative_control,
    sweep_audit,
)
from .coefficients import MatrixField, certify_ellipticity
from .experiments import (
    _SOLVE_KIND,
    CheckFailedError,
    observability_experiment,
    worst_case_ratio,
)
from .geometry import SpaceTimeGrid, build_grid, separable, sine_profile, smooth_bump
from .operators import (
    LowerOrderCoeffs,
    assemble_operator,
    conjugation_coeffs,
    conjugation_residual,
    green_residual,
    magnetic_expansion_residual,
    riemannian_identity_residual,
)
from .polynomials import Polynomial, poly_from_table
from .pseudoconvex import (
    certificate_from_scan,
    flatten_and_certify_hypersurface,
    theta_decomposition,
    theta_scan,
)
from .solvers import (
    HeatData,
    SchrodingerData,
    WaveData,
    cfl_limit,
    solve_evolution,
)
from .svg import heatmap_svg, histogram_svg, line_svg
from .weights import (
    TimeProfile,
    UCPGeometry,
    WeightSpec,
    check_admissibility,
    make_example_weight,
    make_observability_weight,
    ucp_region_certificate,
)

class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


# -- config loading ---------------------------------------------------------------


# libyaml's parser when PyYAML was built with it: the same safe constructor and
# resolver as yaml.SafeLoader, so the same dicts, parsed about 8x faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else path
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", exc)
        raise ConfigError(f"config parse error at {where}: {problem}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be a mapping, got {type(cfg).__name__}")
    return cfg


def _need(cfg: dict, block: str) -> dict:
    if block not in cfg:
        raise ConfigError(f"missing config block {block!r}")
    return _block(cfg, block)


def _block(cfg: dict, block: str) -> dict:
    """An optional config block: empty when absent, else it must be a mapping."""
    val = cfg.get(block, {})
    if not isinstance(val, dict):
        raise ConfigError(f"config block {block!r} must be a mapping")
    return val


def _get(block: dict, key: str, where: str, default=_need):
    if key not in block:
        if default is _need:
            raise ConfigError(f"missing key {key!r} in block {where!r}")
        return default
    return block[key]


def _number(block: dict, name: str, key: str, default=_need, positive: bool = False,
            finite: bool = True) -> float:
    """A number entry of config block ``name``: never NaN, finite unless not
    ``finite``, and > 0 if ``positive``."""
    value = _get(block, key, name, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or np.isnan(value)
            or (finite and np.isinf(value)) or (positive and not value > 0)):
        what = f"a {'positive ' if positive else ''}{'finite ' if finite else ''}number"
        raise ConfigError(f"{name}: {key} must be {what}, got {value!r}")
    return float(value)


def _point(block: dict, name: str, key: str, n: int | None = None,
           default=_need) -> tuple[float, ...]:
    """A point entry of config block ``name``: a list of ``n`` (any number
    when None) finite numbers."""
    value = _get(block, key, name, default)
    if not isinstance(value, list) or (n is not None and len(value) != n):
        size = "" if n is None else f"{n} "
        raise ConfigError(f"{name}: {key} must be a list of {size}finite numbers, got {value!r}")
    return tuple(_number({key: v}, name, key) for v in value)


def build_grid_from(cfg: dict) -> SpaceTimeGrid:
    g = _need(cfg, "grid")
    try:
        return build_grid(
            _point(g, "grid", "lows"),
            _point(g, "grid", "highs"),
            _get(g, "nodes", "grid"),
            _number(g, "grid", "t1", 0.0),
            _number(g, "grid", "t2", 1.0),
            _get(g, "nt", "grid", 33),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_coefficients_from(cfg: dict, grid: SpaceTimeGrid) -> MatrixField:
    c = _need(cfg, "coefficients")
    family = _get(c, "family", "coefficients", "identity")
    n = grid.n
    try:
        if family == "identity":
            return MatrixField.identity(n, domain=grid.domain)
        if family == "constant":
            return MatrixField.constant(_get(c, "matrix", "coefficients"), domain=grid.domain)
        if family == "scalar_affine":
            return MatrixField.scalar_affine(
                n,
                _get(c, "a0", "coefficients"),
                _get(c, "linear", "coefficients"),
                domain=grid.domain,
            )
        if family == "polynomial":
            entries = {}
            for item in _get(c, "entries", "coefficients"):
                k, l = int(item["k"]), int(item["l"])
                entries[(k, l)] = [
                    (tuple(t["powers"]), float(t["coeff"])) for t in item["terms"]
                ]
            return MatrixField.from_tables(n, entries, domain=grid.domain)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"coefficients: {exc}") from exc
    raise ConfigError(f"unknown coefficient family {family!r}")


def _psi0_from(w: dict, n: int) -> Polynomial:
    if "psi0_terms" in w:
        return poly_from_table(
            n, [(tuple(t["powers"]), float(t["coeff"])) for t in w["psi0_terms"]]
        )
    x0 = _get(w, "x0", "weight")
    return Polynomial.squared_distance([float(v) for v in x0], scale=0.5)


def build_weight_from(
    cfg: dict, field: MatrixField, grid: SpaceTimeGrid
) -> tuple[WeightSpec, dict]:
    w = _need(cfg, "weight")
    family = _get(w, "family", "weight", "example")
    extras: dict = {"family": family}
    lam = _number(w, "weight", "lambda", 1.0, positive=True)
    shift = _number(w, "weight", "shift", 0.0)
    # psi on far nodes may overflow; the node sample's check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if family == "example":
                spec = make_example_weight(
                    _get(w, "x0", "weight"),
                    _number(w, "weight", "t0", 0.0),
                    _number(w, "weight", "gamma", 0.0),
                    shift,
                    grid,
                    lam=lam,
                )
                return spec, extras
            if family == "observability":
                psi0 = _psi0_from(w, grid.n)
                spec, thresholds = make_observability_weight(
                    psi0,
                    _number(w, "weight", "alpha"),
                    _number(w, "weight", "t_obs", grid.t2),
                    shift,
                    field,
                    grid,
                    lam=lam,
                )
                extras["thresholds"] = dataclasses.asdict(thresholds)
                return spec, extras
            if family == "custom":
                psi0 = _psi0_from(w, grid.n)
                p1 = w.get("psi1", {"family": "zero"})
                if not isinstance(p1, dict):
                    raise ConfigError(f"weight: psi1 must be a mapping, got {type(p1).__name__}")
                fam1 = p1.get("family", "zero")
                where = "weight: psi1"
                if fam1 == "zero":
                    profile = TimeProfile.zero()
                elif fam1 == "quadratic":
                    profile = TimeProfile.quadratic(
                        _number(p1, where, "gamma", 0.0), _number(p1, where, "t0", 0.0)
                    )
                elif fam1 == "observability":
                    profile = TimeProfile.observability(
                        _number(p1, where, "alpha"), _number(p1, where, "t_obs", grid.t2)
                    )
                else:
                    raise ConfigError(f"unknown psi1 family {fam1!r}")
                spec = WeightSpec(psi0=psi0, psi1=profile, shift=shift, lam=lam)
                return spec.ensure_nonnegative(grid), extras
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"weight: {exc}") from exc
        raise ConfigError(f"unknown weight family {family!r}")


def build_lower_from(cfg: dict, kind: str, grid: SpaceTimeGrid) -> LowerOrderCoeffs | None:
    """``equation.lower``, with its declared ``bound`` checked on the grid."""
    eq = _block(cfg, "equation")
    low = eq.get("lower")
    if not low:
        return None
    if not isinstance(low, dict):
        raise ConfigError(f"equation: lower must be a mapping, got {type(low).__name__}")
    time = low.get("time")
    bound = low.get("bound")
    if bound is not None and (
        isinstance(bound, bool) or not isinstance(bound, (int, float)) or np.isnan(bound)
    ):  # a NaN bound would pass every coefficient
        raise ConfigError(f"equation: lower: bound must be a number, got {bound!r}")
    lower = LowerOrderCoeffs(
        kind=kind,
        space=tuple(_scalar(v) for v in low.get("space", ())),
        time=None if time is None else _scalar(time),
        zero=_scalar(low.get("zero", 0.0)),
        bound=bound,
    )
    try:
        lower.validate_bound(grid)
    except ValueError as exc:
        raise ConfigError(f"equation: lower: {exc}") from exc
    return lower


def _scalar(value) -> complex | float:
    """A config coefficient: real unless it has an imaginary part, so that
    real terms keep the assembled operator and the solves real."""
    c = complex(value)
    return c if c.imag else c.real


# -- output helpers -----------------------------------------------------------------


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, Polynomial):
        return {"terms": [{"powers": list(p), "coeff": c} for p, c in sorted(obj.terms.items())]}
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_to_jsonable(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    """The header and rows, as ``csv.writer`` writes them.

    A row is a list of cells, or a str: one line of a large numeric table,
    its cells joined by the caller with floats formatted by repr, as csv
    does (none of them needs quoting), and its line end.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


def write_manifest(outdir: Path, command: str, cfg: dict, seed: int) -> None:
    write_json(
        outdir / "manifest.json",
        {
            "command": command,
            "config": cfg,
            "seed": seed,
            "versions": {
                "carleman": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
        },
    )


# -- commands -------------------------------------------------------------------------


_SAMPLE_BOUND = 1e100


def _node_sample(field: MatrixField, psi0: Polynomial, pts: np.ndarray):
    """A, its first derivatives and the gradient and Hessian of psi0 at the
    nodes ``pts``, entry-planar: a command evaluates each once, checks it and
    hands it to every reader.  The readers multiply up to three sample values
    and add a few dozen products, so every value must be finite and below
    _SAMPLE_BOUND in size."""
    with np.errstate(over="ignore", invalid="ignore"):
        sample = (field(pts), field.first_derivatives(pts),
                  psi0.eval_gradient(pts), psi0.eval_hessian(pts))
    if not all(-_SAMPLE_BOUND < np.min(x) and np.max(x) < _SAMPLE_BOUND for x in sample):
        raise ConfigError(f"grid: A or a derivative of A or psi0 is not finite or exceeds "
                          f"{_SAMPLE_BOUND:g} in size on the nodes")
    return sample


def _certify_weight(field, spec, grid, kind, kappa_max=np.inf, m_max=np.inf):
    """Ellipticity and weight admissibility from one node sample."""
    pts = grid.space_points
    a, da, grad, hess = _node_sample(field, spec.psi0, pts)
    ell = certify_ellipticity(field, a, da, pts, kappa_max, m_max)
    return ell, check_admissibility(spec, a, da, grad, hess, grid, kind, ellipticity=ell)


def _cmd_certify(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    c = _block(cfg, "coefficients")
    kappa_max = _number(c, "coefficients", "kappa_max", np.inf, positive=True, finite=False)
    m_max = _number(c, "coefficients", "m_max", np.inf, positive=True, finite=False)
    kind = _block(cfg, "equation").get("kind", "wave")
    spec, extras = build_weight_from(cfg, field, grid)
    ell, adm = _certify_weight(field, spec, grid, kind, kappa_max, m_max)
    report = {
        "ellipticity": ell,
        "admissibility": adm,
        "weight": extras,
        "kind": kind,
        "lambda": spec.lam,
        "shift": spec.shift,
    }
    write_json(outdir / "certificate.json", report)
    ok = ell.passed and adm.passed
    return (0 if ok else 2), []


def _cmd_theta(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    spec, _ = build_weight_from(cfg, field, grid)
    block = _block(cfg, "theta")
    points = block.get("points")
    results = []
    try:
        for p in points or []:
            point = _point({"points": p}, "theta", "points", grid.n)
            dec = theta_decomposition(field, spec.psi0, np.asarray(point))
            results.append(
                {
                    "point": list(point),
                    "Theta": dec.Theta,
                    "Upsilon": dec.Upsilon,
                    "theta_sym_min": dec.theta_sym_min,
                }
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta: {exc}") from exc
    smin, gnorm = theta_scan(*_node_sample(field, spec.psi0, grid.space_points))
    cert = certificate_from_scan(smin, gnorm, grid.space_points)
    write_json(outdir / "theta.json", {"points": results, "certificate": cert})
    # node coordinates are axis values: each one is formatted once, as the
    # csv module would (repr), each node's cells are joined once, and the
    # nodes in C order index into them
    axes = [[repr(v) for v in grid.domain.axis_coords(i).tolist()] for i in range(grid.n)]
    rows = zip(map(",".join, itertools.product(*axes)),
               smin.reshape(-1).tolist(), gnorm.reshape(-1).tolist())
    write_csv(
        outdir / "theta_scan.csv",
        [f"x{i}" for i in range(grid.n)] + ["theta_sym_min", "grad_norm"],
        (f"{node},{s!r},{g!r}\n" for node, s, g in rows),
    )
    return 0, []


def _cmd_flatten(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = _block(cfg, "flatten")
    if grid.n < 2:
        raise ConfigError("flatten needs a spatial dimension of at least 2")
    surface = poly_from_table(grid.n - 1, _surface_terms(block, grid.n - 1))
    radius = _number(block, "flatten", "radius", 0.5, positive=True)
    chart, cert = flatten_and_certify_hypersurface(field, surface, radius)
    report = {
        "radius": chart.radius,
        "halvings": chart.halvings,
        "theta_origin": chart.theta_origin,
        "theta_origin_min_eig": chart.theta_origin_min_eig,
        "jacobian_bound_ok": chart.jacobian_bound_ok,
        "jacobian_min_quadform": chart.jacobian_min_quadform,
        "certificate": cert,
    }
    write_json(outdir / "flatten.json", report)
    ok = cert.passed and chart.jacobian_bound_ok
    return (0 if ok else 2), []


_SURFACE_DEGREE = 6  # the transported A composes the surface: cost grows fast with degree


def _surface_terms(block: dict, m: int) -> list:
    """``flatten.surface_terms`` as (powers, coeff) pairs: ``m`` non-negative
    integer powers of total degree <= _SURFACE_DEGREE and a finite coeff."""
    terms = block.get("surface_terms", [])
    if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
        raise ConfigError(f"flatten: surface_terms must be a list of mappings, got {terms!r}")
    for t in terms:
        powers = t["powers"]
        if (not isinstance(powers, list) or len(powers) != m
                or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in powers)
                or sum(powers) > _SURFACE_DEGREE):
            raise ConfigError(f"flatten: surface_terms powers must be {m} non-negative "
                              f"integers of total degree <= {_SURFACE_DEGREE}, got {powers!r}")
    return [(tuple(t["powers"]), _number(t, "flatten", "coeff")) for t in terms]


def _positive_list(block: dict, key: str, default: list[float]) -> list[float]:
    values = block.get(key, default)
    try:
        values = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"audit: {key} must be a list of numbers") from exc
    if not values:
        raise ConfigError(f"audit: {key} must not be empty")
    if not all(v > 0 for v in values):
        raise ConfigError(f"audit: {key} must be positive, got {values}")
    return values


def _integer(block: dict, name: str, key: str, default: int, positive: bool = True) -> int:
    """An integer entry of config block ``name``: positive, or non-negative."""
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < int(positive):
        sign = "positive" if positive else "non-negative"
        raise ConfigError(f"{name}: {key} must be a {sign} integer, got {value!r}")
    return value


def _cmd_audit(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = _block(cfg, "audit")
    kind = block.get("kind", "wave_full")
    if kind not in INEQUALITY_KINDS:
        known = ", ".join(INEQUALITY_KINDS)
        raise ConfigError(f"audit: unknown kind {kind!r}; expected one of {known}")
    eq_kind = kind.split("_")[0]
    taus = _positive_list(block, "taus", [2.0, 4.0, 8.0, 16.0])
    lams = _positive_list(block, "lambdas", [1.0, 2.0, 4.0])
    spec, extras = build_weight_from(cfg, field, grid)
    lower = build_lower_from(cfg, eq_kind, grid)
    _, adm = _certify_weight(field, spec, grid, eq_kind)
    count = _integer(block, "audit", "ensemble", 20)
    target = _number(block, "audit", "target", 0.0)
    refine = block.get("refine", False)
    if not isinstance(refine, bool):
        raise ConfigError(f"audit: refine must be true or false, got {refine!r}")
    complex_fields = eq_kind == "schrodinger"
    spatial = eq_kind == "elliptic"
    ensemble = default_ensemble(
        grid, seed, count=count, complex_fields=complex_fields, spatial=spatial
    )
    flags = []
    if adm.passed:
        report = sweep_audit(
            ensemble, spec, field, lower, kind, taus, lams, grid,
            target=target,
        )
        status = 0 if report.tau_star is not None else 2
    else:
        report = negative_control(
            ensemble, spec, field, lower, kind, taus, lams, grid, adm,
            target=target,
        )
        flags.append("inadmissible-weight")
        status = 2

    drift_info = None
    if refine:
        fine_nodes = [2 * (m - 1) + 1 for m in grid.space_shape]
        fine = build_grid(
            grid.domain.lows, grid.domain.highs, fine_nodes, grid.t1, grid.t2, grid.nt
        )
        fine_field = build_coefficients_from(cfg, fine)
        fine_spec, _ = build_weight_from(cfg, fine_field, fine)
        fine_ensemble = default_ensemble(
            fine, seed, count=count, complex_fields=complex_fields, spatial=spatial
        )
        fine_report = sweep_audit(
            fine_ensemble, fine_spec, fine_field, build_lower_from(cfg, eq_kind, fine),
            kind, taus, lams, fine, target=target,
        )
        drift, stable = compare_refinement(report, fine_report)
        drift = drift[~np.isnan(drift)]  # nan where a cell is inf (or 0) on both grids
        max_drift = float(np.max(drift)) if drift.size else float("nan")
        drift_info = {"max_drift": max_drift, "stable": stable}
        if not stable:
            status = 2

    write_csv(
        outdir / "audit.csv",
        ["tau", "lambda", "member", "ratio"],
        (
            [tau, lam, m, r]
            for tau, plane in zip(taus, report.ratios.tolist())
            for lam, cell in zip(lams, plane)
            for m, r in enumerate(cell)
        ),
    )
    summary = {
        "kind": kind,
        "taus": taus,
        "lambdas": lams,
        "aleph_emp": report.aleph_emp,
        "tau_star": report.tau_star,
        "lam_star": report.lam_star,
        "stamp": report.stamp,
        "admissibility": adm,
        "refinement": drift_info,
        "weight": extras,
        "note": "grid evidence only; no claim about continuum constants",
    }
    write_json(outdir / "audit.json", summary)
    # a repeated tau or lambda repeats its cells exactly: one heatmap cell each
    cells = {
        (tau, lam): v
        for tau, row in zip(taus, report.aleph_emp.tolist())
        for lam, v in zip(lams, row)
    }
    tau_axis, lam_axis = sorted(set(taus)), sorted(set(lams))
    (outdir / "audit_heatmap.svg").write_text(heatmap_svg(
        [[cells[t, l] for l in lam_axis] for t in tau_axis],
        [repr(t) for t in tau_axis], [repr(l) for l in lam_axis],
        "min ensemble ratio per (tau, lambda)",
    ))
    return status, flags


def _cmd_ucp(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    block = _block(cfg, "ucp")
    c = _number(block, "ucp", "c")
    eps = _number(block, "ucp", "eps")
    t_span = _number(block, "ucp", "t_span")
    lam = _number(block, "ucp", "lambda", 1.0, positive=True)
    shift = _number(block, "ucp", "shift", 0.0)
    center = _point(block, "ucp", "center", grid.n, [0.0] * grid.n)
    geom = UCPGeometry(
        center=center, c=c, r=_number(block, "ucp", "r", c / 2.0),
        r0=_number(block, "ucp", "r0", c / 2.0), rho0=_number(block, "ucp", "rho0", c / 8.0),
        rho1=_number(block, "ucp", "rho1", c / 4.0), eps=eps, t_span=t_span,
    )
    cert = ucp_region_certificate(geom, lam, shift)
    write_json(outdir / "ucp.json", cert)
    return (0 if cert.passed else 2), cert.flags


# solve kind -> the kind of its lower-order terms
_LOWER_KIND = {"wave": "wave", "heat": "parabolic", "schrodinger": "schrodinger"}


def _sine_data(kind: str, u0: np.ndarray):
    """Initial data of a solve kind from a real sine-mode field (u1 = 0)."""
    if kind == "wave":
        return WaveData(u0=u0, u1=np.zeros_like(u0))
    if kind == "heat":
        return HeatData(u0=u0)
    if kind == "schrodinger":
        return SchrodingerData(u0=u0.astype(complex))
    raise ConfigError(f"unknown solve kind {kind!r}")


def _cmd_solve(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = _block(cfg, "solve")
    kind = block.get("kind", "wave")
    mode = block.get("mode", [1] * grid.n)
    if not isinstance(mode, list):
        raise ConfigError(f"solve: mode must be a list of integers, got {mode!r}")
    if len(mode) > grid.n:
        raise ConfigError(f"solve: mode must have at most one entry per axis ({grid.n}), "
                          f"got {mode!r}")
    for m in mode:
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ConfigError(f"solve: mode must be a positive integer per axis, got {m!r}")
    data = _sine_data(kind, separable(
        grid, [sine_profile(mode[ax] if ax < len(mode) else 1) for ax in range(grid.n)]
    ))
    lower = build_lower_from(cfg, _LOWER_KIND[kind], grid)
    state = solve_evolution(kind, field, lower, data, grid.t2, grid)

    times, energy = grid.times.tolist(), state.energy.values.tolist()

    # streamed one face node at a time (a 41^2 x 97 solve writes 15,908 rows); the
    # times and each node's face and coordinates are formatted and joined once, as
    # the csv module would (str, repr), so only the trace values are formatted per row
    time_cells = [repr(t) for t in times]

    def rows():
        for f, trace in enumerate(state.traces):
            for node, tr in zip(grid.space_points[grid.face_mask(f)].tolist(), trace):
                prefix = ",".join([str(f), *map(repr, node)])
                for t, re, im in zip(time_cells, tr.real.tolist(), tr.imag.tolist()):
                    yield f"{prefix},{t},{re!r},{im!r}\n"

    write_csv(
        outdir / "solve_traces.csv",
        ["face"] + [f"x{i}" for i in range(grid.n)] + ["t", "trace_re", "trace_im"],
        rows(),
    )
    write_csv(outdir / "solve_energy.csv", ["t", "energy"], zip(times, energy))
    (outdir / "solve_energy.svg").write_text(
        line_svg([("energy", times, energy)], "energy record", "t", "E")
    )

    def loudest(trace):
        """The face node of largest max_t |Re trace|, the first one on ties: a
        fixed node can sit on a nodal line of the mode and plot rounding noise."""
        return trace[np.argmax(np.max(np.abs(trace.real), axis=1))].real.tolist()

    (outdir / "solve_traces.svg").write_text(line_svg(
        [(f"face {f}", times, loudest(trace)) for f, trace in enumerate(state.traces)],
        "normal trace time series", "t", "dnu u",
    ))
    info = {
        "kind": kind,
        "cfl_limit": cfl_limit(field, grid) if kind == "wave" else None,
        "dt": grid.dt,
        "final_norm": float(state.energy.values[-1]),
        "initial_norm": float(state.energy.values[0]),
        "mode": "validation (n=1)" if grid.n == 1 else "standard",
    }
    write_json(outdir / "solve.json", info)
    return 0, []


def _cmd_observability(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = _block(cfg, "observability")
    kind = block.get("kind", "wave")
    alpha = _number(block, "observability", "alpha", 0.5)
    t_obs = _number(block, "observability", "t_obs", grid.t2)
    w = _need(cfg, "weight")
    psi0 = _psi0_from(w, grid.n)
    n_modes = _integer(block, "observability", "modes", 5)
    iterations = _integer(block, "observability", "worst_case_iterations", 0, positive=False)
    if kind not in _SOLVE_KIND:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if iterations > 0 and kind != "wave":
        raise ConfigError(f"observability: worst_case_iterations applies only to kind wave, "
                          f"got {iterations} for kind {kind}")
    solve_kind = _SOLVE_KIND[kind]
    lower = build_lower_from(cfg, _LOWER_KIND[solve_kind], grid)
    ensemble = [
        _sine_data(solve_kind, separable(
            grid, [sine_profile(1 + (m + ax) % 3) for ax in range(grid.n)]
        ))
        for m in range(1, n_modes + 1)
    ]
    report = observability_experiment(
        kind, field, psi0, alpha, t_obs, ensemble, grid, lower=lower
    )
    result = {"report": report}
    if iterations > 0:
        wc = worst_case_ratio(kind, field, psi0, t_obs, grid, iterations, lower=lower)
        result["worst_case"] = {
            "ratio": wc.ratio,
            "ratios": wc.ratios,
            "converged": wc.converged,
            "flag": wc.flag,
        }
    write_json(outdir / "observability.json", result)
    write_csv(
        outdir / "observability_ratios.csv",
        ["label", "data_norm", "trace_norm", "ratio", "flag"],
        [
            [s.label, s.data_norm, s.trace_norm,
             s.ratio if s.ratio is not None else float("nan"), s.flag or ""]
            for s in report.samples
        ],
    )
    ratios = [s.ratio for s in report.samples if s.ratio is not None]
    (outdir / "observability_ratios_hist.svg").write_text(
        histogram_svg(ratios, max(4, len(ratios)), "quotient histogram")
    )
    status = 0 if report.threshold_ok else 2
    return status, report.flags


def _cmd_identities(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    tau = _number(_block(cfg, "identities"), "identities", "tau", 1.0, positive=True)
    spec, _ = build_weight_from(cfg, field, grid)
    kind = _block(cfg, "equation").get("kind", "wave")
    a, da, grad0, hess0 = _node_sample(field, spec.psi0, grid.space_points)
    mat = assemble_operator(field, None, grid)
    results = {}

    u = separable(grid, [sine_profile(1)] * grid.n)
    v = u**2
    results["green_defect"] = green_residual(u, v, a, mat, grid)
    if grid.n >= 3:
        results["riemannian_defect"] = riemannian_identity_residual(a, da, mat, u, grid)
    b_field = [Polynomial.coordinate(grid.n, (ax + 1) % grid.n) for ax in range(grid.n)]
    results["magnetic_defect"] = magnetic_expansion_residual(a, da, b_field, u, grid)

    def bump(s):  # zero on a margin of 0.15 around dQ
        return smooth_bump(s, 0.15, 0.85)

    member = separable(grid, [bump] * grid.n, None if kind == "elliptic" else bump)
    coeffs = conjugation_coeffs(spec, a, da, grad0, hess0, kind, tau, grid)
    results["conjugation_residual"] = conjugation_residual(member, coeffs, mat, grid)
    write_json(outdir / "identities.json", results)
    ok = all(np.isfinite(v) for v in results.values())
    return (0 if ok else 2), []


_DISPATCH = {
    "certify": _cmd_certify,
    "theta": _cmd_theta,
    "flatten": _cmd_flatten,
    "carleman-audit": _cmd_audit,
    "ucp-certificate": _cmd_ucp,
    "solve": _cmd_solve,
    "observability": _cmd_observability,
    "identities": _cmd_identities,
}
COMMANDS = tuple(_DISPATCH)


def run_command(name: str, cfg: dict, outdir: Path, seed: int, strict: bool = False) -> int:
    """Dispatch one command; returns the process exit status."""
    if name not in _DISPATCH:
        raise ConfigError(f"unknown command {name!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    grid = build_grid_from(cfg)
    write_manifest(outdir, name, cfg, seed)
    status, flags = _DISPATCH[name](cfg, grid, outdir, seed)
    if strict and flags and status == 0:
        status = 2
    return status


def main(argv=None) -> int:
    parser = _Parser(prog="carleman", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--strict", action="store_true")
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError("no command given")
        cfg = load_config(args.config)
        seed = _integer(cfg if args.seed is None else {"seed": args.seed},
                        "seed", "seed", 0, positive=False)
        return run_command(args.command, cfg, Path(args.out), seed, args.strict)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailedError as exc:  # a failed mathematical check, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # a config entry without a key it needs
        print(f"error: config: missing key {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
