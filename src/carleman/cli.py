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
from .experiments import CheckFailedError, observability_experiment, worst_case_ratio
from .geometry import SpaceTimeGrid, build_grid
from .operators import (
    LowerOrderCoeffs,
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

COMMANDS = (
    "certify",
    "theta",
    "flatten",
    "carleman-audit",
    "ucp-certificate",
    "solve",
    "observability",
    "identities",
)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


# -- config loading ---------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else path
        raise ConfigError(f"config parse error at {where}: {exc.problem}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be a mapping, got {type(cfg).__name__}")
    return cfg


def _need(cfg: dict, block: str) -> dict:
    if block not in cfg:
        raise ConfigError(f"missing config block {block!r}")
    val = cfg[block]
    if not isinstance(val, dict):
        raise ConfigError(f"config block {block!r} must be a mapping")
    return val


def _get(block: dict, key: str, where: str, default=_need):
    if key not in block:
        if default is _need:
            raise ConfigError(f"missing key {key!r} in block {where!r}")
        return default
    return block[key]


def build_grid_from(cfg: dict) -> SpaceTimeGrid:
    g = _need(cfg, "grid")
    try:
        return build_grid(
            _get(g, "lows", "grid"),
            _get(g, "highs", "grid"),
            _get(g, "nodes", "grid"),
            _get(g, "t1", "grid", 0.0),
            _get(g, "t2", "grid", 1.0),
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
    lam = float(_get(w, "lambda", "weight", 1.0))
    shift = float(_get(w, "shift", "weight", 0.0))
    extras: dict = {"family": family}
    try:
        if family == "example":
            spec = make_example_weight(
                _get(w, "x0", "weight"),
                float(_get(w, "t0", "weight", 0.0)),
                float(_get(w, "gamma", "weight", 0.0)),
                shift,
                grid,
                lam=lam,
            )
            return spec, extras
        if family == "observability":
            psi0 = _psi0_from(w, grid.n)
            spec, thresholds = make_observability_weight(
                psi0,
                float(_get(w, "alpha", "weight")),
                float(_get(w, "t_obs", "weight", grid.t2)),
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
            fam1 = p1.get("family", "zero")
            if fam1 == "zero":
                profile = TimeProfile.zero()
            elif fam1 == "quadratic":
                profile = TimeProfile.quadratic(
                    float(p1.get("gamma", 0.0)), float(p1.get("t0", 0.0))
                )
            elif fam1 == "observability":
                profile = TimeProfile.observability(
                    float(p1["alpha"]), float(p1.get("t_obs", grid.t2))
                )
            else:
                raise ConfigError(f"unknown psi1 family {fam1!r}")
            spec = WeightSpec(psi0=psi0, psi1=profile, shift=shift, lam=lam)
            return spec.ensure_nonnegative(grid), extras
    except ValueError as exc:
        raise ConfigError(f"weight: {exc}") from exc
    raise ConfigError(f"unknown weight family {family!r}")


def build_lower_from(cfg: dict, kind: str, n: int) -> LowerOrderCoeffs | None:
    eq = cfg.get("equation", {})
    low = eq.get("lower")
    if not low:
        return None
    space = tuple(complex(v) for v in low.get("space", ()))
    time = low.get("time")
    zero = complex(low.get("zero", 0.0))
    return LowerOrderCoeffs(
        kind=kind,
        space=space,
        time=None if time is None else complex(time),
        zero=zero,
        bound=low.get("bound"),
    )


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def emit_plots(paths, outdir: Path | None = None) -> list[Path]:
    """Render deterministic SVG plots from report CSV files.

    The CSV header selects the plot type: sweep tables become heatmaps of
    the per-cell minimum ratio, energy records become line plots, trace
    exports become per-face time-series plots, and ratio tables become
    histograms.  Header-only files produce a "no data" placeholder.
    """
    written: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"report file {path} does not exist")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"report file {path} is empty (no header)")
            trace = header[:1] == ["face"] and "trace_re" in header
            # trace exports run to 10^4 rows and more: plot them as they stream by
            trace_svg = _trace_plot_from_rows(header, reader) if trace else None
            body = list(reader)
        target_dir = Path(outdir) if outdir is not None else path.parent
        if header == ["tau", "lambda", "member", "ratio"]:
            out = target_dir / f"{path.stem}_heatmap.svg"
            out.write_text(_sweep_heatmap_from_rows(body))
        elif header == ["t", "energy"]:
            out = target_dir / f"{path.stem}.svg"
            if body:
                ts = [float(r[0]) for r in body]
                es = [float(r[1]) for r in body]
                out.write_text(line_svg([("energy", ts, es)], "energy record", "t", "E"))
            else:
                out.write_text(line_svg([], "energy record"))
        elif trace:
            out = target_dir / f"{path.stem}.svg"
            out.write_text(trace_svg)
        elif header == ["label", "data_norm", "trace_norm", "ratio", "flag"]:
            out = target_dir / f"{path.stem}_hist.svg"
            vals = [float(r[3]) for r in body if r[3] not in ("", "nan")]
            out.write_text(histogram_svg(vals, max(4, len(vals)), "quotient histogram"))
        else:
            raise ConfigError(f"unrecognized report columns in {path}: {header}")
        written.append(out)
    return written


def _sweep_heatmap_from_rows(body: list[list[str]]) -> str:
    if not body:
        return heatmap_svg([], [], [], "min ensemble ratio per (tau, lambda)")
    cells: dict[tuple[float, float], float] = {}
    for row in body:
        tau, lam, _, ratio = float(row[0]), float(row[1]), row[2], float(row[3])
        key = (tau, lam)
        if np.isfinite(ratio):
            cells[key] = min(cells.get(key, np.inf), ratio)
        else:
            cells.setdefault(key, np.inf)
    taus = sorted({k[0] for k in cells})
    lams = sorted({k[1] for k in cells})
    values = [
        [cells.get((t, l), float("nan")) for l in lams] for t in taus
    ]
    return heatmap_svg(
        values, [repr(t) for t in taus], [repr(l) for l in lams],
        "min ensemble ratio per (tau, lambda)",
    )


def _trace_plot_from_rows(header: list[str], body) -> str:
    t_col = header.index("t")
    re_col = header.index("trace_re")
    series: dict[str, tuple[list[float], list[float]]] = {}
    first_node: dict[str, tuple] = {}
    for row in body:
        face = row[0]
        node = tuple(row[1:t_col])
        first_node.setdefault(face, node)
        if node != first_node[face]:
            continue
        xs, ys = series.setdefault(f"face {face}", ([], []))
        xs.append(float(row[t_col]))
        ys.append(float(row[re_col]))
    if not series:
        return line_svg([], "normal trace time series")
    return line_svg(
        [(label, xs, ys) for label, (xs, ys) in series.items()],
        "normal trace time series", "t", "dnu u",
    )


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


def _cmd_certify(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    c = cfg.get("coefficients", {})
    ell = certify_ellipticity(
        field,
        grid,
        kappa_tolerance=float(c.get("kappa_max", np.inf)),
        m_tolerance=float(c.get("m_max", np.inf)),
    )
    kind = cfg.get("equation", {}).get("kind", "wave")
    spec, extras = build_weight_from(cfg, field, grid)
    adm = check_admissibility(spec, field, grid, kind, ellipticity=ell)
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
    block = cfg.get("theta", {})
    points = block.get("points")
    results = []
    if points:
        for p in points:
            dec = theta_decomposition(field, spec.psi0, np.asarray(p, dtype=float))
            results.append(
                {
                    "point": list(map(float, p)),
                    "Theta": dec.Theta,
                    "Upsilon": dec.Upsilon,
                    "theta_sym_min": dec.theta_sym_min,
                }
            )
    smin, gnorm = theta_scan(field, spec.psi0, grid.space_points)
    cert = certificate_from_scan(smin, gnorm, grid.space_points)
    write_json(outdir / "theta.json", {"points": results, "certificate": cert})
    rows = []
    pts = grid.space_points.reshape(-1, grid.n)
    for coords, s, g in zip(pts, smin.reshape(-1), gnorm.reshape(-1)):
        rows.append([*map(float, coords), float(s), float(g)])
    write_csv(
        outdir / "theta_scan.csv",
        [f"x{i}" for i in range(grid.n)] + ["theta_sym_min", "grad_norm"],
        rows,
    )
    return 0, []


def _cmd_flatten(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = cfg.get("flatten", {})
    terms = block.get("surface_terms", [])
    if grid.n < 2:
        raise ConfigError("flatten needs a spatial dimension of at least 2")
    surface = poly_from_table(
        grid.n - 1, [(tuple(t["powers"]), float(t["coeff"])) for t in terms]
    ) if terms else Polynomial(grid.n - 1, {})
    chart, cert = flatten_and_certify_hypersurface(
        field, surface, float(block.get("radius", 0.5))
    )
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


def _cmd_audit(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = cfg.get("audit", {})
    kind = block.get("kind", "wave_full")
    if kind not in INEQUALITY_KINDS:
        known = ", ".join(INEQUALITY_KINDS)
        raise ConfigError(f"audit: unknown kind {kind!r}; expected one of {known}")
    eq_kind = kind.split("_")[0]
    taus = _positive_list(block, "taus", [2.0, 4.0, 8.0, 16.0])
    lams = _positive_list(block, "lambdas", [1.0, 2.0, 4.0])
    spec, extras = build_weight_from(cfg, field, grid)
    lower = build_lower_from(cfg, eq_kind, grid.n)
    ell = certify_ellipticity(field, grid)
    adm = check_admissibility(spec, field, grid, eq_kind, ellipticity=ell)
    count = int(block.get("ensemble", 20))
    target = float(block.get("target", 0.0))
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
    if block.get("refine", False):
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
            fine_ensemble, fine_spec, fine_field, build_lower_from(cfg, eq_kind, fine.n),
            kind, taus, lams, fine, target=target,
        )
        drift, stable = compare_refinement(report, fine_report)
        drift_info = {"max_drift": float(np.nanmax(drift)), "stable": stable}
        if not stable:
            status = 2

    rows = []
    for i, tau in enumerate(taus):
        for j, lam in enumerate(lams):
            for m in range(len(ensemble)):
                rows.append([tau, lam, m, float(report.ratios[i, j, m])])
    write_csv(outdir / "audit.csv", ["tau", "lambda", "member", "ratio"], rows)
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
    emit_plots([outdir / "audit.csv"])
    return status, flags


def _cmd_ucp(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    block = cfg.get("ucp", {})
    c = float(_get(block, "c", "ucp"))
    eps = float(_get(block, "eps", "ucp"))
    t_span = float(_get(block, "t_span", "ucp"))
    lam = float(block.get("lambda", 1.0))
    shift = float(block.get("shift", 0.0))
    center = tuple(float(v) for v in block.get("center", [0.0] * grid.n))
    geom = UCPGeometry(
        center=center,
        c=c,
        r=float(block.get("r", c / 2.0)),
        r0=float(block.get("r0", c / 2.0)),
        rho0=float(block.get("rho0", c / 8.0)),
        rho1=float(block.get("rho1", c / 4.0)),
        eps=eps,
        t_span=t_span,
    )
    cert = ucp_region_certificate(geom, lam, shift)
    write_json(outdir / "ucp.json", cert)
    return (0 if cert.passed else 2), cert.flags


def _mode_data(grid: SpaceTimeGrid, mode) -> np.ndarray:
    u = np.ones(grid.space_shape)
    for ax in range(grid.n):
        coords = grid.domain.axis_coords(ax)
        s = (coords - coords[0]) / (coords[-1] - coords[0])
        k = int(mode[ax]) if ax < len(mode) else 1
        u = u * np.sin(k * np.pi * s).reshape(
            [-1 if i == ax else 1 for i in range(grid.n)]
        )
    return u


def _cmd_solve(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = cfg.get("solve", {})
    kind = block.get("kind", "wave")
    mode = block.get("mode", [1] * grid.n)
    u0 = _mode_data(grid, mode)
    lower = build_lower_from(cfg, "wave", grid.n) if kind == "wave" else None
    t_final = grid.t2
    if kind == "wave":
        data = WaveData(u0=u0, u1=np.zeros_like(u0))
    elif kind == "heat":
        data = HeatData(u0=u0)
    elif kind == "schrodinger":
        data = SchrodingerData(u0=u0.astype(complex))
    else:
        raise ConfigError(f"unknown solve kind {kind!r}")
    state = solve_evolution(kind, field, lower if kind == "wave" else None, data, t_final, grid)

    def rows():  # streamed: a 41^2 x 97 solve writes 15,908 trace rows
        for f in range(grid.num_faces):
            face_nodes = grid.space_points[grid.face_mask(f)]
            flat = state.traces[f].reshape(-1, grid.nt)
            for b in range(flat.shape[0]):
                for m in range(grid.nt):
                    val = flat[b, m]
                    yield [f, *[float(x) for x in face_nodes[b]], float(grid.times[m]),
                           float(np.real(val)), float(np.imag(val))]

    write_csv(
        outdir / "solve_traces.csv",
        ["face"] + [f"x{i}" for i in range(grid.n)] + ["t", "trace_re", "trace_im"],
        rows(),
    )
    write_csv(
        outdir / "solve_energy.csv",
        ["t", "energy"],
        [[float(t), float(e)] for t, e in zip(grid.times, state.energy.values)],
    )
    emit_plots([outdir / "solve_energy.csv", outdir / "solve_traces.csv"])
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
    block = cfg.get("observability", {})
    kind = block.get("kind", "wave")
    alpha = float(block.get("alpha", 0.5))
    t_obs = float(block.get("t_obs", grid.t2))
    w = _need(cfg, "weight")
    psi0 = _psi0_from(w, grid.n)
    n_modes = int(block.get("modes", 5))
    ensemble = []
    for m in range(1, n_modes + 1):
        u0 = _mode_data(grid, [1 + (m + ax) % 3 for ax in range(grid.n)])
        if kind == "wave":
            ensemble.append(WaveData(u0=u0, u1=np.zeros_like(u0)))
        elif kind == "heat_final":
            ensemble.append(HeatData(u0=u0))
        else:
            ensemble.append(SchrodingerData(u0=u0.astype(complex)))
    report = observability_experiment(
        kind, field, psi0, alpha, t_obs, ensemble, grid
    )
    result = {"report": report}
    if int(block.get("worst_case_iterations", 0)) > 0 and kind == "wave":
        wc = worst_case_ratio(
            kind, field, psi0, t_obs, grid, int(block["worst_case_iterations"])
        )
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
    emit_plots([outdir / "observability_ratios.csv"])
    status = 0 if report.threshold_ok else 2
    return status, report.flags


def _cmd_identities(cfg, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = cfg.get("identities", {})
    results = {}

    def bump(g: SpaceTimeGrid) -> np.ndarray:
        u = np.ones(g.space_shape)
        for ax in range(g.n):
            c = g.domain.axis_coords(ax)
            s = (c - c[0]) / (c[-1] - c[0])
            u = u * np.sin(np.pi * s).reshape([-1 if i == ax else 1 for i in range(g.n)])
        return u

    u = bump(grid)
    v = u**2
    results["green_defect"] = green_residual(u, v, field, grid)
    if grid.n >= 3:
        results["riemannian_defect"] = riemannian_identity_residual(field, u, grid)
    b_field = [Polynomial.coordinate(grid.n, (ax + 1) % grid.n) for ax in range(grid.n)]
    results["magnetic_defect"] = magnetic_expansion_residual(field, b_field, u, grid)

    spec, _ = build_weight_from(cfg, field, grid)
    kind = cfg.get("equation", {}).get("kind", "wave")

    def margin_bump(s):
        z = (s - 0.15) / 0.7
        out = np.zeros_like(z)
        m = (z > 0.0) & (z < 1.0)
        zz = 2.0 * z[m] - 1.0
        out[m] = np.exp(-1.0 / (1.0 - zz**2))
        return out

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
    tau = float(block.get("tau", 1.0))
    results["conjugation_residual"] = conjugation_residual(
        member, spec, field, kind, tau, grid
    )
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
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        return run_command(args.command, cfg, Path(args.out), seed, args.strict)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailedError as exc:  # a failed mathematical check, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
