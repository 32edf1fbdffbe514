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
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .audit import (INEQUALITY_KINDS, compare_refinement, default_ensemble, negative_control,
                    sweep_audit)
from .coefficients import MatrixField, certify_ellipticity
from .experiments import _SOLVE_KIND, CheckFailedError, observability_experiment
from .geometry import SpaceTimeGrid, build_grid, separable, sine_profile, smooth_bump
from .operators import (LowerOrderCoeffs, assemble_operator, conjugation_coeffs,
                        conjugation_residual, green_residual, magnetic_expansion_residual,
                        riemannian_identity_residual)
from .polynomials import Polynomial, poly_from_table
from .pseudoconvex import (certificate_from_scan, flatten_and_certify_hypersurface,
                           theta_decomposition, theta_scan)
from .solvers import HeatData, SchrodingerData, WaveData, _held, cfl_limit, solve_evolution
from .svg import heatmap_svg, histogram_svg, line_svg
from .weights import (TimeProfile, UCPGeometry, WeightSpec, _observability_profile, _outside_box,
                      check_admissibility, make_observability_weight,
                      ucp_region_certificate)


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


# -- the config table ---------------------------------------------------------------

# The commands that read the weight, psi0, A and the lower-order terms
_WEIGHT = ("certify", "theta", "carleman-audit", "identities")
_PSI0 = _WEIGHT + ("observability",)
_FIELD = _PSI0 + ("flatten", "solve")
_LOWER = ("carleman-audit", "solve", "observability")

# solve kind -> the kind of its lower-order terms
_LOWER_KIND = {"wave": "wave", "heat": "parabolic", "schrodinger": "schrodinger"}

_REQUIRED = ...  # the default of a key that must be given

# Types: ("number", "finite" | "positive" (finite, > 0) | "unbounded" (> 0,
# inf allowed)[, cap]), ("integer", lowest[, "n": below n]), ("bool",),
# ("enum", choices), ("complex",) (a number or a string complex() parses;
# finite), ("list", item, size: None | "n" | "<=n" | "1+"), ("mapping", table
# name) and ("terms", offset, cap): a polynomial term table over n + offset
# variables, every term of total degree <= cap.
_FINITE = ("number", "finite")
_POSITIVE = ("number", "positive")
_UNBOUNDED = ("number", "unbounded")
_POINT = ("list", _FINITE, "n")

# Every config key, per block, in the order it is checked: key: (type,
# default, the commands that read it (None: those that read the block), the
# families that read it (None: every one)).  A command checks every key given
# in a block it reads and requires the keys it reads.  A block's family is its
# "family" key, or "kind" in `observability`; a key of another family may only
# hold its default.
_TABLE = {
    "config": {
        "seed": (("integer", 0), 0, None, None),
        "grid": (("mapping", "grid"), _REQUIRED, None, None),
        "coefficients": (("mapping", "coefficients"), _REQUIRED, _FIELD, None),
        "weight": (("mapping", "weight"), _REQUIRED, _PSI0, None),
        "equation": (("mapping", "equation"), {}, ("certify", "identities") + _LOWER, None),
        "audit": (("mapping", "audit"), {}, ("carleman-audit",), None),
        "ucp": (("mapping", "ucp"), {}, ("ucp-certificate",), None),
        "flatten": (("mapping", "flatten"), {}, ("flatten",), None),
        "theta": (("mapping", "theta"), {}, ("theta",), None),
        "solve": (("mapping", "solve"), {}, ("solve",), None),
        "observability": (("mapping", "observability"), {}, ("observability",), None),
        "identities": (("mapping", "identities"), {}, ("identities",), None),
    },
    "grid": {
        "lows": (("list", _FINITE, None), _REQUIRED, None, None),
        "highs": (("list", _FINITE, None), _REQUIRED, None, None),
        "nodes": (("list", ("integer", 3), None), _REQUIRED, None, None),
        "t1": (_FINITE, 0.0, None, None),
        "t2": (_FINITE, 1.0, None, None),
        "nt": (("integer", 3), 33, None, None),
    },
    "coefficients": {
        "family": (("enum", ("identity", "constant", "scalar_affine", "polynomial")),
                   "identity", None, None),
        "matrix": (("list", _POINT, "n"), _REQUIRED, None, ("constant",)),
        "a0": (_FINITE, _REQUIRED, None, ("scalar_affine",)),
        "linear": (_POINT, _REQUIRED, None, ("scalar_affine",)),
        "entries": (("list", ("mapping", "coefficients: entries"), None), _REQUIRED, None,
                    ("polynomial",)),
        "kappa_max": (_UNBOUNDED, np.inf, ("certify",), None),
        "m_max": (_UNBOUNDED, np.inf, ("certify",), None),
    },
    "coefficients: entries": {
        "k": (("integer", 0, "n"), _REQUIRED, None, None),
        "l": (("integer", 0, "n"), _REQUIRED, None, None),
        "terms": (("terms", 0, 3), _REQUIRED, None, None),  # MatrixField's degree cap
    },
    "term": {
        "powers": (("list", ("integer", 0), None), _REQUIRED, None, None),
        "coeff": (_FINITE, _REQUIRED, None, None),
    },
    "weight": {
        "family": (("enum", ("example", "observability", "custom")), "example", _WEIGHT, None),
        "lambda": (_POSITIVE, 1.0, _WEIGHT, None),
        "shift": (_FINITE, 0.0, _WEIGHT, None),
        # psi0 is psi0_terms where they are read, else |x - x0|^2 / 2
        "x0": (_POINT, None, _PSI0, None),
        "psi0_terms": (("terms", 0, 6), None, _PSI0, ("observability", "custom")),
        "t0": (_FINITE, 0.0, _WEIGHT, ("example",)),
        "gamma": (_FINITE, 0.0, _WEIGHT, ("example",)),
        "alpha": (_FINITE, _REQUIRED, _WEIGHT, ("observability",)),
        "t_obs": (_FINITE, None, _WEIGHT, ("observability",)),  # default: grid.t2
        "psi1": (("mapping", "weight: psi1"), {}, _WEIGHT, ("custom",)),
    },
    "weight: psi1": {
        "family": (("enum", ("zero", "quadratic", "observability")), "zero", None, None),
        "gamma": (_FINITE, 0.0, None, ("quadratic",)),
        "t0": (_FINITE, 0.0, None, ("quadratic",)),
        "alpha": (_FINITE, _REQUIRED, None, ("observability",)),
        "t_obs": (_POSITIVE, None, None, ("observability",)),  # default: grid.t2
    },
    "equation": {
        "kind": (("enum", ("elliptic", "parabolic", "wave", "schrodinger")), "wave",
                 ("certify", "identities"), None),
        "lower": (("mapping", "equation: lower"), None, _LOWER, None),
    },
    "equation: lower": {  # all absent: no lower-order terms
        "space": (("list", ("complex",), "n"), None, None, None),
        "time": (("complex",), None, None, None),
        "zero": (("complex",), None, None, None),
        "bound": (_UNBOUNDED, None, None, None),
    },
    "audit": {
        "kind": (("enum", INEQUALITY_KINDS), "wave_full", None, None),
        "taus": (("list", _POSITIVE, "1+"), [2.0, 4.0, 8.0, 16.0], None, None),
        "lambdas": (("list", _POSITIVE, "1+"), [1.0, 2.0, 4.0], None, None),
        "ensemble": (("integer", 1), 20, None, None),
        "target": (_FINITE, 0.0, None, None),
        "refine": (("bool",), False, None, None),
    },
    "ucp": {
        "c": (_FINITE, _REQUIRED, None, None),
        "eps": (_FINITE, _REQUIRED, None, None),
        "t_span": (_FINITE, _REQUIRED, None, None),
        "lambda": (_POSITIVE, 1.0, None, None),
        "shift": (_FINITE, 0.0, None, None),
        "center": (_POINT, None, None, None),  # default: the origin
        "r": (_FINITE, None, None, None),  # defaults: c/2, c/2, c/8 and c/4
        "r0": (_FINITE, None, None, None),
        "rho0": (_FINITE, None, None, None),
        "rho1": (_FINITE, None, None, None),
    },
    "flatten": {
        # the transported A composes the surface: its cost grows fast with the degree
        "surface_terms": (("terms", -1, 6), [], None, None),
        "radius": (("number", "positive", 1e6), 0.5, None, None),
    },
    "theta": {
        "points": (("list", _POINT, None), [], None, None),
    },
    "solve": {
        "kind": (("enum", _LOWER_KIND), "wave", None, None),
        "mode": (("list", ("integer", 1), "<=n"), [], None, None),  # 1 on the axes left out
    },
    "observability": {
        "kind": (("enum", _SOLVE_KIND), "wave", None, None),
        "alpha": (_FINITE, 0.5, None, None),
        "t_obs": (_FINITE, None, None, None),  # default: grid.t2
        "modes": (("integer", 1), 5, None, None),
        "worst_case_iterations": (("integer", 0), 0, None, ("wave",)),
    },
    "identities": {
        "tau": (_POSITIVE, 1.0, None, None),
    },
}

# blocks that need one of these keys given (a key of another family is not given)
_ONE_OF = {"weight": ("psi0_terms", "x0")}


def _describe(typ, n="n", plural=False) -> str:
    """What a value of type ``typ`` must be (``plural``: what the items of a
    list must be); ``n`` is the spatial dimension."""
    kind, *arg = typ
    if kind == "bool":
        return "true or false"
    if kind == "enum":
        return "one of " + ", ".join(arg[0])
    if kind == "terms":
        m = n + arg[0] if isinstance(n, int) else n if arg[0] == 0 else f"{n} - {-arg[0]}"
        return (f"a list of terms {{powers: {m} non-negative integers, coeff: a finite "
                f"number}} of total degree <= {arg[1]}")
    if kind == "list":
        size = {None: "", "n": f"{n} ", "<=n": f"at most {n} ", "1+": "one or more "}[arg[1]]
        what = f"list~ of {size}{_describe(arg[0], n, True)}"
    elif kind == "number":
        what = {"finite": "finite number~", "positive": "positive finite number~",
                "unbounded": "positive number~"}[arg[0]] + (
                    f" at most {arg[1]:g}" if len(arg) > 1 else "")
    elif kind == "integer":
        what = {0: "non-negative integer~", 1: "positive integer~"}.get(
            arg[0], f"integer~ >= {arg[0]}") + (f" below {n}" if len(arg) > 1 else "")
    else:
        what = {"complex": "finite complex number~", "mapping": "mapping~"}[kind]
    if plural:
        return what.replace("~", "s")
    return ("an " if what[0] in "aeiou" else "a ") + what.replace("~", "")


def _check(value, typ, where: str | None, key: str, n: int | None, command: str | None = None):
    """``value``, the entry ``key`` of a block named ``where`` (None: the
    config root), checked against type ``typ``; numbers come back as floats."""
    kind, *arg = typ
    if kind == "mapping":
        if not isinstance(value, dict):
            raise ConfigError(f"config block {key!r} must be a mapping" if where is None else
                              f"{where}: {key} must be a mapping, got {type(value).__name__}")
        return _mapping(value, arg[0], key if where is None else f"{where}: {key}", n, command)
    if kind == "enum":
        if not isinstance(value, str) or value not in arg[0]:
            raise ConfigError(f"{where or key}: unknown {key} {value!r}; expected one of "
                              f"{', '.join(arg[0])}")
        return value
    if kind in ("list", "terms"):
        size = arg[1] if kind == "list" else None
        if not isinstance(value, list) or (
                size == "n" and len(value) != n or size == "<=n" and len(value) > n
                or size == "1+" and not value):
            raise ConfigError(f"{where or key}: {key} must be {_describe(typ, n)}, got {value!r}")
        if kind == "list":
            return [_check(v, arg[0], where, key, n, command) for v in value]
        m = n + arg[0]
        if m < 1:
            raise ConfigError(f"{where}: {key} needs a spatial dimension of at least "
                              f"{1 - arg[0]}")
        terms = [_check(t, ("mapping", "term"), where, key, n) for t in value]
        for t in terms:
            if len(t["powers"]) != m or sum(t["powers"]) > arg[1]:
                raise ConfigError(f"{where}: {key}: powers must be {m} non-negative integers "
                                  f"of total degree <= {arg[1]}, got {t['powers']!r}")
        return [(tuple(t["powers"]), t["coeff"]) for t in terms]
    if kind == "complex":
        try:
            c = complex(value) if isinstance(value, (int, float, str)) and not isinstance(
                value, bool) else None
        except ValueError:
            c = None
        if c is None or not np.isfinite(c):
            raise ConfigError(f"{where}: {key} must be {_describe(typ)}, got {value!r}")
        return c if c.imag else c.real  # real terms keep the operator and the solves real
    if kind == "bool":
        ok = isinstance(value, bool)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif kind == "integer":
        ok = isinstance(value, int) and value >= arg[0] and (len(arg) == 1 or value < n)
    else:
        ok = ((abs(value) <= sys.float_info.max or arg[0] == "unbounded" and value == np.inf)
              and (arg[0] == "finite" or value > 0) and (len(arg) == 1 or value <= arg[1]))
        value = float(value) if ok else value
    if not ok:
        raise ConfigError(f"{where or key}: {key} must be {_describe(typ, n)}, got {value!r}")
    return value


def _mapping(block: dict, name: str, where: str, n: int | None, command: str | None) -> dict:
    """Every key of table ``name``, as given in ``block`` or by default,
    checked; a key is required only where ``command`` reads it (every key
    when None)."""
    rows = _TABLE[name]
    for key in block:
        if key not in rows:
            raise ConfigError(f"{where}: unknown key {key!r}; expected one of "
                              f"{', '.join(rows)}")
    values = {}
    family = None  # a command that does not read the family is bound by no family
    for key, (typ, default, commands, families) in rows.items():
        reads = command is None or commands is None or command in commands
        value = block.get(key, default)
        if family is not None and families is not None and family not in families:
            if key in block and _check(value, typ, where, key, n, command) != default:
                disc = "family" if "family" in rows else "kind"
                raise ConfigError(f"{where}: {key} applies only to {disc} "
                                  f"{' or '.join(families)}, got {value!r} for {disc} {family}")
            values[key] = None if default is _REQUIRED else default
            continue
        if value is _REQUIRED and reads:
            raise ConfigError(f"missing key {key!r} in block {where!r}")
        given = value is not _REQUIRED and (key in block or value is not None)
        values[key] = _check(value, typ, where, key, n, command) if given else None
        if key in ("family", "kind") and reads and any(row[3] for row in rows.values()):
            family = values[key]
    keys = _ONE_OF.get(name, ())
    if keys and all(values[k] is None for k in keys):
        raise ConfigError(f"missing key {keys[-1]!r} in block {where!r}")
    return values


def _checked(cfg: dict, block: str, n: int | None = None, command: str | None = None):
    """The entry ``block`` of the config root, checked for ``command``."""
    typ, default, _, _ = _TABLE["config"][block]
    if cfg.get(block, default) is _REQUIRED:
        raise ConfigError(f"missing config block {block!r}")
    return _check(cfg.get(block, default), typ, None, block, n, command)


def build_grid_from(cfg: dict) -> SpaceTimeGrid:
    g = _checked(cfg, "grid")
    try:
        return build_grid(g["lows"], g["highs"], g["nodes"], g["t1"], g["t2"], g["nt"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_coefficients_from(cfg: dict, grid: SpaceTimeGrid) -> MatrixField:
    c = _checked(cfg, "coefficients", grid.n)
    try:
        if c["family"] == "constant":
            return MatrixField.constant(c["matrix"], domain=grid.domain)
        if c["family"] == "scalar_affine":
            return MatrixField.scalar_affine(grid.n, c["a0"], c["linear"], domain=grid.domain)
        if c["family"] == "polynomial":
            tables = {(e["k"], e["l"]): e["terms"] for e in c["entries"]}
            return MatrixField.from_tables(grid.n, tables, domain=grid.domain)
    except ValueError as exc:
        raise ConfigError(f"coefficients: {exc}") from exc
    return MatrixField.identity(grid.n, domain=grid.domain)


def _psi0_from(w: dict, n: int) -> Polynomial:
    if w["psi0_terms"] is not None:
        return poly_from_table(n, w["psi0_terms"])
    return Polynomial.squared_distance(w["x0"], scale=0.5)


def _weight_and_sample(cfg: dict, field: MatrixField, grid: SpaceTimeGrid,
                       derivatives: bool = True):
    """The weight, its report extras and the command's node sample (without
    ``derivatives``, dA and hess psi0 are None).  What reads no node is
    checked first: x0 outside the box, the observability parameters and
    psi1, whose readers multiply its values, so psi1 and its time derivative
    must be finite and below _SAMPLE_BOUND in size on the grid times.  The
    weight then reads psi0, A and grad psi0 from the sample."""
    w = _checked(cfg, "weight", grid.n)
    family, lam, shift, p1 = w["family"], w["lambda"], w["shift"], w["psi1"]
    psi0, t_obs = _psi0_from(w, grid.n), grid.t2 if w["t_obs"] is None else w["t_obs"]
    extras: dict = {"family": family}
    try:
        if family == "example":
            _outside_box(w["x0"], grid)
            psi1 = TimeProfile.quadratic(w["gamma"], w["t0"])
        elif family == "observability":
            psi1 = _observability_profile(w["alpha"], t_obs, grid)
        elif p1["family"] == "quadratic":
            psi1 = TimeProfile.quadratic(p1["gamma"], p1["t0"])
        elif p1["family"] == "observability":
            psi1 = TimeProfile.observability(p1["alpha"], p1["t_obs"] or grid.t2)
        else:
            psi1 = TimeProfile.zero()
        with np.errstate(over="ignore", invalid="ignore"):
            if not _bounded((psi1(grid.times), psi1.dt(grid.times))):
                raise ConfigError(f"weight: psi1 or its time derivative is not finite or "
                                  f"exceeds {_SAMPLE_BOUND:g} in size on the grid times")
        sample = a, _, vals0, grad, _ = _node_sample(field, psi0, grid, derivatives)
        # a squared (2.1) bracket may overflow on far nodes: delta then reads inf
        with np.errstate(over="ignore", invalid="ignore"):
            if family == "observability":
                spec, thresholds = make_observability_weight(psi0, w["alpha"], t_obs, shift, a,
                                                             vals0, grad, grid, lam=lam)
                extras["thresholds"] = dataclasses.asdict(thresholds)
            else:
                spec = WeightSpec(psi0=psi0, psi1=psi1, shift=shift,
                                  lam=lam).ensure_nonnegative(grid, float(np.min(vals0)))
    except ValueError as exc:
        raise ConfigError(f"weight: {exc}") from exc
    return spec, extras, sample


def build_weight_from(cfg: dict, field: MatrixField, grid: SpaceTimeGrid):
    """The weight and its report extras, from a node sample of their own."""
    return _weight_and_sample(cfg, field, grid, derivatives=False)[:2]


def build_lower_from(cfg: dict, kind: str, grid: SpaceTimeGrid) -> LowerOrderCoeffs | None:
    """``equation.lower``, with its declared ``bound`` checked on the grid."""
    low = _checked(cfg, "equation", grid.n)["lower"]
    if low is None or all(v is None for v in low.values()):
        return None
    lower = LowerOrderCoeffs(
        kind=kind,
        space=tuple(low["space"] or ()),
        time=low["time"],
        zero=0.0 if low["zero"] is None else low["zero"],
        bound=low["bound"],
    )
    try:
        lower.validate_bound(grid)
    except ValueError as exc:
        raise ConfigError(f"equation: lower: {exc}") from exc
    return lower


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
    versions = {"carleman": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                "python": sys.version.split()[0]}
    write_json(outdir / "manifest.json",
               {"command": command, "config": cfg, "seed": seed, "versions": versions})


# -- commands -------------------------------------------------------------------------


_SAMPLE_BOUND = 1e100


def _bounded(arrays) -> bool:
    return all(-_SAMPLE_BOUND < np.min(x) and np.max(x) < _SAMPLE_BOUND for x in arrays)


def _node_sample(field: MatrixField, psi0: Polynomial, grid: SpaceTimeGrid,
                 derivatives: bool = True):
    """A, its first derivatives and psi0 with its gradient and Hessian at the
    grid nodes, entry-planar: a command evaluates each once and hands it to
    every reader.  Without ``derivatives``, dA and hess psi0 are None: an
    audit sweep reads A, psi0 and grad psi0 alone.  The readers multiply up
    to three values of A and of the derivatives and add a few dozen products,
    so each must be finite and below _SAMPLE_BOUND in size; psi0, evaluated
    after that check, is not."""
    pts = grid.space_points
    with np.errstate(over="ignore", invalid="ignore"):
        a, grad = field(pts), psi0.eval_gradient(pts)
        da, hess = ((field.first_derivatives(pts), psi0.eval_hessian(pts)) if derivatives
                    else (None, None))
    if not _bounded(x for x in (a, da, grad, hess) if x is not None):
        raise ConfigError(f"grid: A or a derivative of A or psi0 is not finite or exceeds "
                          f"{_SAMPLE_BOUND:g} in size on the nodes")
    return a, da, psi0(pts), grad, hess


def _cmd_certify(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    c, kind = blocks["coefficients"], blocks["equation"]["kind"]
    spec, extras, sample = _weight_and_sample(cfg, field, grid)
    ell = certify_ellipticity(field, *sample[:2], grid.space_points, c["kappa_max"], c["m_max"])
    adm = check_admissibility(spec, *sample, grid, kind, ellipticity=ell)
    report = {"ellipticity": ell, "admissibility": adm, "weight": extras, "kind": kind,
              "lambda": spec.lam, "shift": spec.shift}
    write_json(outdir / "certificate.json", report)
    ok = ell.passed and adm.passed
    return (0 if ok else 2), []


def _cmd_theta(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    spec, _, (a, da, _, grad, hess) = _weight_and_sample(cfg, field, grid)
    results = []
    for point in blocks["theta"]["points"]:
        dec = theta_decomposition(field, spec.psi0, np.asarray(point))
        results.append({"point": point, "Theta": dec.Theta, "Upsilon": dec.Upsilon,
                        "theta_sym_min": dec.theta_sym_min})
    smin, gnorm = theta_scan(a, da, grad, hess)
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


def _cmd_flatten(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = blocks["flatten"]
    surface = poly_from_table(grid.n - 1, block["surface_terms"])
    chart, cert = flatten_and_certify_hypersurface(field, surface, block["radius"])
    report = {"radius": chart.radius, "halvings": chart.halvings,
              "theta_origin": chart.theta_origin,
              "theta_origin_min_eig": chart.theta_origin_min_eig,
              "jacobian_bound_ok": chart.jacobian_bound_ok,
              "jacobian_min_quadform": chart.jacobian_min_quadform, "certificate": cert}
    write_json(outdir / "flatten.json", report)
    ok = cert.passed and chart.jacobian_bound_ok
    return (0 if ok else 2), []


def _cmd_audit(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = blocks["audit"]
    kind, taus, lams, count = block["kind"], block["taus"], block["lambdas"], block["ensemble"]
    eq_kind = kind.split("_")[0]
    spec, extras, (a, da, vals0, grad, hess) = _weight_and_sample(cfg, field, grid)
    lower = build_lower_from(cfg, eq_kind, grid)
    ell = certify_ellipticity(field, a, da, grid.space_points)
    adm = check_admissibility(spec, a, da, vals0, grad, hess, grid, eq_kind, ellipticity=ell)
    del da, hess  # the sweep reads A, psi0 and grad psi0 alone
    target = block["target"]
    complex_fields, spatial = eq_kind == "schrodinger", eq_kind == "elliptic"
    ensemble = default_ensemble(grid, seed, count=count, complex_fields=complex_fields,
                                spatial=spatial)
    flags = []
    if adm.passed:
        report = sweep_audit(ensemble, spec, field, a, vals0, grad, lower, kind, taus, lams,
                             grid, target=target)
        status = 0 if report.tau_star is not None else 2
    else:
        report = negative_control(ensemble, spec, field, a, vals0, grad, lower, kind, taus, lams,
                                  grid, adm, target=target)
        flags.append("inadmissible-weight")
        status = 2
    del a, vals0, grad  # the fine grid samples its own nodes

    drift_info = None
    if block["refine"]:
        fine_nodes = [2 * (m - 1) + 1 for m in grid.space_shape]
        fine = build_grid(grid.domain.lows, grid.domain.highs, fine_nodes, grid.t1, grid.t2,
                          grid.nt)
        fine_field = build_coefficients_from(cfg, fine)
        fine_spec, _, (a, _, vals0, grad, _) = _weight_and_sample(cfg, fine_field, fine,
                                                                  derivatives=False)
        fine_ensemble = default_ensemble(fine, seed, count=count, complex_fields=complex_fields,
                                         spatial=spatial)
        fine_report = sweep_audit(
            fine_ensemble, fine_spec, fine_field, a, vals0, grad,
            build_lower_from(cfg, eq_kind, fine), kind, taus, lams, fine, target=target)
        drift, stable = compare_refinement(report, fine_report)
        drift = drift[~np.isnan(drift)]  # nan where a cell is inf (or 0) on both grids
        max_drift = float(np.max(drift)) if drift.size else float("nan")
        drift_info = {"max_drift": max_drift, "stable": stable}
        if not stable:
            status = 2

    write_csv(outdir / "audit.csv", ["tau", "lambda", "member", "ratio"],
              ([tau, lam, m, r] for tau, plane in zip(taus, report.ratios.tolist())
               for lam, cell in zip(lams, plane) for m, r in enumerate(cell)))
    summary = {"kind": kind, "taus": taus, "lambdas": lams, "aleph_emp": report.aleph_emp,
               "tau_star": report.tau_star, "lam_star": report.lam_star, "stamp": report.stamp,
               "admissibility": adm, "refinement": drift_info, "weight": extras,
               "note": "grid evidence only; no claim about continuum constants"}
    write_json(outdir / "audit.json", summary)
    # a repeated tau or lambda repeats its cells exactly: one heatmap cell each
    cells = {(tau, lam): r for tau, row in zip(taus, report.aleph_emp.tolist())
             for lam, r in zip(lams, row)}
    tau_axis, lam_axis = sorted(set(taus)), sorted(set(lams))
    (outdir / "audit_heatmap.svg").write_text(heatmap_svg(
        [[cells[t, l] for l in lam_axis] for t in tau_axis],
        [repr(t) for t in tau_axis], [repr(l) for l in lam_axis],
        "min ensemble ratio per (tau, lambda)",
    ))
    return status, flags


def _cmd_ucp(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    block = blocks["ucp"]
    c = block["c"]

    def given(key, default):
        return default if block[key] is None else block[key]

    geom = UCPGeometry(
        center=tuple(given("center", [0.0] * grid.n)), c=c, r=given("r", c / 2.0),
        r0=given("r0", c / 2.0), rho0=given("rho0", c / 8.0), rho1=given("rho1", c / 4.0),
        eps=block["eps"], t_span=block["t_span"],
    )
    cert = ucp_region_certificate(geom, block["lambda"], block["shift"])
    write_json(outdir / "ucp.json", cert)
    return (0 if cert.passed else 2), cert.flags


def _sine_data(kind: str, u0: np.ndarray):
    """Initial data of a solve kind from a real sine-mode field (u1 = 0)."""
    if kind == "wave":
        return WaveData(u0=u0, u1=np.zeros_like(u0))
    if kind == "heat":
        return HeatData(u0=u0)
    return SchrodingerData(u0=u0.astype(complex))


def _cmd_solve(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    kind, mode = blocks["solve"]["kind"], blocks["solve"]["mode"]
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
    info = {"kind": kind, "cfl_limit": _held(field, grid, cfl_limit) if kind == "wave" else None,
            "dt": grid.dt, "final_norm": float(state.energy.values[-1]),
            "initial_norm": float(state.energy.values[0]),
            "mode": "validation (n=1)" if grid.n == 1 else "standard"}
    write_json(outdir / "solve.json", info)
    return 0, []


def _cmd_observability(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    block = blocks["observability"]
    kind, alpha, n_modes = block["kind"], block["alpha"], block["modes"]
    t_obs = grid.t2 if block["t_obs"] is None else block["t_obs"]
    psi0 = _psi0_from(blocks["weight"], grid.n)
    solve_kind = _SOLVE_KIND[kind]
    lower = build_lower_from(cfg, _LOWER_KIND[solve_kind], grid)
    ensemble = [_sine_data(solve_kind, separable(
        grid, [sine_profile(1 + (m + ax) % 3) for ax in range(grid.n)]))
        for m in range(1, n_modes + 1)]
    report, wc = observability_experiment(
        kind, field, psi0, alpha, t_obs, ensemble, grid, _node_sample(field, psi0, grid),
        lower=lower, worst_case_iterations=block["worst_case_iterations"])
    result = {"report": report}
    if wc is not None:
        result["worst_case"] = {"ratio": wc.ratio, "ratios": wc.ratios,
                                "converged": wc.converged, "flag": wc.flag}
    write_json(outdir / "observability.json", result)
    write_csv(outdir / "observability_ratios.csv",
              ["label", "data_norm", "trace_norm", "ratio", "flag"],
              [[s.label, s.data_norm, s.trace_norm,
                s.ratio if s.ratio is not None else float("nan"), s.flag or ""]
               for s in report.samples])
    ratios = [s.ratio for s in report.samples if s.ratio is not None]
    (outdir / "observability_ratios_hist.svg").write_text(
        histogram_svg(ratios, max(4, len(ratios)), "quotient histogram")
    )
    status = 0 if report.threshold_ok else 2
    return status, report.flags


def _cmd_identities(cfg, blocks, grid, outdir, seed) -> tuple[int, list[str]]:
    field = build_coefficients_from(cfg, grid)
    tau, kind = blocks["identities"]["tau"], blocks["equation"]["kind"]
    spec, _, sample = _weight_and_sample(cfg, field, grid)
    a, da = sample[:2]
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
    coeffs = conjugation_coeffs(spec, *sample, kind, tau, grid)
    results["conjugation_residual"] = conjugation_residual(member, coeffs, mat, grid)
    write_json(outdir / "identities.json", results)
    ok = all(np.isfinite(v) for v in results.values())
    return (0 if ok else 2), []


_DISPATCH = {"certify": _cmd_certify, "theta": _cmd_theta, "flatten": _cmd_flatten,
             "carleman-audit": _cmd_audit, "ucp-certificate": _cmd_ucp, "solve": _cmd_solve,
             "observability": _cmd_observability, "identities": _cmd_identities}
COMMANDS = tuple(_DISPATCH)


def _check_config(cfg: dict, name: str, seed: int | None = None):
    """The seed (``seed`` when not None, else the config's), the grid and the
    checked blocks that command ``name`` reads: the root keys first, then the
    grid, which gives n, then every other block."""
    root = _TABLE["config"]
    for key in cfg:
        if key not in root:
            raise ConfigError(f"unknown config block {key!r}; expected one of {', '.join(root)}")
    seed = _checked(cfg, "seed") if seed is None else _check(seed, root["seed"][0], None,
                                                              "seed", None)
    grid = build_grid_from(cfg)
    return seed, grid, {block: _checked(cfg, block, grid.n, name) for block, row in root.items()
                        if row[0][0] == "mapping" and (row[2] is None or name in row[2])}


def run_command(name: str, cfg: dict, outdir: Path, seed: int | None = None,
                strict: bool = False) -> int:
    """Dispatch one command, its config checked before any work; returns the
    process exit status."""
    if name not in _DISPATCH:
        raise ConfigError(f"unknown command {name!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    seed, grid, blocks = _check_config(cfg, name, seed)
    write_manifest(outdir, name, cfg, seed)
    # a value that overflows or turns invalid stops the run, with one error line
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        status, flags = _DISPATCH[name](cfg, blocks, grid, outdir, seed)
    if strict and flags and status == 0:
        status = 2
    return status


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call of ``main`` and reused
    by every later one (building it takes about a millisecond)."""
    parser = _Parser(prog="carleman", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--strict", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not args.command:
            raise ConfigError("no command given")
        cfg = load_config(args.config)
        return run_command(args.command, cfg, Path(args.out), args.seed, args.strict)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailedError as exc:  # a failed mathematical check, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a run that blew up on finite inputs
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
