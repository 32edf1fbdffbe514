import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from carleman.audit import INEQUALITY_KINDS
from carleman.cli import build_lower_from, main
from carleman.svg import heatmap_svg, line_svg, map_points

BASE_CONFIG = {
    "seed": 11,
    "grid": {
        "lows": [0.0, 0.0],
        "highs": [1.0, 1.0],
        "nodes": [9, 9],
        "t1": -1.0,
        "t2": 1.0,
        "nt": 9,
    },
    "coefficients": {"family": "identity"},
    "weight": {
        "family": "example",
        "x0": [-0.5, 0.5],
        "t0": 0.0,
        "gamma": 0.25,
        "lambda": 2.0,
    },
    "equation": {"kind": "wave"},
}


def write_config(tmp_path, extra=None, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


def run(command, cfg_path, out, *extra_args):
    return main([command, "--config", str(cfg_path), "--out", str(out), *extra_args])


def test_certify_passes_and_writes_certificate(tmp_path):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("certify", cfg, out) == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["admissibility"]["passed"] is True
    assert report["ellipticity"]["kappa_estimate"] == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["command"] == "certify"


def test_certify_quadratic_weight_kappa_two(tmp_path):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "out"
    run("certify", cfg, out)
    report = json.loads((out / "certificate.json").read_text())
    assert report["admissibility"]["kappa"] == pytest.approx(2.0)


def test_manifest_config_round_trips(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run("certify", cfg_path, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == cfg


def test_unknown_command_is_usage_error(tmp_path):
    cfg, _ = write_config(tmp_path)
    assert main(["frobnicate", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_config_is_usage_error(tmp_path):
    assert main(["certify", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 1


def test_malformed_yaml_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: [unclosed\n  nodes: 3\n")
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"bad\.yaml:\d+:\d+", err)


_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda lo: lo.__name__)
def test_config_loaders_agree_and_report_parse_errors(tmp_path, capsys, monkeypatch, loader):
    """libyaml's loader and the pure-Python one give the same dicts and the
    same one-line parse error with the line and column."""
    import carleman.cli as cli

    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    root = Path(__file__).resolve().parents[1]
    for shipped in sorted((root / "configs").glob("*.yaml")):
        assert cli.load_config(str(shipped)) == yaml.safe_load(shipped.read_text())
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid:\n  lows: [0.0\n  highs: 1\n")
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: config parse error at {bad}:3:8: ")
    bad.write_text("seed: 1\x01\n")  # a reader error carries no mark
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: config parse error at {bad}: ")


def test_missing_block_reports_key(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("seed: 1\n")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "grid" in capsys.readouterr().err


def test_audit_command_artifacts_and_exit(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        extra={"audit": {"kind": "wave_full", "taus": [2.0, 4.0],
                         "lambdas": [1.0], "ensemble": 4}},
    )
    out = tmp_path / "out"
    assert run("carleman-audit", cfg, out) == 0
    assert (out / "audit.csv").exists()
    assert (out / "audit_heatmap.svg").exists()
    summary = json.loads((out / "audit.json").read_text())
    assert summary["tau_star"] == 2.0
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "tau,lambda,member,ratio"
    assert len(lines) == 1 + 2 * 1 * 4


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name="wave_audit"):
    return yaml.safe_load((SHIPPED / f"{name}.yaml").read_text())


def _shipped_wave_audit():
    return _shipped()


def _put(block, key, value):
    """A probe that sets ``cfg[block][key]``, or ``cfg[key]`` when block is None."""
    def probe(cfg):
        (cfg if block is None else cfg.setdefault(block, {}))[key] = value
    return probe


def _surface_powers(powers):
    return _put("flatten", "surface_terms", [{"powers": powers, "coeff": 0.25}])


def _polynomial_field(**entry):
    """A 2-D polynomial A whose (0, 0) entry is ``entry`` over a valid one."""
    one = [{"powers": [0, 0], "coeff": 1.0}]
    return _put(None, "coefficients", {"family": "polynomial", "entries": [
        {"k": 0, "l": 0, "terms": one, **entry}, {"k": 1, "l": 1, "terms": one}]})


_NAN, _INF = float("nan"), float("inf")
_A = "wave_audit"
_O = "wave_observability_1d"
_POWERS = "flatten: surface_terms: powers must be"
_RADIUS = "flatten: radius must be a positive finite number at most 1e+06"
_PSI1 = "weight: psi1 or its time derivative is not finite or exceeds 1e+100 in size on the grid times"

# Bad configs, each one line on stderr and exit 1.  A row is (test, id, shipped
# config, command, probe, the message after "error: ", written): every config
# error stops before the manifest, so the output directory stays empty, but
# errors found while the command runs (written=True) come after it.
BAD_CONFIGS = [
    ("audit", "unknown-kind", _A, "carleman-audit", _put("audit", "kind", "foo_bar"),
     f"audit: unknown kind 'foo_bar'; expected one of {', '.join(INEQUALITY_KINDS)}", False),
    ("audit", "empty-taus", _A, "carleman-audit", _put("audit", "taus", []),
     "audit: taus must be a list of one or more positive finite numbers, got []", False),
    ("audit", "empty-lambdas", _A, "carleman-audit", _put("audit", "lambdas", []),
     "audit: lambdas must be a list of one or more positive finite numbers, got []", False),
    ("audit", "negative-tau", _A, "carleman-audit", _put("audit", "taus", [2.0, -1.0]),
     "audit: taus must be a positive finite number, got -1.0", False),
    ("audit", "ensemble-text", _A, "carleman-audit", _put("audit", "ensemble", "abc"),
     "audit: ensemble must be a positive integer, got 'abc'", False),
    ("audit", "ensemble-fraction", _A, "carleman-audit", _put("audit", "ensemble", 2.5),
     "audit: ensemble must be a positive integer, got 2.5", False),
    ("audit", "ensemble-zero", _A, "carleman-audit", _put("audit", "ensemble", 0),
     "audit: ensemble must be a positive integer, got 0", False),
    ("audit", "target-text", _A, "carleman-audit", _put("audit", "target", "abc"),
     "audit: target must be a finite number, got 'abc'", False),
    ("audit", "target-nan", _A, "carleman-audit", _put("audit", "target", _NAN),
     "audit: target must be a finite number, got nan", False),
    ("audit", "taus-bool", _A, "carleman-audit", _put("audit", "taus", [True, 4.0]),
     "audit: taus must be a positive finite number, got True", False),
    ("audit", "tau-typo", _A, "carleman-audit", _put("audit", "tau", [1.0]),
     "audit: unknown key 'tau'; expected one of kind, taus, lambdas, ensemble, target, "
     "refine", False),
    ("shape", "surface-term-without-powers", _A, "flatten",
     _put("flatten", "surface_terms", [{"coeff": 0.25}]),
     "missing key 'powers' in block 'flatten: surface_terms'", False),
    ("shape", "psi1-without-alpha", _A, "certify", _put(None, "weight", {
        "family": "custom", "x0": [-0.5, 0.5], "psi1": {"family": "observability"}}),
     "missing key 'alpha' in block 'weight: psi1'", False),
    ("shape", "lower-is-a-list", _A, "carleman-audit", _put("equation", "lower", [1.0, 2.0]),
     "equation: lower must be a mapping, got list", False),
    ("shape", "nodes-fraction", _A, "certify", _put("grid", "nodes", [17.9, 17]),
     "grid: nodes must be an integer >= 3, got 17.9", False),
    ("shape", "nodes-too-few", _A, "certify", _put("grid", "nodes", [2, 17]),
     "grid: nodes must be an integer >= 3, got 2", False),
    ("shape", "nt-fraction", _A, "certify", _put("grid", "nt", 33.7),
     "grid: nt must be an integer >= 3, got 33.7", False),
    ("shape", "seed-fraction", _A, "certify", _put(None, "seed", 1.5),
     "seed: seed must be a non-negative integer, got 1.5", False),
    ("shape", "seed-text", _A, "certify", _put(None, "seed", "abc"),
     "seed: seed must be a non-negative integer, got 'abc'", False),
    ("shape", "seed-negative", _A, "carleman-audit", _put(None, "seed", -1),
     "seed: seed must be a non-negative integer, got -1", False),
    ("shape", "mode-fraction", _A, "solve", _put("solve", "mode", [1.5]),
     "solve: mode must be a positive integer, got 1.5", False),
    ("shape", "mode-not-a-list", _A, "solve", _put("solve", "mode", 2),
     "solve: mode must be a list of at most 2 positive integers, got 2", False),
    ("shape", "lambda-text", _A, "certify", _put("weight", "lambda", "big"),
     "weight: lambda must be a positive finite number, got 'big'", False),
    ("shape", "shift-text", _A, "certify", _put("weight", "shift", "abc"),
     "weight: shift must be a finite number, got 'abc'", False),
    ("shape", "theta-point-too-short", _A, "theta", _put("theta", "points", [[0.5]]),
     "theta: points must be a list of 2 finite numbers, got [0.5]", False),
    ("shape", "grid-t1-nan-solve", _A, "solve", _put("grid", "t1", _NAN),
     "grid: t1 must be a finite number, got nan", False),
    ("shape", "grid-t1-nan-certify", _A, "certify", _put("grid", "t1", _NAN),
     "grid: t1 must be a finite number, got nan", False),
    ("shape", "grid-t2-inf", _A, "certify", _put("grid", "t2", _INF),
     "grid: t2 must be a finite number, got inf", False),
    ("shape", "grid-t1-beyond-doubles", _A, "certify", _put("grid", "t1", -10**400),
     f"grid: t1 must be a finite number, got {-10**400}", False),
    ("shape", "grid-highs-bool", _A, "certify", _put("grid", "highs", [True, 1.0]),
     "grid: highs must be a finite number, got True", False),
    ("shape", "grid-lows-not-a-list", _A, "certify", _put("grid", "lows", 0.0),
     "grid: lows must be a list of finite numbers, got 0.0", False),
    ("shape", "radius-negative", _A, "flatten", _put("flatten", "radius", -0.5),
     f"{_RADIUS}, got -0.5", False),
    ("shape", "radius-zero", _A, "flatten", _put("flatten", "radius", 0), f"{_RADIUS}, got 0",
     False),
    ("shape", "radius-inf", _A, "flatten", _put("flatten", "radius", _INF),
     f"{_RADIUS}, got inf", False),
    ("shape", "radius-nan", _A, "flatten", _put("flatten", "radius", _NAN),
     f"{_RADIUS}, got nan", False),
    ("shape", "radius-text", _A, "flatten", _put("flatten", "radius", "wide"),
     f"{_RADIUS}, got 'wide'", False),
    ("shape", "radius-huge", _A, "flatten", _put("flatten", "radius", 1e308),
     f"{_RADIUS}, got 1e+308", False),
    ("shape", "tau-inf", _A, "identities", _put("identities", "tau", _INF),
     "identities: tau must be a positive finite number, got inf", False),
    ("shape", "tau-nan", _A, "identities", _put("identities", "tau", _NAN),
     "identities: tau must be a positive finite number, got nan", False),
    ("shape", "tau-negative", _A, "identities", _put("identities", "tau", -1),
     "identities: tau must be a positive finite number, got -1", False),
    ("shape", "tau-text", _A, "identities", _put("identities", "tau", "big"),
     "identities: tau must be a positive finite number, got 'big'", False),
    ("shape", "kappa-max-nan", _A, "certify", _put("coefficients", "kappa_max", _NAN),
     "coefficients: kappa_max must be a positive number, got nan", False),
    ("shape", "m-max-nan", _A, "certify", _put("coefficients", "m_max", _NAN),
     "coefficients: m_max must be a positive number, got nan", False),
    ("shape", "kappa-max-text", _A, "certify", _put("coefficients", "kappa_max", "tight"),
     "coefficients: kappa_max must be a positive number, got 'tight'", False),
    ("shape", "m-max-bool", _A, "certify", _put("coefficients", "m_max", True),
     "coefficients: m_max must be a positive number, got True", False),
    ("shape", "powers-fraction", _A, "flatten", _surface_powers([2.5]),
     f"{_POWERS} a non-negative integer, got 2.5", False),
    ("shape", "powers-huge", _A, "flatten", _surface_powers([1e308]),
     f"{_POWERS} a non-negative integer, got 1e+308", False),
    ("shape", "powers-bool", _A, "flatten", _surface_powers([True]),
     f"{_POWERS} a non-negative integer, got True", False),
    ("shape", "powers-negative", _A, "flatten", _surface_powers([-1]),
     f"{_POWERS} a non-negative integer, got -1", False),
    ("shape", "powers-degree", _A, "flatten", _surface_powers([7]),
     f"{_POWERS} 1 non-negative integers of total degree <= 6, got [7]", False),
    ("shape", "powers-too-many", _A, "flatten", _surface_powers([1, 1]),
     f"{_POWERS} 1 non-negative integers of total degree <= 6, got [1, 1]", False),
    ("shape", "refine-text", _A, "carleman-audit", _put("audit", "refine", "x"),
     "audit: refine must be true or false, got 'x'", False),
    ("shape", "grid-highs-overflow", _A, "certify", _put("grid", "highs", [1e308, 1]),
     "grid: A or a derivative of A or psi0 is not finite or exceeds 1e+100 in size on the "
     "nodes", True),
    ("shape", "identities-lambda-overflow", _A, "identities", _put("weight", "lambda", 1e308),
     "identities: weight exponent lambda * psi out of double range", True),
    ("shape", "entry-k-fraction", _A, "certify", _polynomial_field(k=1.5),
     "coefficients: entries: k must be a non-negative integer below 2, got 1.5", False),
    ("shape", "entry-k-out-of-range", _A, "certify", _polynomial_field(k=2),
     "coefficients: entries: k must be a non-negative integer below 2, got 2", False),
    ("shape", "entry-powers-fraction", _A, "certify",
     _polynomial_field(terms=[{"powers": [2.5, 0], "coeff": 1.0}]),
     "coefficients: entries: terms: powers must be a non-negative integer, got 2.5", False),
    ("shape", "entry-powers-huge", _A, "certify",
     _polynomial_field(terms=[{"powers": [1e308, 0], "coeff": 1.0}]),
     "coefficients: entries: terms: powers must be a non-negative integer, got 1e+308", False),
    ("shape", "entry-degree", _A, "certify",
     _polynomial_field(terms=[{"powers": [2, 2], "coeff": 1.0}]),
     "coefficients: entries: terms: powers must be 2 non-negative integers of total degree "
     "<= 3, got [2, 2]", False),
    ("shape", "psi0-powers-fraction", _A, "certify", _put(None, "weight", {
        "family": "custom", "psi0_terms": [{"powers": [2.5, 0], "coeff": 0.5}]}),
     "weight: psi0_terms: powers must be a non-negative integer, got 2.5", False),
    ("shape", "constant-matrix-bool", _A, "certify", _put(None, "coefficients", {
        "family": "constant", "matrix": [[1.0, 0.0], [0.0, True]]}),
     "coefficients: matrix must be a finite number, got True", False),
    ("shape", "lower-zero-bool", _A, "carleman-audit", _put("equation", "lower", {"zero": True}),
     "equation: lower: zero must be a finite complex number, got True", False),
    ("shape", "lambda-typo", _A, "certify", _put("weight", "lamda", 2.0),
     "weight: unknown key 'lamda'; expected one of family, lambda, shift, x0, psi0_terms, t0, "
     "gamma, alpha, t_obs, psi1", False),
    ("shape", "x0-bool", _A, "certify", _put("weight", "x0", [-0.5, True]),
     "weight: x0 must be a finite number, got True", False),
    ("shape", "theta-points-zero", _A, "theta", _put("theta", "points", 0),
     "theta: points must be a list of lists of 2 finite numbers, got 0", False),
    ("shape", "theta-points-mapping", _A, "theta", _put("theta", "points", {}),
     "theta: points must be a list of lists of 2 finite numbers, got {}", False),
    ("shape", "modes-typo", _O, "observability", _put("observability", "mode", 9),
     "observability: unknown key 'mode'; expected one of kind, alpha, t_obs, modes, "
     "worst_case_iterations", False),
    ("shape", "unknown-block", _A, "certify", _put(None, "audits", {}),
     "unknown config block 'audits'; expected one of seed, grid, coefficients, weight, "
     "equation, audit, ucp, flatten, theta, solve, observability, identities", False),
    ("shape", "lower-zero-nan-solve", _O, "solve", _put("equation", "lower", {"zero": _NAN}),
     "equation: lower: zero must be a finite complex number, got nan", False),
    ("shape", "lower-zero-nanj-observability", _O, "observability",
     _put("equation", "lower", {"zero": "nanj"}),
     "equation: lower: zero must be a finite complex number, got 'nanj'", False),
    ("shape", "lower-zero-huge-solve", _O, "solve", _put("equation", "lower", {"zero": 1e300}),
     "solve: solver produced non-finite values", True),
    ("shape", "lower-space-huge-observability", _O, "observability",
     _put("equation", "lower", {"space": [1e200]}),
     "observability: solver produced non-finite values", True),
    ("shape", "highs-huge-solve", _O, "solve", _put("grid", "highs", [1e308]),
     "solve: overflow encountered in add", True),
    ("shape", "t2-huge-certify-1d", _O, "certify", _put("grid", "t2", 1e308), _PSI1, True),
    ("shape", "t2-huge-certify-2d", _A, "certify", _put("grid", "t2", 1e308), _PSI1, True),
    ("shape", "t0-huge-certify", _A, "certify", _put("weight", "t0", 1e308), _PSI1, True),
    ("numbers", "weight-gamma-nan", _A, "certify", _put("weight", "gamma", _NAN),
     "weight: gamma must be a finite number, got nan", False),
    ("numbers", "weight-t0-nan", _A, "certify", _put("weight", "t0", _NAN),
     "weight: t0 must be a finite number, got nan", False),
    ("numbers", "weight-lambda-nan", _A, "certify", _put("weight", "lambda", _NAN),
     "weight: lambda must be a positive finite number, got nan", False),
    ("numbers", "weight-lambda-inf", _A, "certify", _put("weight", "lambda", _INF),
     "weight: lambda must be a positive finite number, got inf", False),
    ("numbers", "weight-shift-inf", _A, "certify", _put("weight", "shift", _INF),
     "weight: shift must be a finite number, got inf", False),
    ("numbers", "weight-t_obs-inf", _O, "certify", _put(None, "weight", {
        "family": "observability", "x0": [-0.5], "alpha": 0.5, "t_obs": _INF}),
     "weight: t_obs must be a finite number, got inf", False),
    ("numbers", "observability-t_obs-inf", _O, "observability",
     _put("observability", "t_obs", _INF),
     "observability: t_obs must be a finite number, got inf", False),
    ("numbers", "observability-t_obs-nan", _O, "observability",
     _put("observability", "t_obs", _NAN),
     "observability: t_obs must be a finite number, got nan", False),
    ("numbers", "ucp-eps-nan", _A, "ucp-certificate", _put("ucp", "eps", _NAN),
     "ucp: eps must be a finite number, got nan", False),
    ("numbers", "ucp-t_span-inf", _A, "ucp-certificate", _put("ucp", "t_span", _INF),
     "ucp: t_span must be a finite number, got inf", False),
    ("numbers", "ucp-r-inf", _A, "ucp-certificate", _put("ucp", "r", _INF),
     "ucp: r must be a finite number, got inf", False),
    ("numbers", "ucp-lambda-inf", _A, "ucp-certificate", _put("ucp", "lambda", _INF),
     "ucp: lambda must be a positive finite number, got inf", False),
    ("numbers", "ucp-shift-nan", _A, "ucp-certificate", _put("ucp", "shift", _NAN),
     "ucp: shift must be a finite number, got nan", False),
    ("numbers", "ucp-center-nan", _A, "ucp-certificate", _put("ucp", "center", [_NAN, 0.0]),
     "ucp: center must be a finite number, got nan", False),
    ("numbers", "ucp-center-too-short", _A, "ucp-certificate", _put("ucp", "center", [0.0]),
     "ucp: center must be a list of 2 finite numbers, got [0.0]", False),
    ("numbers", "psi1-not-a-mapping", _A, "certify",
     _put(None, "weight", {"family": "custom", "x0": [-0.5, 0.5], "psi1": [1, 2]}),
     "weight: psi1 must be a mapping, got list", False),
    ("numbers", "theta-point-nan", _A, "theta", _put("theta", "points", [[_NAN, 0.5]]),
     "theta: points must be a finite number, got nan", False),
    ("numbers", "theta-point-a-number", _A, "theta", _put("theta", "points", [0.5]),
     "theta: points must be a list of 2 finite numbers, got 0.5", False),
    ("numbers", "mode-zero", _O, "solve", _put("solve", "mode", [0]),
     "solve: mode must be a positive integer, got 0", False),
    ("numbers", "mode-too-long", _O, "solve", _put("solve", "mode", [1, 2]),
     "solve: mode must be a list of at most 1 positive integers, got [1, 2]", False),
    ("blocks", "certify-equation", _A, "certify", _put(None, "equation", ["wave"]),
     "config block 'equation' must be a mapping", False),
    ("blocks", "identities-equation", _A, "identities", _put(None, "equation", ["wave"]),
     "config block 'equation' must be a mapping", False),
    ("blocks", "audit-equation", _A, "carleman-audit", _put(None, "equation", ["wave"]),
     "config block 'equation' must be a mapping", False),
    ("blocks", "audit-audit", _A, "carleman-audit", _put(None, "audit", 3),
     "config block 'audit' must be a mapping", False),
    ("blocks", "solve-solve", _A, "solve", _put(None, "solve", "wave"),
     "config block 'solve' must be a mapping", False),
    ("blocks", "theta-theta", _A, "theta", _put(None, "theta", [1]),
     "config block 'theta' must be a mapping", False),
]


def _bad(test):
    return [pytest.param(*row[2:], id=row[1]) for row in BAD_CONFIGS if row[0] == test]


def _exits_1_with_one_line(tmp_path, capsys, config, command, probe, message, written):
    cfg = _shipped(config)
    probe(cfg)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert run(command, path, out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in out.iterdir()] == (["manifest.json"] if written else [])


_BAD_FIELDS = "config, command, probe, message, written"


@pytest.mark.parametrize(_BAD_FIELDS, _bad("audit"))
def test_audit_config_errors_exit_1_with_one_line(tmp_path, capsys, config, command, probe,
                                                  message, written):
    _exits_1_with_one_line(tmp_path, capsys, config, command, probe, message, written)


@pytest.mark.parametrize(_BAD_FIELDS, _bad("shape"))
def test_config_shape_errors_exit_1_with_one_line(tmp_path, capsys, config, command, probe,
                                                  message, written):
    _exits_1_with_one_line(tmp_path, capsys, config, command, probe, message, written)


@pytest.mark.parametrize(_BAD_FIELDS, _bad("numbers"))
def test_bad_command_numbers_exit_1_with_one_line(tmp_path, capsys, config, command, probe,
                                                  message, written):
    """Numbers that no check downstream would catch (a NaN weight certified, an
    infinite observation time passed every grid check) stop before any scan."""
    _exits_1_with_one_line(tmp_path, capsys, config, command, probe, message, written)


def test_non_mapping_config_blocks_exit_1_with_one_line(tmp_path, capsys):
    for i, row in enumerate(_bad("blocks")):
        (tmp_path / row.id).mkdir()
        _exits_1_with_one_line(tmp_path / row.id, capsys, *row.values)


def test_certify_accepts_infinite_tolerances(tmp_path):
    cfg, _ = write_config(tmp_path, coefficients={
        "family": "identity", "kappa_max": float("inf"), "m_max": float("inf")})
    assert run("certify", cfg, tmp_path / "out") == 0


def test_negative_seed_flag_exits_1_with_one_line(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert run("certify", cfg, tmp_path / "out", "--seed", "-1") == 1
    assert capsys.readouterr().err == "error: seed: seed must be a non-negative integer, got -1\n"


def test_real_lower_order_terms_stay_real(tmp_path, capsys):
    cfg = _shipped_wave_audit()
    cfg["equation"]["lower"] = {"space": [0.2, 0.0], "zero": 0.5, "time": "0.1j"}
    from carleman.cli import build_grid_from

    lower = build_lower_from(cfg, "wave", build_grid_from(cfg))
    assert lower.space == (0.2, 0.0) and lower.zero == 0.5 and lower.time == 0.1j
    assert all(isinstance(c, float) for c in (*lower.space, lower.zero))
    cfg["equation"]["lower"] = {"space": [0.2, 0.0], "zero": 0.5}
    cfg["audit"].update(ensemble=2, taus=[2.0], lambdas=[1.0], refine=False)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("carleman-audit", path, tmp_path / "out") == 0
    assert capsys.readouterr().err == ""


def test_threads_flag_is_gone(tmp_path):
    cfg, _ = write_config(tmp_path)
    assert run("certify", cfg, tmp_path / "out", "--threads", "2") == 1


def test_audit_all_nan_refinement_drift_is_reported_quietly(tmp_path, capsys):
    # every cell is inf on both grids, so every per-cell drift is nan: the
    # report says so without a numpy warning (an error under this suite's
    # filters)
    cfg = _shipped_wave_audit()
    cfg["audit"].update(taus=[64, 128], lambdas=[4], ensemble=4)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("carleman-audit", path, tmp_path / "out") == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert summary["refinement"] == {"max_drift": "nan", "stable": False}


def test_audit_inadmissible_weight_exits_2_and_stamps(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        extra={
            "weight": {"family": "example", "x0": [-0.5, 0.5], "t0": 0.0,
                       "gamma": 1.0, "lambda": 2.0},
            "audit": {"kind": "wave_full", "taus": [2.0], "lambdas": [1.0],
                      "ensemble": 2},
        },
    )
    out = tmp_path / "out"
    assert run("carleman-audit", cfg, out) == 2
    summary = json.loads((out / "audit.json").read_text())
    assert summary["stamp"] == "INADMISSIBLE WEIGHT: exploratory"
    codes = [v["code"] for v in summary["admissibility"]["violations"]]
    assert "(2.1)" in codes and "(2.2)" in codes


def test_reproducibility_byte_identical(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        extra={"audit": {"kind": "wave_full", "taus": [2.0], "lambdas": [1.0],
                         "ensemble": 4}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("carleman-audit", cfg, out1) == 0
    assert run("carleman-audit", cfg, out2) == 0
    for name in ("audit.csv", "audit.json", "audit_heatmap.svg", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_ucp_certificate_command(tmp_path):
    cfg, _ = write_config(
        tmp_path, extra={"ucp": {"c": 1.0, "eps": 0.1, "t_span": 3.0, "lambda": 1.0}}
    )
    out = tmp_path / "out"
    assert run("ucp-certificate", cfg, out) == 0
    report = json.loads((out / "ucp.json").read_text())
    assert report["passed"] is True
    assert report["exponents"] == pytest.approx([0.425, 0.4, 0.40625])


def test_ucp_below_threshold_exits_2(tmp_path):
    cfg, _ = write_config(
        tmp_path, extra={"ucp": {"c": 1.0, "eps": 0.1, "t_span": 2.0}}
    )
    assert run("ucp-certificate", cfg, tmp_path / "out") == 2


def test_strict_mode_fails_on_flags(tmp_path):
    cfg, _ = write_config(
        tmp_path, extra={"ucp": {"c": 1.0, "eps": 0.1, "t_span": 3.0}}
    )
    # the exponent-shift interpretation flag is always recorded
    assert run("ucp-certificate", cfg, tmp_path / "out", "--strict") == 2


def test_solve_command_writes_traces_and_energy(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [33], "t1": 0.0,
              "t2": 0.5, "nt": 65},
        extra={"solve": {"kind": "wave", "mode": [1]}},
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    for name in ("solve_traces.csv", "solve_energy.csv", "solve_energy.svg",
                 "solve_traces.svg", "solve.json"):
        assert (out / name).exists()
    rows = (out / "solve_energy.csv").read_text().splitlines()
    assert rows[0] == "t,energy"
    assert len(rows) == 1 + 65


def _run_with_lower(tmp_path, name, command, block, lower):
    """Run a 2D config with ``equation.lower`` set (or not); returns the output
    directory."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["grid"].update(t1=0.0, t2=0.5, nt=17)
    cfg["equation"] = {"kind": "parabolic", **({"lower": lower} if lower else {})}
    cfg[command] = block
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / name
    assert run(command, path, out) in (0, 2)
    return out


def test_heat_solve_applies_lower_order_terms(tmp_path):
    from carleman import HeatData, MatrixField, solve_evolution
    from carleman.cli import build_grid_from
    from carleman.geometry import separable, sine_profile
    from carleman.operators import LowerOrderCoeffs

    energies = {}
    for name, lower in (("plain", None), ("zero", {"zero": 50.0})):
        out = _run_with_lower(tmp_path, name, "solve", {"kind": "heat", "mode": [1, 2]}, lower)
        rows = (out / "solve_energy.csv").read_text().splitlines()[1:]
        energies[name] = np.array([float(r.split(",")[1]) for r in rows])
    g = build_grid_from({"grid": {**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.5, "nt": 17}})
    u0 = separable(g, [sine_profile(1), sine_profile(2)])
    state = solve_evolution("heat", MatrixField.identity(2, domain=g.domain),
                            LowerOrderCoeffs(kind="parabolic", zero=50.0), HeatData(u0), 0.5, g)
    assert np.array_equal(energies["zero"], state.energy.values)
    assert not np.allclose(energies["zero"], energies["plain"])


def test_heat_final_observability_applies_lower_order_terms(tmp_path):
    block = {"kind": "heat_final", "alpha": 0.5, "modes": 2}
    norms = {}
    for name, lower in (("plain", None), ("zero", {"zero": 20.0})):
        out = _run_with_lower(tmp_path, name, "observability", block, lower)
        rows = (out / "observability_ratios.csv").read_text().splitlines()[1:]
        norms[name] = np.array([float(r.split(",")[1]) for r in rows])  # final-state norms
    assert not np.allclose(norms["zero"], norms["plain"], rtol=0.1)


def test_heat_time_coefficient_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(
        tmp_path,
        grid={**BASE_CONFIG["grid"], "t1": 0.0},
        equation={"kind": "parabolic", "lower": {"time": 0.5}},
        extra={"solve": {"kind": "heat"}},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: time-derivative coefficient not allowed for parabolic\n"


def test_lower_order_bound_is_checked(tmp_path, capsys):
    """A declared ``equation.lower.bound`` below a coefficient's sup on the
    grid is a config error: one line, exit 1."""
    for bound, status in ((1.0, 1), (5.0, 0)):
        cfg, _ = write_config(
            tmp_path,
            grid={**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.25},
            equation={"kind": "wave", "lower": {"zero": 5.0, "bound": bound}},
            extra={"solve": {"kind": "wave", "mode": [1, 1]}},
        )
        assert run("solve", cfg, tmp_path / f"out{bound}") == status
    err = capsys.readouterr().err
    assert err == "error: equation: lower: coefficient sup 5 exceeds declared bound 1.0\n"


@pytest.mark.parametrize("bound", ["abc", [1], True, float("nan")])
def test_lower_order_bound_must_be_a_number(tmp_path, capsys, bound):
    cfg, _ = write_config(
        tmp_path,
        grid={**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.25},
        equation={"kind": "wave", "lower": {"zero": 5.0, "bound": bound}},
        extra={"solve": {"kind": "wave", "mode": [1, 1]}},
    )
    assert run("solve", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"error: equation: lower: bound must be a positive number, got {bound!r}\n"


def test_observability_below_threshold_exits_2(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [33], "t1": 0.0,
              "t2": 2.0, "nt": 301},
        weight={"family": "example", "x0": [-0.5], "lambda": 1.0},
        extra={"observability": {"kind": "wave", "alpha": 0.5, "t_obs": 2.0,
                                 "modes": 2}},
    )
    out = tmp_path / "out"
    status = run("observability", cfg, out)
    report = json.loads((out / "observability.json").read_text())
    assert status == 2  # t_obs = 2 is below the alpha threshold
    assert report["report"]["threshold_ok"] is False
    assert "below" in report["report"]["threshold_explanation"]
    assert (out / "observability_ratios.csv").exists()
    assert (out / "observability_ratios_hist.svg").exists()


def _observability_config(tmp_path, alpha=0.5):
    # psi0 = 2.75 - x - x^2 is positive with a nonvanishing gradient on [0, 1],
    # but concave, so it is not pseudo-convex for the identity field
    return write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [17], "t1": 0.0,
              "t2": 2.0, "nt": 81},
        weight={"family": "example", "lambda": 1.0, "psi0_terms": [
            {"powers": [0], "coeff": 2.75},
            {"powers": [1], "coeff": -1.0},
            {"powers": [2], "coeff": -1.0},
        ]},
        extra={"observability": {"kind": "wave", "alpha": alpha, "t_obs": 2.0,
                                 "modes": 2, "worst_case_iterations": 2}},
    )


def test_observability_non_pseudoconvex_psi0_exits_2(tmp_path, capsys):
    cfg, _ = _observability_config(tmp_path)
    assert run("observability", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: psi0 is not pseudo-convex")
    assert "kappa=" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"modes": 2.5}, "modes must be a positive integer, got 2.5"),
        ({"modes": "abc"}, "modes must be a positive integer, got 'abc'"),
        ({"modes": 0}, "modes must be a positive integer, got 0"),
        ({"modes": True}, "modes must be a positive integer, got True"),
        ({"worst_case_iterations": -3},
         "worst_case_iterations must be a non-negative integer, got -3"),
        ({"worst_case_iterations": 1.5},
         "worst_case_iterations must be a non-negative integer, got 1.5"),
        ({"kind": "heat_final", "worst_case_iterations": 3},
         "worst_case_iterations applies only to kind wave, got 3 for kind heat_final"),
        ({"kind": "schrodinger", "worst_case_iterations": 1},
         "worst_case_iterations applies only to kind wave, got 1 for kind schrodinger"),
    ],
    ids=["modes-fraction", "modes-text", "modes-zero", "modes-bool", "iterations-negative",
         "iterations-fraction", "iterations-heat_final", "iterations-schrodinger"],
)
def test_observability_count_errors_exit_1_with_one_line(tmp_path, capsys, entry, message):
    cfg = yaml.safe_load((SHIPPED / "wave_observability_1d.yaml").read_text())
    cfg["observability"].update(entry)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("observability", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: observability: {message}\n"


@pytest.mark.parametrize("kind", ["heat_final", "schrodinger"])
def test_observability_zero_worst_case_iterations_valid_for_every_kind(tmp_path, capsys, kind):
    cfg = yaml.safe_load((SHIPPED / "wave_observability_1d.yaml").read_text())
    cfg["observability"].update({"kind": kind, "worst_case_iterations": 0})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("observability", path, tmp_path / "out") in (0, 2)
    assert "worst_case_iterations" not in capsys.readouterr().err
    assert "worst_case" not in json.loads((tmp_path / "out" / "observability.json").read_text())


def test_observability_config_error_still_exits_1(tmp_path, capsys):
    cfg, _ = _observability_config(tmp_path, alpha=1.5)
    assert run("observability", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: alpha must lie in (0, 1)\n"


@pytest.mark.parametrize("command, prefix", [("observability", ""), ("certify", "weight: "),
                                             ("carleman-audit", "weight: ")])
def test_negative_psi0_within_tolerance_exits_1_with_one_line(tmp_path, capsys, command,
                                                              prefix):
    """psi0 in [-1e-12, 0) on every node passes the nonnegativity tolerance,
    but (32 sup psi0)^(1/alpha) of the observability threshold is complex for
    alpha = 0.4: one error line, no traceback."""
    cfg, _ = write_config(
        tmp_path, grid={"lows": [0.0], "highs": [1.0], "nodes": [9], "t1": 0.0, "t2": 2.0,
                        "nt": 17},
        weight={"family": "observability", "alpha": 0.4, "psi0_terms": [
            {"powers": [0], "coeff": -1e-13}, {"powers": [1], "coeff": 1e-14}]},
        observability={"kind": "wave", "alpha": 0.4, "modes": 2})
    assert run(command, cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {prefix}psi0 must be nonnegative\n"


@pytest.mark.parametrize("command", ["certify", "theta", "identities", "carleman-audit"])
def test_psi0_overflowing_on_the_nodes_exits_1_with_one_line(tmp_path, capsys, command):
    """psi0 = 1e-300 x^6 + 1e-60 x on [0, 1e52]: x^6 overflows on the far
    nodes while the derivatives of psi0 stay far below the sample bound.
    Every weight command evaluates psi0 on the nodes with its sample, under
    the run's raising error state, and stops there with one line; theta
    too, although it reads psi0's values for the auto-shift alone."""
    cfg, _ = write_config(
        tmp_path, grid={"lows": [0.0], "highs": [1e52], "nodes": [9], "t1": -1.0, "t2": 1.0,
                        "nt": 9},
        weight={"family": "custom", "psi0_terms": [
            {"powers": [6], "coeff": 1e-300}, {"powers": [1], "coeff": 1e-60}]},
        theta={"points": [[0.5]]}, identities={"tau": 1.0},
        audit={"kind": "wave_full", "taus": [1.0], "lambdas": [1.0], "ensemble": 2})
    assert run(command, cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {command}: overflow encountered in power\n"


def test_observability_solves_once_per_basis_without_csr_products(tmp_path, monkeypatch):
    """One ``observability`` command with the worst-case estimator (the
    shipped 1-D config, cut to 33 nodes and 257 levels) computes the per-axis
    eigenpairs once for its field and grid, and none of its solves, the
    sourced back-propagation included, makes a CSR product; the Dirichlet
    forms of the data norms make some outside them."""
    import scipy.sparse as sp

    from carleman import experiments, solvers

    cfg = yaml.safe_load((SHIPPED / "wave_observability_1d.yaml").read_text())
    cfg["grid"].update(nodes=[33], nt=257)
    cfg["observability"]["worst_case_iterations"] = 2
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    eigenpairs, sourced, inside, products = [], [], [False], {True: 0, False: 0}
    pairs, block = solvers._axis_eigenpairs, experiments.solve_block
    matmul = sp.csr_matrix.__matmul__

    def counting_pairs(*args):
        eigenpairs.append(args)
        return pairs(*args)

    def solve(kind, field, lower, data, *args, **kwargs):
        sourced.append(any(d.source is not None for d in data))
        inside[0] = True
        try:
            return block(kind, field, lower, data, *args, **kwargs)
        finally:
            inside[0] = False

    def counting_matmul(self, other):
        products[inside[0]] += 1
        return matmul(self, other)

    monkeypatch.setattr(solvers, "_axis_eigenpairs", counting_pairs)
    monkeypatch.setattr(experiments, "solve_block", solve)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
    assert run("observability", path, tmp_path / "out") == 2
    assert len(eigenpairs) == 1
    assert sourced == [False, False, True, False]  # ensemble, seed, back-propagation, trials
    assert products[True] == 0 and products[False] > 0


def test_theta_command_writes_scan(tmp_path):
    cfg, _ = write_config(tmp_path, extra={"theta": {"points": [[0.5, 0.5]]}})
    out = tmp_path / "out"
    assert run("theta", cfg, out) == 0
    scan = (out / "theta_scan.csv").read_text().splitlines()
    assert scan[0] == "x0,x1,theta_sym_min,grad_norm"
    report = json.loads((out / "theta.json").read_text())
    assert report["certificate"]["passed"] is True


@pytest.mark.parametrize("grid, coefficients", [
    # an axis ending in -0.0: its nodes must keep the sign in the CSV
    ({"lows": [-1.0, -1.0], "highs": [-0.0, 1.0], "nodes": [9, 11]},
     {"family": "polynomial", "entries": [
         {"k": 0, "l": 0, "terms": [{"powers": [0, 0], "coeff": 1.0},
                                    {"powers": [1, 0], "coeff": 0.07}]},
         {"k": 0, "l": 1, "terms": [{"powers": [1, 1], "coeff": 0.04}]},
         {"k": 1, "l": 1, "terms": [{"powers": [0, 0], "coeff": 1.0},
                                    {"powers": [0, 1], "coeff": 0.09}]}]}),
    ({"lows": [0.1, 0.2, 0.3], "highs": [0.7, 0.9, 1.1], "nodes": [5, 4, 3]},
     {"family": "scalar_affine", "a0": 1.0, "linear": [0.1, -0.05, 0.02]}),
    ({"lows": [1.0], "highs": [3.0], "nodes": [7]}, {"family": "identity"}),
])
def test_theta_scan_csv_matches_frozen_rows(tmp_path, grid, coefficients):
    """theta_scan.csv formats each axis value once; its bytes equal the rows
    of node coordinates, theta_sym_min and grad_norm written the old way."""
    from carleman.cli import build_coefficients_from, build_grid_from, build_weight_from
    from per_call import scan
    from reference_reports import write_csv as frozen_write_csv

    n = len(grid["lows"])
    cfg_path, cfg = write_config(
        tmp_path,
        grid={**grid, "t1": 0.0, "t2": 1.0, "nt": 3},
        coefficients=coefficients,
        weight={"family": "example", "x0": [4.0] * n, "lambda": 1.0},
    )
    assert run("theta", cfg_path, tmp_path / "out") == 0
    g = build_grid_from(cfg)
    field = build_coefficients_from(cfg, g)
    spec, _ = build_weight_from(cfg, field, g)
    smin, gnorm = scan(field, spec.psi0, g.space_points)
    pts = g.space_points.reshape(-1, n)
    frozen_write_csv(
        tmp_path / "frozen.csv",
        [f"x{i}" for i in range(n)] + ["theta_sym_min", "grad_norm"],
        np.column_stack([pts, smin.reshape(-1), gnorm.reshape(-1)]).tolist(),
    )
    written = (tmp_path / "out" / "theta_scan.csv").read_bytes()
    assert written == (tmp_path / "frozen.csv").read_bytes()
    if grid["highs"][0] == 0.0:
        assert written.count(b"\n-0.0,") == grid["nodes"][1]


def test_theta_command_scans_once(tmp_path, monkeypatch):
    import carleman.cli as cli
    import carleman.pseudoconvex as pc

    calls = []
    scan = pc.theta_scan

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(cli, "theta_scan", counted)
    monkeypatch.setattr(pc, "theta_scan", counted)
    cfg, _ = write_config(tmp_path)
    assert run("theta", cfg, tmp_path / "out") == 0
    assert len(calls) == 1


def test_flatten_command(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        extra={"flatten": {"surface_terms": [{"powers": [2], "coeff": 0.25}],
                           "radius": 0.5}},
    )
    out = tmp_path / "out"
    assert run("flatten", cfg, out) == 0
    report = json.loads((out / "flatten.json").read_text())
    assert report["certificate"]["passed"] is True
    assert report["jacobian_bound_ok"] is True


def test_identities_command(tmp_path):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("identities", cfg, out) == 0
    report = json.loads((out / "identities.json").read_text())
    assert "green_defect" in report and "conjugation_residual" in report


# -- svg helpers ------------------------------------------------------------------


def test_empty_heatmap_annotates_no_data():
    svg = heatmap_svg([], [], [], "empty")
    assert "no data" in svg


def test_single_cell_heatmap():
    svg = heatmap_svg([[1.0]], ["2.0"], ["1.0"], "one cell")
    assert svg.count("<rect") >= 2  # background plus the cell


def test_line_plot_points_match_data():
    xs = [0.0, 0.5, 1.0]
    ys = [1.0, -1.0, 0.5]
    svg = line_svg([("s", xs, ys)], "fidelity")
    match = re.search(r'polyline points="([^"]+)"', svg)
    assert match
    pts = [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
    expected = map_points(xs, ys, (min(xs), max(xs), min(ys), max(ys)))
    for (px, py), (ex, ey) in zip(pts, expected):
        assert px == pytest.approx(ex, abs=5e-4)
        assert py == pytest.approx(ey, abs=5e-4)


def test_empty_line_plot_annotates_no_data():
    assert "no data" in line_svg([], "empty")
    assert "no data" in line_svg([("energy", [], [])], "empty series")


@pytest.mark.parametrize("grid, solve", [
    ({"lows": [0.0], "highs": [1.0], "nodes": [17], "t1": 0.0, "t2": 0.5, "nt": 33},
     {"kind": "wave", "mode": [2]}),
    # an axis ending in -0.0 and complex traces with nonzero imaginary parts
    ({"lows": [-1.0, 0.1], "highs": [-0.0, 0.9], "nodes": [9, 7], "t1": 0.0, "t2": 0.05,
      "nt": 9}, {"kind": "schrodinger", "mode": [1, 2]}),
    ({"lows": [0.0, 0.0], "highs": [1.0, 1.0], "nodes": [9, 9], "t1": 0.0, "t2": 0.3,
      "nt": 17}, {"kind": "heat", "mode": [1, 1]}),
], ids=["wave-1d", "schrodinger-2d", "heat-2d"])
def test_solve_traces_csv_matches_frozen_rows(tmp_path, grid, solve):
    """solve_traces.csv formats each time and each face node once; its bytes
    equal the rows of face, node, t and trace written value by value."""
    from carleman.cli import build_coefficients_from, build_grid_from
    from carleman.solvers import HeatData, SchrodingerData, WaveData, solve_evolution
    from reference_fields import mode_data
    from reference_reports import write_csv as frozen_write_csv

    cfg_path, cfg = write_config(tmp_path, grid=grid, extra={"solve": solve})
    assert run("solve", cfg_path, tmp_path / "out") == 0
    g = build_grid_from(cfg)
    u0 = mode_data(g, solve["mode"])
    data = {"wave": WaveData(u0=u0, u1=np.zeros_like(u0)), "heat": HeatData(u0=u0),
            "schrodinger": SchrodingerData(u0=u0.astype(complex))}[solve["kind"]]
    state = solve_evolution(solve["kind"], build_coefficients_from(cfg, g), None, data,
                            g.t2, g)
    rows = [
        [f, *node, t, complex(v).real, complex(v).imag]
        for f, trace in enumerate(state.traces)
        for node, tr in zip(g.space_points[g.face_mask(f)].tolist(), trace)
        for t, v in zip(g.times.tolist(), tr.tolist())
    ]
    assert any(r[-1] != 0.0 for r in rows) == (solve["kind"] == "schrodinger")
    n = len(grid["lows"])
    frozen_write_csv(
        tmp_path / "frozen.csv",
        ["face"] + [f"x{i}" for i in range(n)] + ["t", "trace_re", "trace_im"],
        rows,
    )
    written = (tmp_path / "out" / "solve_traces.csv").read_bytes()
    assert written == (tmp_path / "frozen.csv").read_bytes()


def test_write_csv_matches_frozen_repr_formatting(tmp_path):
    from carleman.cli import write_csv
    from reference_reports import write_csv as frozen_write_csv

    values = [0.1 + 0.2, 1e-300, np.inf, np.nan, -0.0, 5e-324, -np.inf, 16.0]
    rows = [["a", 3, *values], ["", 0, *reversed(values)]]
    header = ["s", "i"] + [f"v{k}" for k in range(len(values))]
    frozen_write_csv(tmp_path / "frozen.csv", header, rows)
    write_csv(tmp_path / "plain.csv", header, rows)
    write_csv(tmp_path / "numpy.csv", header,
              [[s, np.int64(i), *np.array(v)] for s, i, *v in rows])
    frozen = (tmp_path / "frozen.csv").read_bytes()
    assert (tmp_path / "plain.csv").read_bytes() == frozen
    assert (tmp_path / "numpy.csv").read_bytes() == frozen


def _svg_case_audit(tmp_path):
    # unsorted and repeated taus and lambdas; tau = 64, lambda = 4 cells are inf
    return "carleman-audit", write_config(tmp_path, extra={"audit": {
        "kind": "wave_full", "taus": [64.0, 2.0, 64.0], "lambdas": [4.0, 1.0, 4.0],
        "ensemble": 4}})[0]


def _svg_case_wave_1d(tmp_path):
    return "solve", write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [33], "t1": 0.0, "t2": 0.5, "nt": 65},
        extra={"solve": {"kind": "wave", "mode": [2]}},
    )[0]


def _svg_case_schrodinger_2d(tmp_path):
    return "solve", write_config(
        tmp_path,
        grid={**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.25},
        extra={"solve": {"kind": "schrodinger", "mode": [1, 2]}},
    )[0]


def _svg_case_zero_observation(tmp_path):
    # on 3 nodes the sine mode 2 vanishes at every node: members 0 and 3 observe
    # nothing, so the histogram has fewer values than members
    return "observability", write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [3], "t1": 0.0, "t2": 2.0, "nt": 81},
        weight={"family": "example", "x0": [-0.5], "lambda": 1.0},
        extra={"observability": {"kind": "wave", "alpha": 0.5, "t_obs": 2.0, "modes": 6}},
    )[0]


@pytest.mark.parametrize(
    "case",
    [_svg_case_audit, _svg_case_wave_1d, _svg_case_schrodinger_2d, _svg_case_zero_observation],
    ids=["audit-repeated-taus-inf-cells", "solve-wave-1d", "solve-schrodinger-2d",
         "observability-zero-observation"],
)
def test_command_svgs_match_frozen_csv_plots(tmp_path, case):
    """Each SVG a command writes equals the frozen CSV-parsing plot of its own CSV."""
    from reference_reports import emit_plots

    command, cfg = case(tmp_path)
    out, frozen = tmp_path / "out", tmp_path / "frozen"
    assert run(command, cfg, out) in (0, 2)
    frozen.mkdir()
    expected = emit_plots(sorted(out.glob("*.csv")), frozen)
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(p.name for p in expected)
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    if command == "observability":
        rows = (out / "observability_ratios.csv").read_text().splitlines()
        assert rows[1].endswith(",nan,zero observation")
    if command == "carleman-audit":
        assert "inf" in (out / "audit.json").read_text()


def test_solve_trace_plot_2d_is_not_flat(tmp_path):
    """In 2-D no face plots its first node, a corner, where u vanishes and
    would plot flat at 0."""
    cfg, _ = write_config(tmp_path, grid={**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.25},
                          extra={"solve": {"kind": "heat", "mode": [1, 1]}})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    polylines = re.findall(r'polyline points="([^"]+)"', (out / "solve_traces.svg").read_text())
    assert len(polylines) == 4  # one per face
    for line in polylines:
        assert len({pair.split(",")[1] for pair in line.split()}) > 1


def test_solve_trace_plot_skips_nodal_lines(tmp_path):
    """Mode (2, 1) is even along x: the middle node of the faces y = 0 and
    y = 1 sits on its nodal line x = 1/2, where the trace is rounding noise.
    Each face plots its node of largest max_t |Re trace| instead."""
    cfg, _ = write_config(tmp_path, grid={**BASE_CONFIG["grid"], "t1": 0.0, "t2": 0.25},
                          extra={"solve": {"kind": "wave", "mode": [2, 1]}})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    polylines = re.findall(r'polyline points="([^"]+)"', (out / "solve_traces.svg").read_text())
    assert len(polylines) == 4  # one per face
    for line in polylines:
        assert len({pair.split(",")[1] for pair in line.split()}) > 1


def test_audit_single_cell_heatmap(tmp_path):
    cfg, _ = write_config(tmp_path, extra={"audit": {
        "kind": "wave_full", "taus": [2.0], "lambdas": [1.0], "ensemble": 2}})
    out = tmp_path / "out"
    assert run("carleman-audit", cfg, out) == 0
    svg = (out / "audit_heatmap.svg").read_text()
    assert svg.count("<rect") == 2  # background plus the one cell
    assert "no data" not in svg


def test_solve_trace_plot_fidelity(tmp_path):
    """Plotted polyline samples equal the CSV values for the 1D wave trace."""
    import csv as _csv

    nodes = 64
    h = 1.0 / (nodes - 1)
    nt = int(np.ceil(1.0 / (0.45 * h))) + 1
    cfg, _ = write_config(
        tmp_path,
        grid={"lows": [0.0], "highs": [1.0], "nodes": [nodes], "t1": 0.0, "t2": 1.0, "nt": nt},
        extra={"solve": {"kind": "wave", "mode": [1]}},
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    text = (out / "solve_traces.svg").read_text()
    polylines = re.findall(r'polyline points="([^"]+)"', text)
    assert len(polylines) == 2  # one per face

    with open(out / "solve_traces.csv", newline="") as fh:
        data = list(_csv.reader(fh))[1:]
    face1 = [(float(r[2]), float(r[3])) for r in data if r[0] == "1"]
    xs = [p[0] for p in face1]
    ys = [p[1] for p in face1]
    all_x = [float(r[2]) for r in data]
    all_y = [float(r[3]) for r in data]
    expected = map_points(xs, ys, (min(all_x), max(all_x), min(all_y), max(all_y)))
    got = [tuple(map(float, pair.split(","))) for pair in polylines[1].split()]
    assert len(got) == len(expected)
    for (px, py), (ex, ey) in zip(got, expected):
        assert abs(px - ex) < 5e-4 and abs(py - ey) < 5e-4
    # and the trace itself matches the separated solution -pi cos(pi t)
    assert np.max(np.abs(np.array(ys) + np.pi * np.cos(np.pi * np.array(xs)))) < 5e-2


def test_seed_flag_overrides_config(tmp_path):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("certify", cfg, out, "--seed", "99") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_custom_weight_family(tmp_path):
    cfg, _ = write_config(
        tmp_path,
        weight={
            "family": "custom",
            "psi0_terms": [
                {"powers": [2, 0], "coeff": 0.5},
                {"powers": [0, 2], "coeff": 0.5},
                {"powers": [1, 0], "coeff": 1.0},
                {"powers": [0, 0], "coeff": 0.6},
            ],
            "psi1": {"family": "quadratic", "gamma": 0.1, "t0": 0.0},
            "lambda": 1.5,
        },
    )
    out = tmp_path / "out"
    assert run("certify", cfg, out) == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["admissibility"]["passed"] is True


def test_audit_other_equation_kinds(tmp_path):
    for kind, eq in (("schrodinger_full", "schrodinger"), ("elliptic", "elliptic"),
                     ("parabolic_full", "parabolic")):
        cfg, _ = write_config(
            tmp_path,
            weight={"family": "example", "x0": [-0.5, 0.5], "lambda": 1.0},
            equation={"kind": eq},
            extra={"audit": {"kind": kind, "taus": [2.0], "lambdas": [1.0],
                             "ensemble": 2}},
        )
        out = tmp_path / f"out_{kind}"
        assert run("carleman-audit", cfg, out) == 0, kind
        summary = json.loads((out / "audit.json").read_text())
        assert summary["tau_star"] == 2.0, kind
