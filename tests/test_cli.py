import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

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


@pytest.mark.parametrize(
    "audit, message",
    [
        ({"kind": "foo_bar"}, "unknown kind 'foo_bar'"),
        ({"taus": []}, "taus must not be empty"),
        ({"lambdas": []}, "lambdas must not be empty"),
        ({"taus": [2.0, -1.0]}, "taus must be positive"),
    ],
    ids=["unknown-kind", "empty-taus", "empty-lambdas", "negative-tau"],
)
def test_audit_config_errors_exit_1_with_one_line(tmp_path, capsys, audit, message):
    cfg, _ = write_config(tmp_path, extra={"audit": audit})
    assert run("carleman-audit", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: audit: ")
    assert message in err


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def _shipped_wave_audit():
    return yaml.safe_load((SHIPPED / "wave_audit.yaml").read_text())


def _no_powers(cfg):
    cfg["flatten"]["surface_terms"] = [{"coeff": 0.25}]


def _no_alpha(cfg):
    cfg["weight"] = {"family": "custom", "x0": [-0.5, 0.5],
                     "psi1": {"family": "observability"}}


def _lower_list(cfg):
    cfg["equation"]["lower"] = [1.0, 2.0]


@pytest.mark.parametrize(
    "command, probe, message",
    [
        ("flatten", _no_powers, "error: config: missing key 'powers'"),
        ("certify", _no_alpha, "error: config: missing key 'alpha'"),
        ("carleman-audit", _lower_list, "error: equation: lower must be a mapping, got list"),
    ],
    ids=["surface-term-without-powers", "psi1-without-alpha", "lower-is-a-list"],
)
def test_config_shape_errors_exit_1_with_one_line(tmp_path, capsys, command, probe, message):
    cfg = _shipped_wave_audit()
    probe(cfg)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run(command, path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == message + "\n"


def test_non_mapping_config_blocks_exit_1_with_one_line(tmp_path, capsys):
    probes = [
        ("certify", "equation", ["wave"]),
        ("identities", "equation", ["wave"]),
        ("carleman-audit", "equation", ["wave"]),
        ("carleman-audit", "audit", 3),
        ("solve", "solve", "wave"),
        ("theta", "theta", [1]),
    ]
    for i, (command, block, value) in enumerate(probes):
        cfg = _shipped_wave_audit()
        cfg[block] = value
        path = tmp_path / f"config{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run(command, path, tmp_path / f"out{i}") == 1, (command, block)
        err = capsys.readouterr().err
        assert err == f"error: config block {block!r} must be a mapping\n", (command, block)


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


def test_observability_config_error_still_exits_1(tmp_path, capsys):
    cfg, _ = _observability_config(tmp_path, alpha=1.5)
    assert run("observability", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: alpha must lie in (0, 1)\n"


def test_theta_command_writes_scan(tmp_path):
    cfg, _ = write_config(tmp_path, extra={"theta": {"points": [[0.5, 0.5]]}})
    out = tmp_path / "out"
    assert run("theta", cfg, out) == 0
    scan = (out / "theta_scan.csv").read_text().splitlines()
    assert scan[0] == "x0,x1,theta_sym_min,grad_norm"
    report = json.loads((out / "theta.json").read_text())
    assert report["certificate"]["passed"] is True


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
