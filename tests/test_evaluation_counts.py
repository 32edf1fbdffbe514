"""Evaluation counts per command run: A, dA, psi0 and the derivatives of psi0
are evaluated on the space nodes once, the CFL limit of a wave run once more,
and the Gamma+ mask and the operator without lower-order terms are built
once."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from carleman import cli, operators, solvers
from carleman.cli import build_grid_from, main
from carleman.coefficients import MatrixField
from carleman.polynomials import Polynomial

_SHIPPED_1D = {
    "seed": 7,
    "grid": {"lows": [0.0], "highs": [1.0], "nodes": [33], "t1": 0.0, "t2": 2.0, "nt": 257},
    "coefficients": {"family": "identity"},
    "weight": {"family": "example", "x0": [-0.5], "lambda": 1.0},
    "equation": {"kind": "wave"},
    "observability": {"kind": "wave", "alpha": 0.5, "t_obs": 2.0, "modes": 4,
                      "worst_case_iterations": 2},
    "solve": {"kind": "wave", "mode": [1]},
}

_SHIPPED = {name: yaml.safe_load((Path(__file__).parents[1] / "configs" / f"{name}.yaml")
                                 .read_text()) for name in ("wave_audit", "wave_observability_1d")}

# a 9^2 x 17 wave audit on (0, 1/2), so an observability weight fits its times
_AUDIT_2D = {
    "grid": {"lows": [0.0, 0.0], "highs": [1.0, 1.0], "nodes": [9, 9], "t1": 0.0, "t2": 0.5,
             "nt": 17},
    "coefficients": {"family": "identity"},
    "weight": {"family": "example", "x0": [-0.5, 0.5], "gamma": 0.25, "lambda": 2.0},
    "equation": {"kind": "wave"},
    "audit": {"kind": "wave_full", "taus": [2.0, 4.0], "lambdas": [1.0], "ensemble": 2},
}

_CONFIG_3D = {
    "grid": {"lows": [0.0, 0.0, 0.0], "highs": [1.0, 1.0, 1.0], "nodes": [9, 8, 8],
             "t1": 0.0, "t2": 1.0, "nt": 3},
    "coefficients": {"family": "scalar_affine", "a0": 1.0, "linear": [0.2, -0.1, 0.05]},
    "weight": {"family": "example", "x0": [-0.5, 0.5, 0.5], "lambda": 1.0},
    "theta": {"points": [[0.5, 0.5, 0.5]]},
    "identities": {"tau": 1.0},
}


def _variant(cfg: dict, **blocks) -> dict:
    """``cfg`` with the entries of some blocks replaced."""
    out = copy.deepcopy(cfg)
    for block, entries in blocks.items():
        out[block] = {**out.get(block, {}), **entries}
    return out


_OBSERVABILITY_WEIGHT = {"family": "observability", "gamma": 0.0, "alpha": 0.5}

# every command that reads the weight, on the shipped configs and on a boundary
# kind, an observability weight and a variable A in 3-D
_WEIGHT_RUNS = [
    *[(command, name, _SHIPPED[name]) for name in _SHIPPED
      for command in ("certify", "theta", "identities", "carleman-audit")],
    ("carleman-audit", "wave_boundary", _variant(_AUDIT_2D, audit={"kind": "wave_boundary"})),
    *[(command, "observability-weight", _variant(_AUDIT_2D, weight=_OBSERVABILITY_WEIGHT))
      for command in ("certify", "theta", "identities", "carleman-audit")],
    *[(command, "variable-A-3d", _variant(_CONFIG_3D, equation={"kind": kind}))
      for command, kind in (("certify", "wave"), ("theta", "wave"), ("identities", "elliptic"))],
]

_HEAT_FINAL_2D = {
    "grid": {"lows": [0.0, 0.0], "highs": [1.0, 1.0], "nodes": [9, 9], "t1": 0.0, "t2": 0.5,
             "nt": 17},
    "coefficients": {"family": "identity"},
    "weight": {"family": "example", "x0": [-0.5, 0.5]},
    "observability": {"kind": "heat_final", "modes": 2},
}


def _counted(monkeypatch, cfg: dict, nodes: tuple | None = None) -> dict:
    """Wrap the evaluations of A, dA, psi0, grad psi0 and hess psi0 (counted on
    the space nodes of the config's grid only, or on points of shape
    ``nodes``; psi0 as read from the config's ``weight`` block or built from
    its ``x0``), ``assemble_operator`` (counted without lower-order terms) and
    ``gamma_plus``, in every ``carleman`` namespace that holds them; returns
    the counts, filled as the run goes."""
    nodes = nodes or build_grid_from(cfg).space_points.shape
    counts = dict.fromkeys(("A", "dA", "psi0", "grad", "hess", "assemble", "gamma_plus"), 0)
    psi0s = []

    def on_nodes(key, fn):
        def wrapper(self, points, *args, **kwargs):
            counts[key] += np.shape(points) == nodes
            return fn(self, points, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(MatrixField, "__call__", on_nodes("A", MatrixField.__call__))
    monkeypatch.setattr(MatrixField, "first_derivatives",
                        on_nodes("dA", MatrixField.first_derivatives))
    monkeypatch.setattr(Polynomial, "eval_gradient", on_nodes("grad", Polynomial.eval_gradient))
    monkeypatch.setattr(Polynomial, "eval_hessian", on_nodes("hess", Polynomial.eval_hessian))
    evaluate = Polynomial.__call__

    def psi0_values(self, points):
        counts["psi0"] += np.shape(points) == nodes and any(self is p for p in psi0s)
        return evaluate(self, points)

    monkeypatch.setattr(Polynomial, "__call__", psi0_values)
    psi0_from = cli._psi0_from

    def read_psi0(*args):
        psi0s.append(psi0_from(*args))
        return psi0s[-1]

    monkeypatch.setattr(cli, "_psi0_from", read_psi0)
    squared_distance = Polynomial.squared_distance

    def example_psi0(cls, *args, **kwargs):
        psi0s.append(squared_distance(*args, **kwargs))
        return psi0s[-1]

    monkeypatch.setattr(Polynomial, "squared_distance", classmethod(example_psi0))

    assemble_operator, gamma_plus = operators.assemble_operator, solvers.gamma_plus

    def assemble(field, lower, grid):
        counts["assemble"] += lower is None
        return assemble_operator(field, lower, grid)

    def mask(*args):
        counts["gamma_plus"] += 1
        return gamma_plus(*args)

    for original, wrapper in ((assemble_operator, assemble), (gamma_plus, mask)):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "carleman" and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return counts


def _run(tmp_path, command: str, cfg: dict) -> int:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, name, cfg", _WEIGHT_RUNS,
                         ids=[f"{command}-{name}" for command, name, _ in _WEIGHT_RUNS])
def test_weight_commands_sample_the_nodes_once(tmp_path, monkeypatch, command, name, cfg):
    """A certify-family command or an audit evaluates A, dA, psi0, grad psi0
    and hess psi0 on its grid's nodes once each, for the weight, the
    certificates, the audit and the conjugation coefficients; identities
    assembles the operator once, and a boundary-kind audit builds one mask."""
    counts = _counted(monkeypatch, cfg)
    # that weight fails the (2.1) and (2.2) conditions of the wave admissibility
    fails = name == "observability-weight" and command in ("certify", "carleman-audit")
    assert _run(tmp_path, command, cfg) == (2 if fails else 0)
    assert counts == {"A": 1, "dA": 1, "psi0": 1, "grad": 1, "hess": 1,
                      "assemble": command == "identities",
                      "gamma_plus": name == "wave_boundary"}


def test_refined_audit_samples_the_fine_nodes_without_derivatives(tmp_path, monkeypatch):
    """The fine grid of a refined 9^2 audit has 17^2 nodes: its weight and
    its sweep read A, psi0 and grad psi0 from one sample, and dA and hess
    psi0, which no fine reader takes, are not evaluated there."""
    cfg = _variant(_AUDIT_2D, audit={"refine": True})
    counts = _counted(monkeypatch, cfg, nodes=(17, 17, 2))
    assert _run(tmp_path, "carleman-audit", cfg) in (0, 2)
    assert counts == {"A": 1, "dA": 0, "psi0": 1, "grad": 1, "hess": 0, "assemble": 0,
                      "gamma_plus": 0}


def test_observability_takes_one_setup(tmp_path, monkeypatch):
    """The 1-D validation config on 33 nodes and 257 levels with two
    estimator iterations: A twice (the sample and the CFL limit held per
    field and grid), psi0 and each derivative once, one operator and one
    mask."""
    counts = _counted(monkeypatch, _SHIPPED_1D)
    assert _run(tmp_path, "observability", _SHIPPED_1D) == 2  # below the threshold
    assert counts == {"A": 2, "dA": 1, "psi0": 1, "grad": 1, "hess": 1, "assemble": 1,
                      "gamma_plus": 1}


def test_heat_final_observability_samples_once(tmp_path, monkeypatch):
    counts = _counted(monkeypatch, _HEAT_FINAL_2D)
    assert _run(tmp_path, "observability", _HEAT_FINAL_2D) == 2
    assert counts == {"A": 1, "dA": 1, "psi0": 1, "grad": 1, "hess": 1, "assemble": 1,
                      "gamma_plus": 1}


def test_wave_solve_evaluates_a_once(tmp_path, monkeypatch):
    """``solve.json``'s CFL limit is the one the march holds."""
    counts = _counted(monkeypatch, _SHIPPED_1D)
    assert _run(tmp_path, "solve", _SHIPPED_1D) == 0
    assert counts["A"] == 1
