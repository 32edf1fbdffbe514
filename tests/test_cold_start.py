"""Which of scipy's sparse and LAPACK stacks a fresh interpreter loads.

``import carleman`` loads none of ``scipy.sparse``, ``scipy.linalg`` and
``scipy.sparse.linalg``: the commands that only scan closed forms on the
nodes never need them, and the others import them where they first build a
matrix or call LAPACK.  Each case runs in a fresh interpreter, since this
suite's warning filters (``pyproject.toml``) already load ``scipy.sparse`` and
``scipy.linalg`` in the pytest process.  The cases compare module sets, not
times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import carleman

SRC = Path(carleman.__file__).resolve().parent.parent
WAVE_AUDIT = Path(__file__).resolve().parent.parent / "configs" / "wave_audit.yaml"
STACKS = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")

# prints, as one JSON list, the stacks loaded after the import and after each run
_PROBE = """
import json, sys
import carleman, carleman.cli

stacks = {stacks!r}
loaded = [[m for m in stacks if m in sys.modules]]
for argv in json.loads(sys.argv[1]):
    status = carleman.cli.main(argv)
    if status != 0:
        sys.exit(f"{{argv[0]}} exited {{status}}")
    loaded.append([m for m in stacks if m in sys.modules])
print(json.dumps(loaded))
"""


def _loaded_stacks(runs: list[list[str]]) -> list[set[str]]:
    """The stacks loaded in one fresh interpreter after ``import carleman,
    carleman.cli`` and after each of ``runs`` (the arguments of one command)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(stacks=STACKS), json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return [set(step) for step in json.loads(out.stdout.splitlines()[-1])]


def _command(name: str, config: Path, out: Path) -> list[str]:
    return [name, "--config", str(config), "--out", str(out / name)]


def test_import_and_closed_form_scans_load_no_stack(tmp_path):
    scans = ["certify", "theta", "flatten", "ucp-certificate"]
    loaded = _loaded_stacks([_command(name, WAVE_AUDIT, tmp_path) for name in scans])
    assert loaded == [set()] * (1 + len(scans))


def test_audit_loads_sparse_without_its_solvers(tmp_path):
    loaded = _loaded_stacks([_command("carleman-audit", WAVE_AUDIT, tmp_path)])
    assert loaded[0] == set()
    assert "scipy.sparse" in loaded[1] and "scipy.sparse.linalg" not in loaded[1]


def _heat_solve_config(tmp_path, coefficients: dict, kind: str = "heat") -> Path:
    cfg = yaml.safe_load(WAVE_AUDIT.read_text())
    cfg["grid"]["t1"] = 0.0  # solves start at t = 0
    cfg["solve"] = {"kind": kind}
    cfg["coefficients"] = coefficients
    config = tmp_path / f"{kind}.yaml"
    config.write_text(yaml.safe_dump(cfg))
    return config


def test_separable_heat_solve_loads_lapack_without_the_sparse_solvers(tmp_path):
    config = _heat_solve_config(tmp_path, {"family": "identity"})
    loaded = _loaded_stacks([_command("solve", config, tmp_path)])
    assert loaded[0] == set()
    assert "scipy.linalg" in loaded[1] and "scipy.sparse.linalg" not in loaded[1]


def test_separable_wave_solve_loads_lapack_without_sparse(tmp_path):
    """The modal leapfrog needs the per-axis eigenpairs and no sparse matrix."""
    config = _heat_solve_config(tmp_path, {"family": "identity"}, kind="wave")
    loaded = _loaded_stacks([_command("solve", config, tmp_path)])
    assert loaded == [set(), {"scipy.linalg"}]


def test_variable_heat_solve_loads_the_sparse_solvers(tmp_path):
    entries = [
        {"k": 0, "l": 0, "terms": [{"powers": [0, 0], "coeff": 1.0},
                                   {"powers": [1, 0], "coeff": 0.2}]},
        {"k": 0, "l": 1, "terms": [{"powers": [1, 1], "coeff": 0.1}]},
        {"k": 1, "l": 1, "terms": [{"powers": [0, 0], "coeff": 1.0}]},
    ]
    config = _heat_solve_config(tmp_path, {"family": "polynomial", "entries": entries})
    loaded = _loaded_stacks([_command("solve", config, tmp_path)])
    assert loaded[0] == set()
    assert "scipy.sparse.linalg" in loaded[1]
