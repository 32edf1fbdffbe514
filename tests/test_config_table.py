"""The config table of ``carleman.cli``: the README lists it key for key, and
one bad leaf in a config never ends a command in a traceback or a warning."""

import contextlib
import copy
import io
import re
import time
import warnings
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import cli

ROOT = Path(__file__).resolve().parents[1]


def table_rows(name="config", prefix=""):
    """(key path, type, default, reading commands, families, family key) for
    every key of ``cli._TABLE``, nested keys after their block."""
    rows = cli._TABLE[name]
    disc = "family" if "family" in rows else "kind"
    for key, (typ, default, commands, families) in rows.items():
        yield prefix + key, typ, default, commands, families, disc
        inner = typ[1] if typ[0] == "list" else typ
        if inner[0] == "mapping":
            yield from table_rows(inner[1], prefix + key + ("." if inner is typ else "[]."))


def readme_row(path, typ, default, commands, families, disc):
    """The README cells of one key; None for a default the README words itself."""
    if default is cli._REQUIRED:
        shown = "required"
    elif default is None:
        shown = None
    elif isinstance(default, bool):
        shown = f"`{str(default).lower()}`"
    else:
        shown = f"`{default}`" if isinstance(default, str) else f"`{default!r}`"
    if commands is None:
        who = "every command" if "." not in path else "as its block"
    else:
        who = ", ".join(f"`{c}`" for c in commands)
    if families:
        who += f"; {disc} " + " or ".join(f"`{f}`" for f in families)
    return [f"`{path}`", cli._describe(typ), shown, who]


def test_readme_lists_the_config_table_key_for_key():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Config blocks"):text.index("## Package layout")]
    listed = [[c.strip() for c in line.strip().strip("|").split(" | ")]
              for line in section.splitlines() if line.startswith("| `")]
    expected = [readme_row(*row) for row in table_rows()]
    assert [row[0] for row in listed] == [row[0] for row in expected]
    for got, want in zip(listed, expected):
        assert got[1] == want[1] and got[3] == want[3], got[0]
        assert got[2] == want[2] if want[2] is not None else got[2] not in ("", "required")


# -- one-leaf fuzz ---------------------------------------------------------------------

_SMALL_GRID = {"lows": [0.0, 0.0], "highs": [1.0, 1.0], "nodes": [9, 9], "t1": 0.0,
               "t2": 0.5, "nt": 17}


def _terms(*pairs):
    return [{"powers": list(p), "coeff": c} for p, c in pairs]


CONFIGS = {
    "wave_audit": yaml.safe_load((ROOT / "configs" / "wave_audit.yaml").read_text()),
    "wave_observability_1d": yaml.safe_load(
        (ROOT / "configs" / "wave_observability_1d.yaml").read_text()),
    "polynomial-2d": {
        "grid": _SMALL_GRID,
        "coefficients": {"family": "polynomial", "entries": [
            {"k": 0, "l": 0, "terms": _terms(((0, 0), 1.0), ((1, 0), 0.07))},
            {"k": 0, "l": 1, "terms": _terms(((1, 1), 0.04))},
            {"k": 1, "l": 1, "terms": _terms(((0, 0), 1.0), ((0, 1), 0.09))}]},
        "weight": {"family": "example", "x0": [-0.5, 0.5], "lambda": 1.0},
    },
    "custom-weight-2d": {
        "grid": _SMALL_GRID,
        "coefficients": {"family": "identity"},
        "weight": {"family": "custom", "lambda": 1.5,
                   "psi0_terms": _terms(((2, 0), 0.5), ((0, 2), 0.5), ((1, 0), 1.0),
                                        ((0, 0), 0.6)),
                   "psi1": {"family": "quadratic", "gamma": 0.1, "t0": 0.0}},
    },
    "lower-order-2d": {
        "grid": _SMALL_GRID,
        "coefficients": {"family": "identity"},
        "weight": {"family": "example", "x0": [-0.5, 0.5], "lambda": 1.0},
        "equation": {"kind": "wave",
                     "lower": {"space": [0.2, 0.0], "time": 0.1, "zero": 0.5, "bound": 5.0}},
        "audit": {"taus": [2.0], "lambdas": [1.0], "ensemble": 2},
        "solve": {"kind": "wave", "mode": [1, 1]},
        "observability": {"kind": "wave", "modes": 2},
    },
}

BAD_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 1e308, -1e-300, True, "x",
              [1], [], {}, None]


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


LEAVES = [(name, path) for name, cfg in CONFIGS.items() for path in _leaves(cfg)]
_RUN_CAP_S = 60.0


# A fixed draw: under 2 s in tier-1; the "ci" profile of tests/conftest.py,
# with more examples, draws more of the same fixed sequence.
@settings(deadline=None, derandomize=True,
          max_examples=max(1, settings.default.max_examples // 2))
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(BAD_VALUES))
def test_one_bad_leaf_exits_0_1_or_2_without_traceback_or_warning(tmp_path_factory, leaf,
                                                                   value):
    """Every command that reads the leaf's block exits 0, 1 or 2; exit 1
    prints one ``error:`` line; nothing warns; each run ends within a time cap;
    and exit 0 only when the config meets the table."""
    name, path = leaf
    cfg = copy.deepcopy(CONFIGS[name])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "config.yaml").write_text(yaml.safe_dump(cfg))
    readers = cli._TABLE["config"][path[0]][2] or cli.COMMANDS
    for command in readers:
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main([command, "--config", str(tmp / "config.yaml"),
                               "--out", str(tmp / command)])
        where = (name, path, value, command, err.getvalue())
        assert time.perf_counter() - start < _RUN_CAP_S, where
        assert not caught, (where, [str(w.message) for w in caught])
        assert status in (0, 1, 2), where
        if status == 1:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), where
        if status == 0:
            cli._check_config(cfg, command)
