"""Span recorder for the traced pass, installed around the package from outside.

``Tracer.install()`` wraps every public function of each layer module and
the public methods of its classes (plus ``__call__`` and the constructors
that do real work), and rebinds the wrapper in every ``carleman`` module
namespace that holds the original, so ``carleman.cli.sweep_audit`` is
traced as well as ``carleman.audit.sweep_audit``.  ``uninstall()`` puts the
originals back, so untraced passes run the package untouched.

Each wrapper records a span (name, start, end, parent) plus counts at the
same boundary.  Spans stay in memory until the pass ends; ``dump()`` writes
them out.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("geometry", "polynomials", "coefficients", "pseudoconvex", "weights",
          "operators", "audit", "solvers", "experiments", "cli", "svg")

# constructors that do numerical work (the others only store fields)
_TRACED_INIT = {"MatrixField", "RiemannianField"}


def _size(shape) -> int:
    return int(math.prod(shape))


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._experiment_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child

    def _wrap(self, fn, name: str, label=None, count=None):
        tracer = self
        in_experiments = name.startswith("experiments.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(name, args, kwargs) if label else name
            idx = tracer._open(span)
            if in_experiments:
                tracer._experiment_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if in_experiments:
                    tracer._experiment_depth -= 1
                tracer._close(idx, span)
            if count:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("carleman")
        modules = {m: importlib.import_module(f"carleman.{m}") for m in LAYERS}
        namespaces = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapper = self._wrap(obj, name, *_SPECIAL.get(name, (None, None)))
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._patch(ns, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        traced = (not meth.startswith("_") or meth == "__call__"
                                  or (meth == "__init__" and attr in _TRACED_INIT))
                        if traced and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            wrapper = self._wrap(fn, name, *_SPECIAL.get(name, (None, None)))
                            self._patch(obj, meth, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans: name index, start, end and parent span index (-1 at top)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values of this pass, named as in BENCHMARK.json."""
        c, s, i, n = self.calls, self.self_s, self.incl_s, self.counts

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        solve_incl = sum(v for k, v in i.items() if k.startswith("solvers.solve_evolution"))
        return {
            "audit.evaluate_sides.calls": c["audit.evaluate_sides"],
            "audit.evaluate_sides.self_s": s["audit.evaluate_sides"],
            "audit.sweep_audit.self_s": s["audit.sweep_audit"],
            "audit.side_evals_per_s": rate(c["audit.evaluate_sides"], i["audit.evaluate_sides"]),
            "audit.default_ensemble.self_s": s["audit.default_ensemble"],
            "geometry.face_weights.calls": c["geometry.SpaceTimeGrid.face_weights"],
            "geometry.face_mask.calls": c["geometry.SpaceTimeGrid.face_mask"],
            "geometry.self_s": self.layer_self("geometry"),
            "operators.laplacian_flux.calls": c["operators.laplacian_flux"],
            "operators.laplacian_flux.self_s": s["operators.laplacian_flux"],
            "operators.laplacian_flux.nodes_per_s": rate(n["laplacian_nodes"],
                                                         i["operators.laplacian_flux"]),
            "operators.apply_operator.self_s": s["operators.apply_operator"],
            "operators.gradient.self_s": s["operators.gradient_space"] + s["operators.gradient_time"],
            "operators.residuals.self_s": sum(s[f"operators.{r}"] for r in (
                "conjugation_residual", "green_residual", "riemannian_identity_residual",
                "magnetic_expansion_residual")),
            "polynomials.eval.calls": c["polynomials.Polynomial.__call__"],
            "polynomials.eval.points": n["polynomial_points"],
            "polynomials.self_s": self.layer_self("polynomials"),
            "coefficients.field_eval.calls": c["coefficients.MatrixField.__call__"],
            "coefficients.field_build.calls": c["coefficients.MatrixField.__init__"],
            "coefficients.field_build.self_s": s["coefficients.MatrixField.__init__"],
            "coefficients.certify_ellipticity.self_s": s["coefficients.certify_ellipticity"],
            "pseudoconvex.theta_scan.calls": c["pseudoconvex.theta_scan"],
            "pseudoconvex.self_s": self.layer_self("pseudoconvex"),
            "weights.check_admissibility.self_s": s["weights.check_admissibility"],
            "weights.self_s": self.layer_self("weights"),
            "solvers.solve_evolution.calls": sum(v for k, v in c.items()
                                                 if k.startswith("solvers.solve_evolution")),
            "solvers.wave.self_s": s["solvers.solve_evolution[wave]"],
            "solvers.heat.self_s": s["solvers.solve_evolution[heat]"],
            "solvers.schrodinger.self_s": s["solvers.solve_evolution[schrodinger]"],
            "solvers.node_steps_per_s": rate(n["node_steps"], solve_incl),
            "solvers.assemble_spatial_operator.self_s": s["solvers.assemble_spatial_operator"],
            "solvers.gamma_plus.calls": c["solvers.gamma_plus"],
            "solvers.smoothing_bound_check.self_s": s["solvers.smoothing_bound_check"],
            "experiments.forward_solves": n["forward_solves"],
            "experiments.worst_case.iterations": n["worst_case_iterations"],
            "experiments.self_s": self.layer_self("experiments"),
            "cli.self_s": self.layer_self("cli"),
            "cli.write_csv.self_s": s["cli.write_csv"],
            "cli.emit_plots.self_s": s["cli.emit_plots"],
            "cli.bytes_written": n["bytes_written"],
            "svg.self_s": self.layer_self("svg"),
        }


# -- labels and counters at particular boundaries ------------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _by_kind(name, args, kwargs):
    return f"{name}[{_arg(args, kwargs, 0, 'kind')}]"


def _count_points(tracer, args, kwargs, result):
    tracer.counts["polynomial_points"] += _size(result.shape)


def _count_laplacian(tracer, args, kwargs, result):
    tracer.counts["laplacian_nodes"] += result.size


def _count_solve(tracer, args, kwargs, result):
    grid = result.grid
    tracer.counts["node_steps"] += _size(grid.space_shape) * (grid.nt - 1)
    if tracer._experiment_depth:
        tracer.counts["forward_solves"] += 1


def _count_worst_case(tracer, args, kwargs, result):
    tracer.counts["worst_case_iterations"] += result.iterations_run


def _count_written(tracer, args, kwargs, result):
    tracer.counts["bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_plots(tracer, args, kwargs, result):
    tracer.counts["bytes_written"] += sum(Path(p).stat().st_size for p in result)


_SPECIAL = {
    "polynomials.Polynomial.__call__": (None, _count_points),
    "operators.laplacian_flux": (None, _count_laplacian),
    "solvers.solve_evolution": (_by_kind, _count_solve),
    "experiments.worst_case_ratio": (None, _count_worst_case),
    "cli.write_json": (None, _count_written),
    "cli.write_csv": (None, _count_written),
    "cli.emit_plots": (None, _count_plots),
}
