"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload sweep-2d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's configs are generated from
the seed into ``.bench_run/<workload>/configs``; each pass runs every
operation of the workload once (CLI commands in-process through
``carleman.cli.main``, library calls directly), and passes repeat until the
next one would end after ``--seconds``.  The first pass's outputs are
checked against the independent oracles in ``oracles.py``; every later
pass must reproduce them byte for byte.

``--trace 0`` prints the end-to-end metrics (medians over passes, set-up
time from fresh interpreters, peak RSS).  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of the traced ones,
plus the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_PROBES = 9


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy is linked against, if it is that."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Set-up time of fresh interpreters: import, load configs, build grids."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Executes passes over one workload's operations and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        import yaml

        import oracles
        import workloads
        from carleman import cli

        self.cli = cli
        self.oracles = oracles
        self.seed = seed
        self.work = work
        self.ops = workloads.build_ops(workload, seed, ROOT)
        self.schedule = workloads.schedule(self.ops)
        self.config_paths: dict[str, Path] = {}
        self.configs: dict[str, dict] = {}
        (work / "configs").mkdir(parents=True)
        for op in self.ops:
            cfg = op.config if op.command else {
                "grid": {"lows": [0.0] * len(op.nodes), "highs": [1.0] * len(op.nodes),
                         "nodes": op.nodes, "t1": 0.0, "t2": 1.0, "nt": 3},
                "coefficients": {"family": "identity"},
            }
            path = work / "configs" / f"{op.name}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=False))
            self.config_paths[op.name] = path
            self.configs[op.name] = cfg
        # library-call inputs are built once, outside the timed region
        self.library_inputs = {}
        for op in self.ops:
            if op.command is None:
                cfg = cli.load_config(str(self.config_paths[op.name]))
                grid = cli.build_grid_from(cfg)
                self.library_inputs[op.name] = (cli.build_coefficients_from(cfg, grid), grid)
        self.fingerprints: dict[str, str] = {}
        self.identities: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_pass(self) -> dict:
        """One timed pass over the schedule; returns each op's times and outcomes."""
        from carleman import solvers

        op_s: dict[str, list[float]] = {}
        outcomes = []
        for op in self.schedule:
            outdir = self.work / "out" / op.name
            shutil.rmtree(outdir, ignore_errors=True)
            status = result = error = None
            start = time.perf_counter()
            try:
                if op.command:
                    argv = [op.command, "--config", str(self.config_paths[op.name]),
                            "--out", str(outdir)]
                    if "seed" in op.meta:
                        argv += ["--seed", str(op.meta["seed"])]
                    status = self.cli.main(argv)
                else:
                    field, grid = self.library_inputs[op.name]
                    result = solvers.smoothing_bound_check(field, grid, op.t_samples)
                    status = 0
            except Exception as exc:  # a raising operation is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            op_s.setdefault(op.name, []).append(elapsed)
            outcomes.append((op, status, result, error, elapsed))
        return {"total_s": sum(o[-1] for o in outcomes), "op_s": op_s, "outcomes": outcomes}

    def check_pass(self, record: dict) -> None:
        """Count failures; full oracle checks the first time an op succeeds."""
        for op, status, result, error, _ in record.pop("outcomes"):
            self.attempted += 1
            outdir = self.work / "out" / op.name
            if error is not None:
                problems = [error]
            elif status != op.expected:
                problems = [f"exit status {status}, expected {op.expected}"]
            else:
                digest = _digest(outdir) if op.command else repr(result)
                if op.name in self.fingerprints:
                    problems = ([] if digest == self.fingerprints[op.name]
                                else ["outputs differ from the first checked pass"])
                else:
                    problems = self._oracle(op, outdir, result)
                    if not problems:
                        self.fingerprints[op.name] = digest
            if problems:
                # a raise, a wrong exit status and a failed check all count
                self.correct = False
                self.failed += 1
                self.problems.append(f"{op.name}: " + "; ".join(problems))

    def _oracle(self, op, outdir: Path, result) -> list[str]:
        o = self.oracles
        cfg = self.configs[op.name]
        try:
            if op.command == "carleman-audit":
                problems = o.check_audit(op, cfg, outdir)
                kind = cfg["audit"].get("kind", "wave_full")
                if not problems and op.meta.get("sample") and kind in ("wave_full", "parabolic_full"):
                    problems = o.check_audit_scaling(cfg, op)
                return problems
            if op.command == "certify":
                return o.check_certify(cfg, outdir)
            if op.command == "theta":
                return o.check_theta(cfg, outdir, self.seed, op.name)
            if op.command == "identities":
                pair = op.meta.get("pair")
                problems, values = o.check_identities(
                    cfg, outdir, self.identities.get(pair),
                    self.configs.get(pair))
                self.identities[op.name] = values
                if pair and pair not in self.identities:
                    problems.append(f"paired run {pair} has no checked result")
                return problems
            if op.command == "ucp-certificate":
                return o.check_ucp(cfg, outdir)
            if op.command == "flatten":
                return o.check_flatten(outdir)
            if op.command == "observability":
                return o.check_observability(cfg, outdir)
            if op.command == "solve":
                return o.check_solve(cfg, outdir)
            field, grid = self.library_inputs[op.name]
            return (o.check_smoothing(op.nodes, op.t_samples, result)
                    or o.check_smoothing_sharp(field, grid, op.nodes))
        except Exception as exc:  # a check that cannot read the output fails it
            return [f"output unreadable: {type(exc).__name__}: {exc}"]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carleman" / "__init__.py").is_file():
        print(f"error: no carleman package under {SRC.name}/ next to {BENCH.name}/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread, set before numpy loads, for this process and the set-up
    # probes.  On a shared two-processor guest a two-thread dense eigvalsh
    # (the smoothing check) swings by a quarter from call to call with the
    # load on the other processor; on one thread it stays within ~5%.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads
    from spans import Tracer

    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        print(f"error: BLAS runs {threads} threads on {nproc} processors", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work)

    setup = [] if args.trace else measure_setup(list(runner.config_paths.values()))

    passes = []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            record = runner.run_pass()
        finally:
            if tracer:
                tracer.uninstall()
        pass_wall = time.perf_counter() - t0
        record["traced"] = traced
        runner.check_pass(record)
        passes.append(record)
        if tracer:
            tracers.append(tracer)
            (work / "trace").mkdir(exist_ok=True)
            tracer.dump(work / "trace" / f"pass{len(passes) - 1}.npz")
        out_of_time = time.perf_counter() - start + pass_wall > args.seconds
        if out_of_time and (tracers or not args.trace):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        per_pass = [t.metrics() for t in tracers]
        values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        # the first pass warms caches and BLAS threads: compare warm passes
        warm = plain[1:] or plain
        values["trace.overhead_s"] = (_median([p["total_s"] for p in passes if p["traced"]])
                                      - _median([p["total_s"] for p in warm]))
        declared = spec["per_layer"]
    else:
        # each operation's median over all its runs (passes and probe rounds),
        # summed over the workload's operations or over one family's
        op_median = {op.name: _median([t for p in plain for t in p["op_s"][op.name]])
                     for op in runner.ops}
        values = {"setup_s": _median(setup), "total_s": sum(op_median.values()),
                  "peak_rss_mb": peak_mb}
        for family in workloads.FAMILIES:
            values[f"{family}_s"] = sum(op_median[op.name] for op in runner.ops
                                        if op.family == family)
        declared = spec["end_to_end"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "setup_s": setup,
        "blas_threads": threads, "nproc": nproc, "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "problems": runner.problems,
        "pass_total_s": [p["total_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "op_s": [p["op_s"] for p in passes], "values": values,
    }
    (work / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, BLAS threads {threads}, nproc {nproc}",
          file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
