"""Frozen CSV-to-SVG report path, kept as a reference oracle.

This is how the commands drew their plots before they drew them from the
arrays they hold: each command wrote its CSV with ``write_csv`` and
``emit_plots`` read that CSV back, picked the plot type from its header and
parsed the rows again.  ``carleman.cli`` renders the same SVGs straight
from its arrays; the command-level tests in ``test_cli.py`` require the
bytes to match what this copy draws from the command's own CSV.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from carleman.svg import heatmap_svg, histogram_svg, line_svg


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def emit_plots(paths, outdir: Path | None = None) -> list[Path]:
    """Render the SVG plot of each report CSV file, chosen by its header."""
    written: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ValueError(f"report file {path} does not exist")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"report file {path} is empty (no header)")
            trace = header[:1] == ["face"] and "trace_re" in header
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
            raise ValueError(f"unrecognized report columns in {path}: {header}")
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
