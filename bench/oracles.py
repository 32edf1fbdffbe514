"""Output checks for every benchmark operation, computed apart from the program.

Each ``check_*`` function reads the artifacts one operation wrote (or the
result object of a library call) and recomputes what it can from the
config alone, with plain numpy: the coefficient matrix from its monomial
table, the weight from its centre, the discrete separated solutions of the
evolution problems and the closed-form spectrum of the discrete Laplacian.
The discretization each oracle reproduces is stated in the README.  A check
returns a list of problems; an empty list means the output is correct.

Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ENVELOPE = (2.0 * math.e) ** -0.5


# -- config readers --------------------------------------------------------------


def grid_axes(cfg: dict):
    g = cfg["grid"]
    axes = [np.linspace(float(lo), float(hi), int(m))
            for lo, hi, m in zip(g["lows"], g["highs"], g["nodes"])]
    times = np.linspace(float(g.get("t1", 0.0)), float(g.get("t2", 1.0)), int(g.get("nt", 33)))
    return axes, times


def mesh(axes) -> np.ndarray:
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def trapezoid(coords: np.ndarray) -> np.ndarray:
    h = coords[1] - coords[0]
    w = np.full(coords.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


def outer_all(vectors) -> np.ndarray:
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def _monomials(terms, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[:-1])
    for t in terms:
        val = np.full(pts.shape[:-1], float(t["coeff"]))
        for i, e in enumerate(t["powers"]):
            if e:
                val = val * pts[..., i] ** int(e)
        out = out + val
    return out


def coeff_entry(cfg: dict, k: int, l: int, pts: np.ndarray) -> np.ndarray:
    """a_kl at the points, evaluated from the config's monomial table."""
    c = cfg.get("coefficients", {})
    family = c.get("family", "identity")
    if family == "identity":
        return np.full(pts.shape[:-1], 1.0 if k == l else 0.0)
    if family != "polynomial":
        raise ValueError(f"oracle has no evaluator for coefficient family {family!r}")
    for item in c["entries"]:
        if {int(item["k"]), int(item["l"])} == {k, l}:
            return _monomials(item["terms"], pts)
    return np.zeros(pts.shape[:-1])


def coeff_matrix(cfg: dict, pts: np.ndarray) -> np.ndarray:
    n = pts.shape[-1]
    out = np.empty(pts.shape[:-1] + (n, n))
    for k in range(n):
        for l in range(n):
            out[..., k, l] = coeff_entry(cfg, k, l, pts)
    return out


def example_weight(cfg: dict, axes, times):
    """psi0 = |x - x0|^2 / 2, psi1 = gamma (t + t0)^2 / 2, auto-shift to psi >= 0."""
    w = cfg["weight"]
    x0 = np.asarray([float(v) for v in w["x0"]])
    gamma = float(w.get("gamma", 0.0))
    t0 = float(w.get("t0", 0.0))
    shift = float(w.get("shift", 0.0))
    pts = mesh(axes)
    psi0 = 0.5 * np.sum((pts - x0) ** 2, axis=-1)
    psi1 = 0.5 * gamma * (times + t0) ** 2
    low = float(np.min(psi0)) + float(np.min(psi1)) + shift
    if low < 0.0:
        shift = shift - low + 1e-9
    return x0, psi0, psi1, shift, gamma, t0


# -- stencils ----------------------------------------------------------------------


def _sl(ndim: int, axis: int, s) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def central(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centred differences inside, 3-point one-sided differences at both ends."""
    nd = u.ndim
    out = np.empty(u.shape, dtype=np.result_type(u, np.float64))
    out[_sl(nd, axis, slice(1, -1))] = (u[_sl(nd, axis, slice(2, None))]
                                        - u[_sl(nd, axis, slice(None, -2))]) / (2.0 * h)
    out[_sl(nd, axis, slice(0, 1))] = (-3.0 * u[_sl(nd, axis, slice(0, 1))]
                                       + 4.0 * u[_sl(nd, axis, slice(1, 2))]
                                       - u[_sl(nd, axis, slice(2, 3))]) / (2.0 * h)
    out[_sl(nd, axis, slice(-1, None))] = (3.0 * u[_sl(nd, axis, slice(-1, None))]
                                           - 4.0 * u[_sl(nd, axis, slice(-2, -1))]
                                           + u[_sl(nd, axis, slice(-3, -2))]) / (2.0 * h)
    return out


def flux_laplacian(cfg: dict, u: np.ndarray, axes) -> np.ndarray:
    """Delta_A in flux form: half-node diagonal fluxes, nested centred mixed terms.

    Works on arrays with trailing (time) axes; the boundary ring is zero.
    """
    n = len(axes)
    h = [a[1] - a[0] for a in axes]
    extra = (1,) * (u.ndim - n)
    out = np.zeros(u.shape, dtype=np.result_type(u, np.float64))
    for k in range(n):
        half_axes = list(axes)
        half_axes[k] = 0.5 * (axes[k][1:] + axes[k][:-1])
        a_half = coeff_entry(cfg, k, k, mesh(half_axes))
        du = np.diff(u, axis=k) / h[k]
        flux = a_half.reshape(a_half.shape + extra) * du
        out[_sl(u.ndim, k, slice(1, -1))] += np.diff(flux, axis=k) / h[k]
    for k in range(n):
        for l in range(n):
            if l == k:
                continue
            inner_axes = list(axes)
            inner_axes[l] = axes[l][1:-1]
            a_kl = coeff_entry(cfg, k, l, mesh(inner_axes))
            if not np.any(a_kl):
                continue
            dcl = (u[_sl(u.ndim, l, slice(2, None))]
                   - u[_sl(u.ndim, l, slice(None, -2))]) / (2.0 * h[l])
            t = a_kl.reshape(a_kl.shape + extra) * dcl
            mixed = (t[_sl(u.ndim, k, slice(2, None))]
                     - t[_sl(u.ndim, k, slice(None, -2))]) / (2.0 * h[k])
            idx = [slice(None)] * u.ndim
            idx[k] = slice(1, -1)
            idx[l] = slice(1, -1)
            out[tuple(idx)] += mixed
    _zero_ring(out, n)
    return out


def _zero_ring(u: np.ndarray, n: int) -> None:
    for ax in range(n):
        u[_sl(u.ndim, ax, 0)] = 0
        u[_sl(u.ndim, ax, -1)] = 0


def evolution_operator(kind: str, cfg: dict, u: np.ndarray, axes, dt: float) -> np.ndarray:
    """Delta_A u - u_tt (wave), Delta_A u - u_t (parabolic), Delta_A u + i u_t."""
    out = flux_laplacian(cfg, u, axes)
    if kind == "wave":
        out[..., 1:-1] -= (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dt**2
    elif kind == "parabolic":
        out = out - central(u, u.ndim - 1, dt)
    elif kind == "schrodinger":
        out = out + 1j * central(u, u.ndim - 1, dt)
    else:
        raise ValueError(kind)
    _zero_ring(out, len(axes))
    out[..., 0] = 0
    out[..., -1] = 0
    return out


# -- audit -------------------------------------------------------------------------

AUDIT_ORACLE_KINDS = ("wave_full", "parabolic_full", "schrodinger_full")


def _lateral(dens: np.ndarray, axes, time_w: np.ndarray) -> float:
    """Integral over the lateral boundary: every face, trapezoid in the tangents."""
    n = len(axes)
    total = 0.0
    for ax in range(n):
        tang = outer_all([trapezoid(axes[b]) for b in range(n) if b != ax] + [time_w])
        for side in (0, -1):
            total += float(np.sum(dens[_sl(dens.ndim, ax, side)] * tang))
    return total


def audit_ratio(cfg: dict, kind: str, u: np.ndarray, tau: float, lam: float) -> float:
    """RHS / LHS of the audited inequality for one member at one (tau, lambda)."""
    axes, times = grid_axes(cfg)
    n = len(axes)
    h = [a[1] - a[0] for a in axes]
    dt = times[1] - times[0]
    _, psi0, psi1, shift, _, _ = example_weight(cfg, axes, times)
    psi = psi0[..., None] + psi1 + shift
    phi = np.exp(lam * psi)
    env = np.exp(2.0 * tau * (phi - np.max(phi)))
    amat = coeff_matrix(cfg, mesh(axes))
    grad = np.stack([central(u, ax, h[ax]) for ax in range(n)], axis=-1)
    dtu = central(u, n, dt)
    grad_a_sq = np.einsum("...k,...kl,...l->...", grad, amat[..., None, :, :],
                          np.conj(grad)).real
    grad_sq = np.sum(np.abs(grad) ** 2, axis=-1)
    usq = np.abs(u) ** 2
    dtsq = np.abs(dtu) ** 2
    space_w = outer_all([trapezoid(a) for a in axes])
    time_w = trapezoid(times)
    w = space_w[..., None] * time_w
    op_kind = kind.split("_")[0]

    if op_kind == "wave":
        lhs_d = tau**3 * lam**4 * phi**3 * usq + tau * lam * phi * (grad_a_sq + dtsq)
        bdens = tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * (grad_a_sq + dtsq)
    elif op_kind == "parabolic":
        lhs_d = tau**3 * lam**4 * phi**3 * usq + tau * lam**2 * phi * grad_sq
        bdens = tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * grad_sq
    else:
        lhs_d = tau**3 * lam**4 * phi**3 * usq + tau * lam * phi * grad_sq
        bdens = tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * grad_sq
    lhs = float(np.sum(env * lhs_d * w))
    lu = evolution_operator(op_kind, cfg, u, axes, dt)
    src = float(np.sum(env * np.abs(lu) ** 2 * w))
    eb = env * bdens
    dmu = _lateral(eb, axes, time_w)
    dmu += float(np.sum(eb[..., 0] * space_w)) + float(np.sum(eb[..., -1] * space_w))
    if op_kind != "wave":
        dmu += _lateral(env * dtsq / (tau * lam * phi), axes, time_w)
    if lhs == 0.0:
        return float("inf")
    return (src + dmu) / lhs


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def audit_ensemble(cfg: dict, kind: str, seed: int):
    """The members the CLI audits: the library's default ensemble."""
    from carleman.audit import default_ensemble
    from carleman.cli import build_grid_from

    grid = build_grid_from(cfg)
    count = int(cfg["audit"].get("ensemble", 20))
    return grid, default_ensemble(grid, seed, count=count,
                                  complex_fields=kind.startswith("schrodinger"))


def sampled_pairs(cfg: dict, seed: int, count: int, name: str) -> list[tuple[int, int, int]]:
    a = cfg["audit"]
    shape = (len(a["taus"]), len(a["lambdas"]), int(a.get("ensemble", 20)))
    rng = np.random.default_rng([seed, sum(name.encode())])
    flat = rng.choice(int(np.prod(shape)), size=count, replace=False)
    return [tuple(int(v) for v in np.unravel_index(i, shape)) for i in sorted(flat)]


def check_audit(op, cfg: dict, outdir: Path) -> list[str]:
    problems: list[str] = []
    a = cfg["audit"]
    kind = a.get("kind", "wave_full")
    taus = [float(t) for t in a["taus"]]
    lams = [float(l) for l in a["lambdas"]]
    count = int(a.get("ensemble", 20))
    summary = _read_json(outdir / "audit.json")
    rows = _csv_rows(outdir / "audit.csv")
    if rows[0] != ["tau", "lambda", "member", "ratio"] or len(rows) != 1 + len(taus) * len(lams) * count:
        return [f"audit.csv has header {rows[0]} and {len(rows) - 1} rows"]
    ratios = np.array([float(r[3]) for r in rows[1:]]).reshape(len(taus), len(lams), count)
    if not (outdir / "audit_heatmap.svg").is_file():
        problems.append("audit_heatmap.svg missing")

    if op.meta.get("negative"):
        axes, times = grid_axes(cfg)
        _, psi0, psi1, shift, gamma, t0 = example_weight(cfg, axes, times)
        pts = mesh(axes)
        x0 = np.asarray([float(v) for v in cfg["weight"]["x0"]])
        grad = pts - x0
        gsq = np.einsum("...k,...kl,...l->...", grad, coeff_matrix(cfg, pts), grad)
        bracket_min = float(np.min(gsq[..., None] - (gamma * (times + t0)) ** 2))
        codes = [v["code"] for v in summary["admissibility"]["violations"]]
        if summary.get("stamp") != "INADMISSIBLE WEIGHT: exploratory":
            problems.append(f"negative control stamp is {summary.get('stamp')!r}")
        if ("(2.1)" in codes) != (bracket_min <= 0.0):
            problems.append(f"codes {codes} disagree with bracket minimum {bracket_min:.6g}")
        return problems

    # cell minima over finite members, and the headline constant over the
    # quantified block tau >= tau*, lambda >= lambda*
    with np.errstate(invalid="ignore"):
        cell = np.where(np.isfinite(ratios), ratios, np.inf).min(axis=-1)
    reported = np.array([[float(v) for v in row] for row in summary["aleph_emp"]])
    if not np.array_equal(reported, cell):
        problems.append("audit.json aleph_emp differs from the per-cell minima of audit.csv")
    if summary.get("tau_star") is None or summary.get("lam_star") is None:
        problems.append("no quantified cell (tau_star is null)")
    else:
        block = cell[taus.index(summary["tau_star"]):, lams.index(summary["lam_star"]):]
        finite = block[np.isfinite(block)]
        if finite.size == 0 or not float(np.min(finite)) > 0.0:
            problems.append("aleph_overall is not positive")
    if a.get("refine") and not (summary.get("refinement") or {}).get("stable"):
        problems.append(f"refinement not stable: {summary.get('refinement')}")

    if kind in AUDIT_ORACLE_KINDS and op.meta.get("sample"):
        seed = op.meta["seed"]
        _, members = audit_ensemble(cfg, kind, seed)
        for i, j, m in sampled_pairs(cfg, seed, op.meta["sample"], op.name):
            mine = audit_ratio(cfg, kind, members[m], taus[i], lams[j])
            theirs = float(ratios[i, j, m])
            if not (mine == theirs or _rel(mine, theirs) <= 1e-9):
                problems.append(f"ratio at tau={taus[i]} lambda={lams[j]} member {m}: "
                                f"csv {theirs!r}, oracle {mine!r}")
    return problems


def check_audit_scaling(cfg: dict, op) -> list[str]:
    """Library property: a member scaled by 3 keeps its ratio."""
    from carleman.audit import evaluate_sides
    from carleman.cli import build_coefficients_from, build_weight_from

    kind = cfg["audit"].get("kind", "wave_full")
    grid, members = audit_ensemble(cfg, kind, op.meta["seed"])
    field = build_coefficients_from(cfg, grid)
    spec, _ = build_weight_from(cfg, field, grid)
    i, j, m = sampled_pairs(cfg, op.meta["seed"], op.meta["sample"], op.name)[0]
    wspec = spec.with_lambda(float(cfg["audit"]["lambdas"][j]))
    tau = float(cfg["audit"]["taus"][i])
    r1 = evaluate_sides(members[m], wspec, field, None, kind, tau, grid).ratio
    r3 = evaluate_sides(3.0 * members[m], wspec, field, None, kind, tau, grid).ratio
    if not (r1 == r3 or _rel(r1, r3) <= 1e-12):
        return [f"scaling a member by 3 moves its ratio {r1!r} -> {r3!r}"]
    return []


# -- certification -------------------------------------------------------------------


def check_certify(cfg: dict, outdir: Path) -> list[str]:
    rep = _read_json(outdir / "certificate.json")
    axes, _ = grid_axes(cfg)
    eigs = np.linalg.eigvalsh(coeff_matrix(cfg, mesh(axes)))
    problems = []
    for key, mine in (("lambda_min", float(eigs[..., 0].min())),
                      ("lambda_max", float(eigs[..., -1].max()))):
        theirs = float(rep["ellipticity"][key])
        if abs(theirs - mine) > 1e-12 * max(1.0, abs(mine)):
            problems.append(f"{key}: certificate {theirs!r}, eigvalsh {mine!r}")
    if not rep["admissibility"]["passed"]:
        problems.append(f"weight not admissible: {rep['admissibility']['violations']}")
    return problems


def _theta_min_fd(cfg: dict, x: np.ndarray, x0: np.ndarray, step: float = 1e-6) -> float:
    """min eig of sym(2 A hess(psi0) A + Upsilon), Upsilon by finite differences."""
    n = x.size
    amat = coeff_matrix(cfg, x[None, :])[0]
    da = np.empty((n, n, n))
    for p in range(n):
        e = np.zeros(n)
        e[p] = step
        da[..., p] = (coeff_matrix(cfg, (x + e)[None, :])[0]
                      - coeff_matrix(cfg, (x - e)[None, :])[0]) / (2.0 * step)
    lam = (-np.einsum("klp,pm->klm", da, amat) + 2.0 * np.einsum("kp,lmp->klm", amat, da))
    ups = np.einsum("klm,m->kl", lam, x - x0)
    theta = 2.0 * amat @ amat + ups  # hess(|x - x0|^2 / 2) = I
    return float(np.linalg.eigvalsh(0.5 * (theta + theta.T))[0])


def check_theta(cfg: dict, outdir: Path, seed: int, name: str, samples: int = 48) -> list[str]:
    axes, _ = grid_axes(cfg)
    n = len(axes)
    x0 = np.asarray([float(v) for v in cfg["weight"]["x0"]])
    table = np.loadtxt(outdir / "theta_scan.csv", delimiter=",", skiprows=1, ndmin=2)
    pts = mesh(axes).reshape(-1, n)
    if table.shape != (pts.shape[0], n + 2):
        return [f"theta_scan.csv has shape {table.shape}"]
    problems = []
    if not np.array_equal(table[:, :n], pts):
        problems.append("theta_scan.csv node coordinates differ from the grid")
    gnorm = np.linalg.norm(pts - x0, axis=-1)
    if np.max(np.abs(table[:, n + 1] - gnorm)) > 1e-12:
        problems.append("theta_scan.csv grad_norm differs from |x - x0|")
    rng = np.random.default_rng([seed, sum(name.encode())])
    for idx in rng.choice(pts.shape[0], size=min(samples, pts.shape[0]), replace=False):
        mine = _theta_min_fd(cfg, pts[idx], x0)
        # the step-1e-6 difference quotient is good to ~3e-10 on these cubic
        # fields, so 1e-8 is tighter than the 1e-5 of the acceptance suite
        if abs(table[idx, n] - mine) > 1e-8:
            problems.append(f"theta_sym_min at {pts[idx].tolist()}: csv {table[idx, n]!r}, "
                            f"finite-difference oracle {mine!r}")
            break
    return problems


def check_identities(cfg: dict, outdir: Path, coarse: dict | None,
                     coarse_cfg: dict | None) -> tuple[list[str], dict]:
    res = _read_json(outdir / "identities.json")
    problems = [f"{k} = {v!r} is not finite" for k, v in res.items()
                if not (isinstance(v, float) and math.isfinite(v))]
    if coarse is not None and not problems:
        h_c = 1.0 / (coarse_cfg["grid"]["nodes"][0] - 1)
        h_f = 1.0 / (cfg["grid"]["nodes"][0] - 1)
        expected = (h_c / h_f) ** 2
        for key, fine in res.items():
            factor = coarse[key] / fine
            if not 0.8 * expected <= factor <= 1.25 * expected:
                problems.append(f"{key} falls by {factor:.3f} under refinement, "
                                f"second order gives {expected:.3f}")
    return problems, res


def check_ucp(cfg: dict, outdir: Path) -> list[str]:
    rep = _read_json(outdir / "ucp.json")
    u = cfg["ucp"]
    c, eps, t_span = float(u["c"]), float(u["eps"]), float(u["t_span"])
    lam, shift = float(u.get("lambda", 1.0)), float(u.get("shift", 0.0))
    closed = (lam * (c**2 / 2.0 - 3.0 * eps / 4.0 + shift),
              lam * (c**2 / 2.0 - eps + shift),
              lam * (c**2 / 2.0 - c * t_span / 32.0 + shift))
    problems = []
    for got, want in zip(rep["exponents"], closed):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"exponent {got!r}, closed form {want!r}")
    for key, want in zip(("c0", "c1", "c2"), closed):
        if _rel(rep[key], math.exp(want)) > 1e-12:
            problems.append(f"{key} = {rep[key]!r}, exp(exponent) = {math.exp(want)!r}")
    if rep["passed"] != (closed[1] < closed[0] and closed[2] < closed[0]):
        problems.append("separation verdict disagrees with the closed-form exponents")
    return problems


def check_flatten(outdir: Path) -> list[str]:
    rep = _read_json(outdir / "flatten.json")
    problems = []
    if not (rep["jacobian_bound_ok"] and rep["certificate"]["passed"]):
        problems.append("chart not certified")
    theta = np.asarray(rep["theta_origin"], dtype=float)
    mine = float(np.linalg.eigvalsh(0.5 * (theta + theta.T))[0])
    if abs(mine - rep["theta_origin_min_eig"]) > 1e-12 * max(1.0, abs(mine)):
        problems.append(f"theta_origin_min_eig {rep['theta_origin_min_eig']!r}, eigvalsh {mine!r}")
    if rep["radius"] != 0.5 * 0.5 ** rep["halvings"]:
        problems.append("radius is not the halved starting radius")
    return problems


# -- evolution: discrete separated solutions ------------------------------------------


class SineMode:
    """Product sine mode on the unit box and its discrete separated solution.

    With identity A the sampled sine mode is an exact eigenvector of the
    flux Laplacian, -Delta_h v = mu_h v with mu_h = sum 4/h^2 sin^2(k pi h/2),
    so every solver output is the mode times a scalar time factor.
    """

    def __init__(self, axes, ks):
        self.axes = axes
        self.ks = [int(k) for k in ks]
        self.h = [a[1] - a[0] for a in axes]
        pieces = []
        for a, k in zip(axes, self.ks):
            s = (a - a[0]) / (a[-1] - a[0])
            p = np.sin(k * np.pi * s)
            p[0] = p[-1] = 0.0
            pieces.append(p)
        self.values = outer_all(pieces)
        length = [a[-1] - a[0] for a in axes]
        self.mu = float(sum(4.0 / h**2 * math.sin(k * math.pi * h / (2.0 * L)) ** 2
                            for h, k, L in zip(self.h, self.ks, length)))
        self.norm_sq = float(np.sum(self.values**2) * np.prod(self.h))

    def face_trace(self, ax: int, side: int) -> np.ndarray:
        """Outward 3-point one-sided normal derivative on one face."""
        v = self.values
        h = self.h[ax]
        if side == 0:
            return (3.0 * v[_sl(v.ndim, ax, 0)] - 4.0 * v[_sl(v.ndim, ax, 1)]
                    + v[_sl(v.ndim, ax, 2)]) / (2.0 * h)
        return (3.0 * v[_sl(v.ndim, ax, -1)] - 4.0 * v[_sl(v.ndim, ax, -2)]
                + v[_sl(v.ndim, ax, -3)]) / (2.0 * h)

    def time_factors(self, kind: str, dt: float, nt: int) -> np.ndarray:
        c = np.empty(nt, dtype=complex if kind == "schrodinger" else float)
        x = dt * self.mu
        if kind == "wave":  # leapfrog from rest
            c[0] = 1.0
            c[1] = 1.0 - 0.5 * dt**2 * self.mu
            for m in range(1, nt - 1):
                c[m + 1] = (2.0 - dt**2 * self.mu) * c[m] - c[m - 1]
        elif kind == "heat":  # Crank-Nicolson factor
            c[:] = ((1.0 - 0.5 * x) / (1.0 + 0.5 * x)) ** np.arange(nt)
        else:  # Cayley factor
            c[:] = ((1.0 - 0.5j * x) / (1.0 + 0.5j * x)) ** np.arange(nt)
        return c


def _faces(n: int):
    return [(ax, side) for ax in range(n) for side in (0, 1)]


def _plus_faces(axes, x0) -> list[tuple[int, int]]:
    """Faces where (grad psi0 | nu) = (x - x0) . nu > 0 (constant on a face)."""
    out = []
    for ax, side in _faces(len(axes)):
        coord = axes[ax][0] if side == 0 else axes[ax][-1]
        flux = (coord - x0[ax]) * (-1.0 if side == 0 else 1.0)
        if flux > 0.0:
            out.append((ax, side))
    return out


def _face_weight(axes, ax: int) -> np.ndarray:
    others = [trapezoid(axes[b]) for b in range(len(axes)) if b != ax]
    return outer_all(others) if others else np.ones(())


def observed_quotient(kind: str, mode: SineMode, axes, times, x0):
    """(data norm, trace norm over Sigma_plus) of one observability member."""
    dt = times[1] - times[0]
    nt = times.size
    step_kind = {"wave": "wave", "heat_final": "heat", "schrodinger": "schrodinger"}[kind]
    c = mode.time_factors(step_kind, dt, nt)
    time_w = trapezoid(times)
    face_sum = 0.0
    for ax, side in _plus_faces(axes, x0):
        face_sum += float(np.sum(mode.face_trace(ax, side) ** 2 * _face_weight(axes, ax)))
    trace = math.sqrt(face_sum * float(np.sum(np.abs(c) ** 2 * time_w)))
    seminorm = math.sqrt(mode.mu * mode.norm_sq)
    data = seminorm * (abs(c[-1]) if kind == "heat_final" else 1.0)
    return data, trace, seminorm


def continuum_quotient(kind: str, ks, axes, t_obs: float, x0) -> float:
    """Data norm over observed trace norm of the continuum separated solution."""
    n = len(ks)
    omega = math.pi * math.sqrt(sum(k * k for k in ks))
    data = omega * 0.5 ** (n / 2.0)
    face = sum((ks[ax] * math.pi) ** 2 * 0.5 ** (n - 1) for ax, _ in _plus_faces(axes, x0))
    if kind == "wave":
        time_int = t_obs / 2.0 + math.sin(2.0 * omega * t_obs) / (4.0 * omega)
    else:
        time_int = t_obs
    return data / math.sqrt(face * time_int)


def observability_modes(cfg: dict) -> list[list[int]]:
    n = len(cfg["grid"]["nodes"])
    count = int(cfg["observability"].get("modes", 5))
    return [[1 + (m + ax) % 3 for ax in range(n)] for m in range(1, count + 1)]


def check_observability(cfg: dict, outdir: Path) -> list[str]:
    block = cfg["observability"]
    kind = block.get("kind", "wave")
    alpha = float(block.get("alpha", 0.5))
    t_obs = float(block.get("t_obs", cfg["grid"]["t2"]))
    axes, times = grid_axes(cfg)
    x0 = np.asarray([float(v) for v in cfg["weight"]["x0"]])
    problems = []

    rep = _read_json(outdir / "observability.json")
    pts = mesh(axes)
    psi0 = 0.5 * np.sum((pts - x0) ** 2, axis=-1)
    delta0 = float(np.min(np.sum((pts - x0) ** 2, axis=-1)))
    t_alpha = max(delta0 ** (-1.0 / (2.0 * (1.0 - alpha))),
                  (32.0 * float(np.max(psi0))) ** (1.0 / alpha))
    if _rel(rep["report"]["t_alpha"], t_alpha) > 1e-12:
        problems.append(f"t_alpha {rep['report']['t_alpha']!r}, closed form {t_alpha!r}")
    if rep["report"]["threshold_ok"] != (t_obs >= rep["report"]["t_required"]):
        problems.append("threshold verdict disagrees with t_obs and t_required")

    rows = _csv_rows(outdir / "observability_ratios.csv")[1:]
    modes = observability_modes(cfg)
    if len(rows) != len(modes):
        return problems + [f"{len(rows)} quotient rows for {len(modes)} members"]
    for row, ks in zip(rows, modes):
        data, trace, seminorm = observed_quotient(kind, SineMode(axes, ks), axes, times, x0)
        got_d, got_t, got_r = float(row[1]), float(row[2]), float(row[3])
        if kind == "heat_final":
            # high modes decay to the LU rounding floor: absolute in units of
            # the initial seminorm
            ok = (abs(got_d - data) <= 1e-10 * seminorm and _rel(got_t, trace) <= 1e-10
                  and abs(got_r - data / trace) <= 1e-10 * seminorm / trace)
        else:
            ok = max(_rel(got_d, data), _rel(got_t, trace), _rel(got_r, data / trace)) <= 1e-10
            cont = continuum_quotient(kind, ks, axes, t_obs, x0)
            if _rel(got_r, cont) > 0.03:
                problems.append(f"{row[0]} quotient {got_r:.6g} is not within 3% of the "
                                f"continuum value {cont:.6g}")
        if not ok:
            problems.append(f"{row[0]} (mode {ks}): csv ({got_d!r}, {got_t!r}, {got_r!r}), "
                            f"oracle ({data!r}, {trace!r}, {data / trace!r})")

    wc = rep.get("worst_case")
    if wc is not None:
        data, trace, _ = observed_quotient("wave", SineMode(axes, [1] * len(axes)), axes, times, x0)
        ratios = [float(r) for r in wc["ratios"]]
        if not ratios or _rel(ratios[0], data / trace) > 1e-10:
            problems.append(f"worst-case seed quotient {ratios[:1]}, oracle {data / trace!r}")
        if any(b < a * (1.0 - 1e-9) for a, b in zip(ratios, ratios[1:])):
            problems.append(f"worst-case iterates decrease: {ratios}")
        if ratios and float(wc["ratio"]) != max(ratios):
            problems.append("worst-case ratio is not the best iterate")
    return problems


def check_solve(cfg: dict, outdir: Path) -> list[str]:
    block = cfg["solve"]
    kind = block.get("kind", "wave")
    axes, times = grid_axes(cfg)
    n = len(axes)
    ks = [int(block["mode"][ax]) if ax < len(block["mode"]) else 1 for ax in range(n)]
    mode = SineMode(axes, ks)
    dt = times[1] - times[0]
    c = mode.time_factors(kind, dt, times.size)
    problems = []

    table = np.loadtxt(outdir / "solve_traces.csv", delimiter=",", skiprows=1, ndmin=2)
    expected = []
    for ax, side in _faces(n):
        tr = mode.face_trace(ax, side).reshape(-1)
        vals = tr[:, None] * c[None, :]
        expected.append(np.stack([np.real(vals), np.imag(vals)], axis=-1).reshape(-1, 2))
    expected = np.concatenate(expected)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    if table.shape[0] != expected.shape[0]:
        return [f"solve_traces.csv has {table.shape[0]} rows, expected {expected.shape[0]}"]
    if not np.array_equal(table[:, n + 1], np.tile(times, table.shape[0] // times.size)):
        problems.append("solve_traces.csv time column differs from the grid times")
    dev = float(np.max(np.abs(table[:, -2:] - expected))) / scale
    if dev > 1e-10:
        problems.append(f"traces deviate from the separated solution by {dev:.3e} (relative)")

    energy = np.loadtxt(outdir / "solve_energy.csv", delimiter=",", skiprows=1, ndmin=2)
    norm = math.sqrt(mode.norm_sq)
    if kind == "wave":
        vel = np.empty_like(c)
        vel[0] = 0.0
        vel[1:-1] = (c[2:] - c[:-2]) / (2.0 * dt)
        vel[-1] = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * dt)
        want = np.sqrt(mode.mu * c**2 + vel**2) * norm
        floor = float(np.max(want))
    else:
        want = np.abs(c) * norm
        floor = norm
    dev = float(np.max(np.abs(energy[:, 1] - want))) / floor
    if energy.shape[0] != times.size or dev > 1e-10:
        problems.append(f"energy record deviates from the separated solution by {dev:.3e}")
    info = _read_json(outdir / "solve.json")
    if kind == "wave":
        cfl = 0.9 * min(a[1] - a[0] for a in axes) / math.sqrt(n)
        if _rel(info["cfl_limit"], cfl) > 1e-12:
            problems.append(f"cfl_limit {info['cfl_limit']!r}, closed form {cfl!r}")
    return problems


# -- smoothing bound ---------------------------------------------------------------


def discrete_spectrum(nodes) -> np.ndarray:
    """Eigenvalues of the interior -Delta_h on the unit box, closed form."""
    parts = []
    for m in nodes:
        h = 1.0 / (m - 1)
        j = np.arange(1, m - 1)
        parts.append(4.0 / h**2 * np.sin(j * np.pi * h / 2.0) ** 2)
    total = parts[0]
    for p in parts[1:]:
        total = np.add.outer(total, p)
    return np.sort(total.reshape(-1))


def check_smoothing(nodes, t_samples, rep) -> list[str]:
    problems = []
    mu = discrete_spectrum(nodes)
    t = np.asarray(t_samples)
    vals = np.sqrt(t[:, None] * mu[None, :]) * np.exp(-t[:, None] * mu[None, :])
    it, im = np.unravel_index(int(np.argmax(vals)), vals.shape)
    if rep.num_eigenvalues != int(np.prod([m - 2 for m in nodes])):
        problems.append(f"num_eigenvalues {rep.num_eigenvalues}")
    if not rep.aleph0_emp <= ENVELOPE + 1e-12 or rep.envelope != ENVELOPE:
        problems.append(f"aleph0 {rep.aleph0_emp!r} above the envelope {ENVELOPE!r}")
    if _rel(rep.aleph0_emp, float(vals[it, im])) > 1e-9:
        problems.append(f"aleph0 {rep.aleph0_emp!r}, closed-form spectrum gives {vals[it, im]!r}")
    return problems


def check_smoothing_sharp(field, grid, nodes) -> list[str]:
    """At t = 1 / (2 mu_h(1,...,1)) the bound is attained: (2e)^(-1/2)."""
    from carleman.solvers import smoothing_bound_check

    mu11 = float(discrete_spectrum(nodes)[0])
    rep = smoothing_bound_check(field, grid, [1.0 / (2.0 * mu11)])
    if abs(rep.aleph0_emp - ENVELOPE) > 1e-9:
        return [f"sharp sample gives {rep.aleph0_emp!r}, expected {ENVELOPE!r}"]
    return []
